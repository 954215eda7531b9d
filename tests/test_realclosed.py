"""Positive/norm-one/unipotent splits and exact singular value systems."""

from dataclasses import replace
from fractions import Fraction

import pytest
from oracles import frac_matmul

from mindec.errors import (
    FactorDegreeTooHigh,
    SingularMatrix,
    SingularValuesNotRational,
    ZeroMatrix,
)
from mindec.generator import blocks_matrix, random_gram_friendly, random_invertible_quadratic
from mindec.matrix import DenseMatrix, companion, minimal_polynomial, rank
from mindec.poly import Polynomial, X
from mindec.realclosed import (
    complete_mjc,
    svd,
    symmetric_spectral_check,
    verify_cmjc,
    verify_svd_system,
    verify_svd_uniqueness,
)
from mindec.scalar import MultiQuad, mq_sign


SQRT2 = MultiQuad({2: 1})
ONE = Polynomial((1,))


def mqm(M):
    return M.as_multiquad()


class TestCompleteMjc:
    def test_surd_companion_frozen_values(self):
        # eigenvalues +-sqrt(2) share absolute value sqrt(2), so the
        # positive part is sqrt(2) I and the norm-one part is M/sqrt(2)
        M = companion(Polynomial((-2, 0, 1)))
        dsu = complete_mjc(M)
        assert dsu.delta == DenseMatrix.scaled_identity(2, SQRT2)
        assert dsu.sigma == mqm(M) * SQRT2.inverse()
        assert dsu.unipotent == mqm(DenseMatrix.identity(2))
        assert dsu.delta @ dsu.sigma @ dsu.unipotent == mqm(M)
        # norm-one by constant term: min poly of sigma is X^2 - 1... no:
        # sigma^2 = M^2/2 = I, so the quadratic has constant term -1
        # only for split spectra; here sigma^2 = I exactly
        assert dsu.sigma @ dsu.sigma == mqm(DenseMatrix.identity(2))

    def test_factor_parts_commute_pairwise(self):
        for k in range(12):
            M = random_invertible_quadratic(f"rc-{k}").matrix
            dsu = complete_mjc(M)
            assert dsu.delta @ dsu.sigma == dsu.sigma @ dsu.delta
            assert dsu.delta @ dsu.unipotent == dsu.unipotent @ dsu.delta
            assert dsu.sigma @ dsu.unipotent == dsu.unipotent @ dsu.sigma
            assert dsu.delta @ dsu.sigma @ dsu.unipotent == mqm(M)

    def test_delta_spectrum_positive(self):
        for k in range(12):
            M = random_invertible_quadratic(f"rcpos-{k}").matrix
            dsu = complete_mjc(M)
            assert all(mq_sign(v) == 1 for v in dsu.delta_spectrum)

    def test_norm_one_quadratics_have_unit_constant_term(self):
        for k in range(25):
            M = random_invertible_quadratic(f"rcq-{k}").matrix
            dsu = complete_mjc(M)
            for quad in dsu.sigma_quadratics:
                assert quad.degree == 2
                assert quad.coefficient(0) == MultiQuad(1)
            for v in dsu.sigma_linear:
                assert v * v == MultiQuad(1)

    def test_recomputation_is_identical(self):
        M = random_invertible_quadratic("rc-twice").matrix
        a, b = complete_mjc(M), complete_mjc(M)
        assert a.delta == b.delta
        assert a.sigma == b.sigma
        assert a.unipotent == b.unipotent
        assert a.radicands == b.radicands

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            complete_mjc(DenseMatrix([[1, 0], [0, 0]]))

    def test_cubic_factor_rejected(self):
        with pytest.raises(FactorDegreeTooHigh):
            complete_mjc(companion(Polynomial((-2, 0, 0, 1))))

    def test_verifier_accepts_and_detects(self):
        M = companion((Polynomial((1, 0, 1)) * (X - Polynomial((2,)))).monic())
        dsu = complete_mjc(M)
        report = verify_cmjc(M, dsu)
        assert report.passed, str(report)
        import dataclasses

        bad = dataclasses.replace(dsu, delta=dsu.delta * MultiQuad(2))
        assert not verify_cmjc(M, bad).passed


I_SQRT = MultiQuad({-1: 1})


def _spectrum_failures(M, dsu):
    failed = {c.name for c in verify_cmjc(M, dsu).failed_checks()}
    return failed & {"delta-spectrum", "sigma-spectrum"}


class TestSpectrumCertificate:
    """verify_cmjc certifies minpoly(Delta) and minpoly(Sigma) by
    evaluation: p(A) = 0, (p / r)(A) != 0 for each listed factor r, and
    for Sigma real entries and coefficients with negative quadratic
    discriminants, so that every r is irreducible over the entries."""

    # X - 2, X^2 - 2 (real pair) and X^2 + 1 (complex pair): Delta has
    # eigenvalues 2, sqrt(2), 1 and Sigma has 1, -1 and X^2 + 1
    M = companion(((X - 2 * ONE) * (X * X - 2 * ONE) * (X * X + ONE)).monic())

    def _dsu(self):
        dsu = complete_mjc(self.M)
        assert len(dsu.delta_spectrum) == 3
        assert dsu.sigma_linear == (MultiQuad(1), MultiQuad(-1))
        assert dsu.sigma_quadratics == (Polynomial((MultiQuad(1), MultiQuad(0), MultiQuad(1))),)
        return dsu

    def test_honest_result_passes(self):
        assert _spectrum_failures(self.M, self._dsu()) == set()

    @pytest.mark.parametrize("field", ["delta_spectrum", "sigma_linear"])
    def test_dropped_value_fails(self, field):
        dsu = self._dsu()
        bad = replace(dsu, **{field: getattr(dsu, field)[1:]})
        assert _spectrum_failures(self.M, bad) == {field.split("_")[0] + "-spectrum"}

    @pytest.mark.parametrize("field", ["delta_spectrum", "sigma_linear"])
    def test_extra_value_fails(self, field):
        dsu = self._dsu()
        bad = replace(dsu, **{field: getattr(dsu, field) + (MultiQuad(7),)})
        assert _spectrum_failures(self.M, bad) == {field.split("_")[0] + "-spectrum"}

    @pytest.mark.parametrize("field", ["delta_spectrum", "sigma_linear"])
    def test_duplicated_value_fails(self, field):
        dsu = self._dsu()
        values = getattr(dsu, field)
        bad = replace(dsu, **{field: values + values[:1]})
        assert _spectrum_failures(self.M, bad) == {field.split("_")[0] + "-spectrum"}

    def test_extra_quadratic_fails(self):
        dsu = self._dsu()
        quad = Polynomial((MultiQuad(1), MultiQuad(1), MultiQuad(1)))
        bad = replace(dsu, sigma_quadratics=dsu.sigma_quadratics + (quad,))
        assert _spectrum_failures(self.M, bad) == {"sigma-spectrum"}

    def test_quadratic_with_positive_discriminant_fails(self):
        # (X - 1)(X + 1) listed as one factor: p(Sigma) = 0 and each
        # cofactor is nonzero, but the factor is reducible, so the
        # evaluation alone would not prove minpoly = p
        dsu = self._dsu()
        one = MultiQuad(1)
        reducible = Polynomial((MultiQuad(-1), MultiQuad(0), one))
        bad = replace(dsu, sigma_linear=(), sigma_quadratics=dsu.sigma_quadratics + (reducible,))
        assert _spectrum_failures(self.M, bad) == {"sigma-spectrum"}
        # the same, with (X + 1)(X - 5): p(Sigma) = 0 and no cofactor
        # vanishes, yet the minimal polynomial has no root 5
        spurious = Polynomial((MultiQuad(-5), MultiQuad(-4), one))
        bad = replace(dsu, sigma_linear=(one,), sigma_quadratics=dsu.sigma_quadratics + (spurious,))
        assert _spectrum_failures(self.M, bad) == {"sigma-spectrum"}

    def test_non_real_sigma_entry_fails(self):
        # Sigma = i I has minimal polynomial X - i, yet X^2 + 1 vanishes
        # at it and has no proper cofactor: only the realness test
        # rejects the listing
        M = companion(X * X + ONE)
        dsu = complete_mjc(M)
        assert (dsu.sigma_linear, len(dsu.sigma_quadratics)) == ((), 1)
        bad = replace(dsu, sigma=DenseMatrix.scaled_identity(2, I_SQRT))
        assert "sigma-spectrum" in _spectrum_failures(M, bad)

    def test_non_real_coefficient_fails(self):
        # Sigma = I and the listing (X - 1)(X - i) = X^2 - (1 + i) X + i:
        # it vanishes at I with no proper cofactor, but its coefficients
        # are not real, so it is not irreducible over the entries
        M = DenseMatrix([[2, 0], [0, 3]])
        dsu = complete_mjc(M)
        assert dsu.sigma_linear == (MultiQuad(1),)
        quad = Polynomial((I_SQRT, -MultiQuad(1) - I_SQRT, MultiQuad(1)))
        bad = replace(dsu, sigma_linear=(), sigma_quadratics=(quad,))
        assert _spectrum_failures(M, bad) == {"sigma-spectrum"}

    @pytest.mark.parametrize(
        "listing",
        [(1, 2, -3), (1, 1, 2, -3), (1, 2), (1, 1, 1, 2, -3), (1, 2, -3, 5), (2, -3)],
    )
    def test_agrees_with_the_krylov_minimal_polynomial(self, listing):
        # a Delta slot holding a rational, non-semisimple matrix with
        # minimal polynomial (X - 1)^2 (X - 2)(X + 3): the certificate
        # holds exactly when the listed product is that polynomial
        blocks = [(X - ONE) ** 2, X - ONE, X - 2 * ONE, X + 3 * ONE]
        A = blocks_matrix(blocks, "cert").matrix
        dsu = self._dsu()
        values = tuple(MultiQuad(v) for v in listing)
        expected = ONE
        for v in listing:
            expected = expected * (X - v * ONE)
        candidate = replace(dsu, delta=A.as_multiquad(), delta_spectrum=values)
        certified = "delta-spectrum" not in _spectrum_failures(A, candidate)
        assert certified == (minimal_polynomial(A) == expected)
        assert certified == (listing == (1, 1, 2, -3))


class TestSvd:
    def test_all_ones_against_gram_oracle(self):
        # reference: gram = [[2,2],[2,2]] has eigenvalues 4 and 0; the
        # rank-one projector is all-ones/2 and A P / sigma = all-ones/2
        A = DenseMatrix([[1, 1], [1, 1]])
        gram_rows = frac_matmul([[1, 1], [1, 1]], [[1, 1], [1, 1]])
        assert gram_rows == [[2, 2], [2, 2]]
        result = svd(A)
        assert [t.sigma for t in result.terms] == [MultiQuad(2)]
        half = Fraction(1, 2)
        assert result.terms[0].matrix == mqm(DenseMatrix([[half, half], [half, half]]))
        report = verify_svd_system(A, result)
        assert report.passed, str(report)

    def test_rank_deficient_and_nilpotent_inputs(self):
        for A in (
            DenseMatrix([[0, 1], [0, 0]]),
            DenseMatrix([[1, 1, 0], [0, 0, 0], [1, 1, 0]]),
        ):
            result = svd(A)
            total = sum((t.matrix * t.sigma for t in result.terms), mqm(DenseMatrix.zeros(A.n)))
            assert total == mqm(A)
            assert len(result.terms) >= 1

    def test_random_gram_friendly_family(self):
        for k in range(20):
            A = random_gram_friendly(f"rsvd-{k}").matrix
            result = svd(A)
            n = A.n
            total = sum((t.matrix * t.sigma for t in result.terms), mqm(DenseMatrix.zeros(n)))
            assert total == mqm(A)
            values = result.singular_values
            for i in range(len(values) - 1):
                assert mq_sign(values[i] - values[i + 1]) == 1
            gram = A.transpose() @ A
            # sigma_i * A_i = A P_i has rational values; rank needs a rational matrix
            scaled = [t.matrix * t.sigma for t in result.terms]
            assert all(S.labels == (1,) for S in scaled)
            term_ranks = [rank(DenseMatrix([[e.rational_part for e in r] for r in S.rows])) for S in scaled]
            assert sum(term_ranks) == rank(gram)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrix):
            svd(DenseMatrix.zeros(2))

    def test_irrational_singular_values_rejected(self):
        # gram of [[1,1],[0,1]] has minimal polynomial X^2 - 3X + 1,
        # irreducible over Q, so the squared singular values are not
        # rational and the contract refuses
        with pytest.raises(SingularValuesNotRational):
            svd(DenseMatrix([[1, 1], [0, 1]]))

    def test_transpose_terms_relate(self):
        A = DenseMatrix([[3, 0], [0, -2]])
        result = svd(A)
        for term in result.terms:
            B = term.matrix
            # each term is a partial isometry scaled decision: B B^T B = B
            assert B @ B.transpose() @ B == B


class TestSvdUniqueness:
    def test_canonical_passes(self):
        A = DenseMatrix([[3, 0], [0, -2]])
        assert verify_svd_uniqueness(A, svd(A)).passed

    def test_candidate_is_verified_once(self, monkeypatch):
        # the canonical terms are rebuilt unverified: the only axiom
        # check is the candidate's, and the comparison is exact
        import mindec.realclosed as realclosed_mod

        A = random_gram_friendly("uniqueness", 5).matrix
        result = svd(A)
        real = realclosed_mod.verify_svd_system
        checked = []

        def recording(matrix, candidate):
            checked.append(candidate)
            return real(matrix, candidate)

        monkeypatch.setattr(realclosed_mod, "verify_svd_system", recording)
        report = verify_svd_uniqueness(A, result)
        assert report.passed and checked == [result]
        assert report.checks[-1].name == "canonical-equality"

    def test_swap_fails_ordering(self):
        A = DenseMatrix([[3, 0], [0, -2]])
        result = svd(A)
        swapped = [
            (result.terms[1].sigma, result.terms[1].matrix),
            (result.terms[0].sigma, result.terms[0].matrix),
        ]
        report = verify_svd_uniqueness(A, swapped)
        assert not report.passed
        assert "ordering" in {c.name for c in report.failed_checks()}

    def test_rescaled_term_fails_partial_isometry(self):
        # scaling the matrix factor up and the value down preserves the
        # product but breaks B B^T B = B specifically
        A = DenseMatrix([[1, 1], [1, 1]])
        base = svd(A)
        tampered = [
            (
                base.terms[0].sigma * MultiQuad(Fraction(1, 2)),
                base.terms[0].matrix * MultiQuad(2),
            )
        ]
        report = verify_svd_uniqueness(A, tampered)
        assert not report.passed
        fired = {c.name for c in report.failed_checks()}
        assert "partial-isometry" in fired, fired
        assert "reassembly" not in fired

    def test_dropped_term_fails_reassembly(self):
        A = DenseMatrix([[3, 0], [0, -2]])
        base = svd(A)
        report = verify_svd_uniqueness(A, [(base.terms[0].sigma, base.terms[0].matrix)])
        assert not report.passed
        assert "reassembly" in {c.name for c in report.failed_checks()}


class TestSymmetricSpectral:
    def test_symmetric_matrix_passes(self):
        A = DenseMatrix([[2, 1], [1, 2]])
        report = symmetric_spectral_check(A)
        assert report.passed
        assert minimal_polynomial(A).degree == 2

    def test_rotation_is_normal(self):
        report = symmetric_spectral_check(DenseMatrix([[0, -1], [1, 0]]))
        assert report.passed
        assert len(report.checks) == 2

    def test_non_normal_skipped(self):
        report = symmetric_spectral_check(DenseMatrix([[1, 1], [0, 1]]))
        assert report.passed
        assert report.checks[0].witness == "skipped"
