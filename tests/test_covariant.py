"""Rational covariant witnesses, the generic covariants they agree
with, and concrete projectors."""

import dataclasses
import json
from fractions import Fraction

import pytest
from oracles import frac_covariant_witnesses, fraction_rank

import mindec.covariant as covariant_mod
import mindec.oracles as oracles_mod
from mindec.covariant import build_covariant_system, materialize_projectors, verify_system
from mindec.decompose import sn_decompose, system_of, verify_sn
from mindec.errors import (
    DoesNotSplit,
    InvariantViolation,
    PartitionOfUnityFailure,
    SystemMatrixMismatch,
)
from mindec.factor import FactoredMinPoly, factor_rational
from mindec.generator import IRREDUCIBLE_POOL, blocks_matrix
from mindec.matfun import f_equivalence_classes
from mindec.matrix import DenseMatrix, companion, horner_eval
from mindec.oracles import (
    build_generic_covariant,
    fine_of_image,
    hasse_derivative,
    split_covariants_over_extension,
    trace_coeffwise,
    trace_witnesses,
)
from mindec.poly import Polynomial, X
from mindec.scalar import MultiQuad
from mindec.selftest import run_cli
from mindec.serialize import parse_poly_expression


class TestSqrt2System:
    """Covariant data of the irreducible quadratic X^2 - 2, checked
    against hand-expanded Bezout cofactors."""

    def setup_method(self):
        self.system = build_covariant_system(factor_rational(Polynomial((-2, 0, 1))))
        self.gen = build_generic_covariant(self.system.factored, 0)
        self.ring = self.gen.ring
        self.y = self.ring.gen()
        self.one = self.ring.one()

    def test_complement_is_x_plus_y(self):
        assert self.gen.complement == Polynomial((self.y, self.one))

    def test_bezout_is_quarter_y(self):
        assert self.gen.bezout == Polynomial((self.y * Fraction(1, 4),))

    def test_bezout_identity_by_expansion(self):
        # (Y/4)(X+Y) + (-Y/4)(X-Y) = Y^2/2 = 1: expand both products and
        # compare coefficient lists instead of trusting ext_gcd
        quarter_y = self.y * Fraction(1, 4)
        x_plus_y = Polynomial((self.y, self.one))
        x_minus_y = Polynomial((-self.y, self.one))
        lhs = Polynomial((quarter_y,)) * x_plus_y + Polynomial((-quarter_y,)) * x_minus_y
        assert lhs == Polynomial((self.one,))

    def test_covariant_is_yx_plus_2_over_4(self):
        expected = Polynomial(
            (self.ring.embed(Fraction(1, 2)), self.y * Fraction(1, 4))
        )
        assert self.gen.covariant == expected

    def test_rational_traces(self):
        assert self.system.e_polys == (Polynomial((1,)),)
        assert self.system.s_polys == (X,)
        assert self.system.n_polys == (Polynomial(),)


class TestProjectors:
    def test_companion_mixed_system_ranks(self):
        # eigenprojector ranks checked by plain-Fraction elimination
        m = (Polynomial((-2, 0, 1)) * Polynomial((-1, 1))).monic()
        M = companion(m)
        system = build_covariant_system(factor_rational(m))
        projectors = materialize_projectors(system, M)
        assert len(projectors) == 2
        by_factor = dict(zip([f for f, _ in system.factored.factors], projectors))
        quad = by_factor[Polynomial((-2, 0, 1))]
        lin = by_factor[Polynomial((-1, 1))]
        assert fraction_rank([list(r) for r in quad.rows]) == 2
        assert fraction_rank([list(r) for r in lin.rows]) == 1
        for P in projectors:
            assert P @ P == P
        assert projectors[0] + projectors[1] == DenseMatrix.identity(3)
        assert (quad @ lin).is_zero

    def test_wrong_matrix_rejected(self):
        system = build_covariant_system(factor_rational(Polynomial((-2, 0, 1))))
        with pytest.raises(SystemMatrixMismatch):
            materialize_projectors(system, DenseMatrix.identity(2))

    def test_verify_system_random_block_matrix(self):
        m = (Polynomial((1, 0, 1)) * Polynomial((-3, 1)) ** 2).monic()
        M = companion(m)
        system = build_covariant_system(factor_rational(m))
        report = verify_system(system, M)
        assert report.passed, str(report)

    def test_idempotent_projectors_that_overlap_fail_verify_system(self):
        # at M = diag(0, 1, 2): E_0 = 1 - X(X-1)/2 projects onto the
        # eigenvalues {0, 1} and E_1 = X(2 - X) onto {1}; both are
        # idempotent and their ranks sum to n, but E_0 + E_1 != 1 and
        # E_0(M) E_1(M) = E_1(M)
        M = DenseMatrix([[0, 0, 0], [0, 1, 0], [0, 0, 2]])
        half = Polynomial((Fraction(1, 2),))
        e_polys = (Polynomial((1,)) - half * X * (X - Polynomial((1,))), X * (2 - X))
        honest = build_covariant_system(factor_rational(X * (X - 1) * (X - 2)))
        system = dataclasses.replace(honest, e_polys=e_polys)
        projectors = materialize_projectors(system, M)
        assert all(P @ P == P for P in projectors)
        assert sum(fraction_rank(P.rows) for P in projectors) == M.n
        report = verify_system(system, M)
        assert {c.name for c in report.failed_checks()} == {
            "partition-of-unity",
            "idempotent-orthogonal",
        }
        assert verify_system(honest, M).passed

    @pytest.mark.parametrize(
        "blocks",
        ["X-1;X-2;X-3", "(X^2-2)^3;(X-3)^3;X^3-2;X^2+X+1;X^3-2", "X^2+1;(X-1)^2;X"],
    )
    def test_honest_printed_polynomials_pass(self, blocks):
        M = blocks_matrix([parse_poly_expression(b) for b in blocks.split(";")], "tie").matrix
        assert verify_system(system_of(M), M).passed

    def test_swapped_s_polys_raise(self):
        # every projector check passes, since the E_i are untouched, but
        # S_0 is no longer E_0 * s mod m
        M = DenseMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        swapped = dataclasses.replace(system_of(M), s_polys=system_of(M).s_polys[::-1])
        with pytest.raises(InvariantViolation, match="S_0 is not E_0"):
            verify_system(swapped, M)

    def test_a_multiple_of_the_minimal_polynomial_raises(self):
        # m (X - 5) annihilates M too, so the projectors are evaluated and
        # pass; the printed min_poly is not M's own
        M = DenseMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        honest = system_of(M)
        padded = dataclasses.replace(honest, min_poly=honest.min_poly * (X - 5))
        with pytest.raises(InvariantViolation, match="not M's minimal polynomial"):
            verify_system(padded, M)

    def test_covariants_check_exits_4_on_swapped_s_polys(self, monkeypatch):
        import mindec.cli as cli_mod

        honest = cli_mod.system_of
        monkeypatch.setattr(
            cli_mod,
            "system_of",
            lambda M: dataclasses.replace(honest(M), s_polys=honest(M).s_polys[::-1]),
        )
        doc = json.dumps({"entries": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]})
        code, out, err = run_cli(["covariants", "--check"], input_text=doc)
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == "InvariantViolation"
        assert run_cli(["covariants"], input_text=doc)[0] == 0


class TestSplitCovariants:
    def test_sqrt2_split_frozen_values(self):
        # substitute Y = +-sqrt(2) into (YX+2)/4: the +sqrt(2) branch is
        # sqrt(2)/4 X + 1/2 and the branches sum to E = 1
        system = build_covariant_system(factor_rational(Polynomial((-2, 0, 1))))
        (lam_p, cov_p), (lam_m, cov_m) = split_covariants_over_extension(system, 0, 2)
        root = MultiQuad({2: 1})
        assert lam_p == root and lam_m == -root
        assert cov_p == Polynomial(
            (MultiQuad(Fraction(1, 2)), root * Fraction(1, 4))
        )
        assert cov_m == Polynomial(
            (MultiQuad(Fraction(1, 2)), -root * Fraction(1, 4))
        )
        assert cov_p + cov_m == Polynomial((MultiQuad(1),))

    def test_split_projectors_idempotent_at_matrix(self):
        m = Polynomial((-2, 0, 1))
        M = companion(m)
        system = build_covariant_system(factor_rational(m))
        for lam, cov in split_covariants_over_extension(system, 0, 2):
            P = horner_eval(cov, M)
            assert P @ P == P
            assert M @ P == P * lam  # projects onto the lam eigenspace

    def test_complex_split_conjugate_symmetry(self):
        system = build_covariant_system(factor_rational(Polynomial((1, 0, 1))))
        (lam_p, cov_p), (lam_m, cov_m) = split_covariants_over_extension(system, 0, -1)
        assert lam_m == lam_p.conjugate()
        assert tuple(c.conjugate() for c in cov_p.coeffs) == cov_m.coeffs

    def test_wrong_radicand_rejected(self):
        system = build_covariant_system(factor_rational(Polynomial((-2, 0, 1))))
        with pytest.raises(DoesNotSplit):
            split_covariants_over_extension(system, 0, 3)

    def test_linear_factor_rejected(self):
        system = build_covariant_system(factor_rational(Polynomial((-3, 1))))
        with pytest.raises(DoesNotSplit):
            split_covariants_over_extension(system, 0, 1)


class TestSabotage:
    def test_corrupted_crt_cofactor_fails_partition_of_unity(self, monkeypatch):
        # a wrong inverse of G_i mod q_i must be caught at build time by
        # the sum check
        honest = covariant_mod.ext_gcd

        def dishonest(a, b):
            g, s, t = honest(a, b)
            return g, s + Polynomial((1,)), t

        monkeypatch.setattr(covariant_mod, "ext_gcd", dishonest)
        with pytest.raises(PartitionOfUnityFailure):
            build_covariant_system(factor_rational(Polynomial((-2, 0, 1))))

    def test_corrupted_linear_reciprocal_fails_partition_of_unity(self, monkeypatch):
        # for q_i = X - a the inverse is the reciprocal of G_i(a), taken
        # without an extended gcd; a wrong one is caught the same way
        honest = covariant_mod.inverse_mod

        def dishonest(g, q):
            u = honest(g, q)
            return u * 2 if q.degree == 1 else u

        monkeypatch.setattr(covariant_mod, "inverse_mod", dishonest)
        one = Polynomial((1,))
        with pytest.raises(PartitionOfUnityFailure):
            build_covariant_system(factor_rational((X - one) * (X + one)))

    @pytest.mark.parametrize("mu", [1, 2])
    def test_repeated_linear_factor_fails(self, mu):
        # a hand-built factorization listing X - 1 twice: the complement
        # of the first copy vanishes at 1, so it has no inverse
        x_minus_1 = X - Polynomial((1,))
        factored = FactoredMinPoly(((x_minus_1, 1), (x_minus_1, mu)))
        with pytest.raises(PartitionOfUnityFailure):
            build_covariant_system(factored)

    def test_corrupted_root_lift_fails_verify_sn(self, monkeypatch):
        # z_i still agrees with X mod m_i, so the E_i sum to 1 and the
        # build passes; the Newton oracle on the matrix catches S
        honest = covariant_mod.root_lift

        def dishonest(m_i, mu_i):
            z = honest(m_i, mu_i)
            return z + m_i if mu_i > 1 else z

        monkeypatch.setattr(covariant_mod, "root_lift", dishonest)
        one = Polynomial((1,))
        # derogatory: (X-1)^2 and X-1 share the eigenvalue 1
        M = blocks_matrix([(X - one) ** 2, X - one, X * X - 2 * one], "sabotage").matrix
        report = verify_sn(M, sn_decompose(M))
        assert not report.passed
        assert "newton-agreement" in {c.name for c in report.failed_checks()}


def _as_lists(system):
    return [
        (list(e.coeffs), list(s.coeffs), list(n.coeffs))
        for e, s, n in zip(system.e_polys, system.s_polys, system.n_polys)
    ]


def _reference(factored):
    return frac_covariant_witnesses([(list(f.coeffs), mu) for f, mu in factored.factors])


QUADRATIC_OR_CUBIC = tuple(p for p in IRREDUCIBLE_POOL if p.degree >= 2)


class TestPerFactorInverse:
    """build_covariant_system inverts G_i mod q_i in Q[X]/(q_i); the
    witnesses equal those of one extended gcd of the whole G_i with
    q_i (tests/oracles.py), on every kind of factor."""

    ALL_KINDS = FactoredMinPoly(
        (
            (X - Polynomial((Fraction(1, 2),)), 1),  # linear, mu = 1
            (X + Polynomial((3,)), 2),  # linear, mu > 1
            (X * X - Polynomial((2,)), 2),  # quadratic
            (X**3 - X - Polynomial((1,)), 1),  # cubic
            (X, 2),  # the zero class
        )
    )

    def test_every_kind_of_factor_matches_the_reference(self):
        system = build_covariant_system(self.ALL_KINDS)
        assert _as_lists(system) == _reference(self.ALL_KINDS)

    def test_matches_the_reference_on_random_factorizations(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        root = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)

        @st.composite
        def factorizations(draw):
            roots = draw(st.lists(root, max_size=3, unique=True))
            others = draw(st.lists(st.sampled_from(QUADRATIC_OR_CUBIC), max_size=2, unique=True))
            irreducibles = [X - Polynomial((a,)) for a in roots] + others
            if draw(st.booleans()) or not irreducibles:
                irreducibles.append(X)  # ordered last, as factor_rational does
            mults = st.integers(1, 3)
            return FactoredMinPoly(tuple((f, draw(mults)) for f in irreducibles))

        @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
        @hypothesis.given(factorizations())
        def check(factored):
            assert _as_lists(build_covariant_system(factored)) == _reference(factored)

        check()

    def test_extended_gcd_only_for_factors_of_degree_two_and_more(self, monkeypatch):
        moduli = []
        honest = covariant_mod.ext_gcd

        def counting(a, b):
            moduli.append(b)
            return honest(a, b)

        monkeypatch.setattr(covariant_mod, "ext_gcd", counting)
        linear = FactoredMinPoly(((X - Polynomial((1,)), 1), (X + Polynomial((2,)), 1), (X, 1)))
        build_covariant_system(linear)
        assert moduli == []
        build_covariant_system(self.ALL_KINDS)
        # one inverse per q_i of degree >= 2, and one per Newton step of
        # the root lift when mu_i > 1 (one step each for mu_i = 2)
        powers = [f**mu for f, mu in self.ALL_KINDS.factors if (f**mu).degree >= 2]
        lifts = [f**mu for f, mu in self.ALL_KINDS.factors if mu > 1]
        assert all(b.degree >= 2 for b in moduli)
        assert sorted(moduli, key=str) == sorted(powers + lifts, key=str)


class TestSemisimpleWitness:
    """s = sum(S_i) is summed once, by the build, and sn_decompose reads it."""

    def test_s_poly_is_the_sum_of_the_s_i(self):
        system = build_covariant_system(TestPerFactorInverse.ALL_KINDS)
        assert system.s_poly == sum(system.s_polys, Polynomial())
        assert system.s_poly.degree < system.min_poly.degree

    @pytest.mark.parametrize(
        "blocks",
        [
            ("X^2-2", "(X-3)^2"),
            ("(X^2-2)^2", "(X-3)^3", "X^3-2", "X^2+X+1", "(X-3)^2"),
            ("X-5",),
            ("X^2", "X-1"),
        ],
    )
    def test_sn_decompose_reads_it(self, blocks):
        M = blocks_matrix([parse_poly_expression(b) for b in blocks], "witness").matrix
        sn = sn_decompose(M)
        assert sn.s_poly == sum(sn.system.s_polys, Polynomial()) == sn.system.s_poly
        assert horner_eval(sn.s_poly, M) == sn.semisimple


def _generic_root_slices(system, f):
    """Semisimple and nilpotent slices of f through the generic
    covariants: Tr(f(Y) C_i) and Tr(sum_{0 < k < mu_i} Phi_k(Y)
    (X - Y)^k C_i), Phi_k the k-th Hasse derivative, reduced mod m."""
    m = system.min_poly
    sems, nils = [], []
    for i in range(system.r):
        gen = build_generic_covariant(system.factored, i)
        y = gen.ring.gen()
        prod = f(y) * gen.covariant
        sems.append(trace_coeffwise(prod) % m if prod else Polynomial())
        x_minus_y = Polynomial((-y, gen.ring.one()))
        acc = Polynomial()
        step = x_minus_y
        for k in range(1, gen.multiplicity):
            acc = acc + hasse_derivative(f, k)(y) * step * gen.covariant
            step = step * x_minus_y
        nils.append(trace_coeffwise(acc) % m if acc else Polynomial())
    return sems, nils


class TestGenericRootOracle:
    """The rational construction against the generic-root one it
    replaced on the hot path."""

    def test_rational_witnesses_and_slices_equal_generic_traces(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        small_rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)

        @st.composite
        def factorizations(draw):
            picks = draw(
                st.lists(
                    st.sampled_from(IRREDUCIBLE_POOL + (X,)),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
            m = Polynomial((1,))
            for p in picks:
                m = m * p ** draw(st.integers(1, 3))
            return factor_rational(m)

        @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
        @hypothesis.given(factorizations(), st.lists(small_rational, max_size=6))
        def check(factored, coeffs):
            system = build_covariant_system(factored)
            for i in range(system.r):
                e_i, s_i = trace_witnesses(build_generic_covariant(factored, i))
                assert (system.e_polys[i], system.s_polys[i]) == (e_i, s_i)
                assert system.n_polys[i] == X * e_i - s_i
            # the class parts of f(M) are the generic-root slice sums at M
            f = Polynomial(coeffs)
            M = companion(system.min_poly)
            sems, nils = _generic_root_slices(system, f)
            fd = fine_of_image(f, M)
            classes = f_equivalence_classes(f, factored)
            assert len(fd.components) == len(classes)
            for comp, cls in zip(fd.components, classes):
                sem = sum((sems[i] for i in cls.indices), Polynomial())
                nil = sum((nils[i] for i in cls.indices), Polynomial())
                assert comp.semisimple == horner_eval(sem, M)
                assert comp.nilpotent == horner_eval(nil, M)

        check()

    def test_split_builds_only_its_own_factor(self, monkeypatch):
        # the system keeps no generic covariant: each split builds the
        # one of its factor, and nothing else
        system = build_covariant_system(factor_rational(X * (X * X - Polynomial((2,)))))
        calls = []
        honest = oracles_mod.build_generic_covariant

        def counting(factored, index):
            calls.append(index)
            return honest(factored, index)

        monkeypatch.setattr(oracles_mod, "build_generic_covariant", counting)
        assert calls == []
        split_covariants_over_extension(system, 0, 2)
        split_covariants_over_extension(system, 0, 2)
        assert calls == [0, 0]
        with pytest.raises(DoesNotSplit):
            split_covariants_over_extension(system, 1, 2)
        assert calls == [0, 0, 1]
