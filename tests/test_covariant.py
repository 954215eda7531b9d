"""Rational covariant witnesses, the generic covariants they agree
with, and concrete projectors."""

from fractions import Fraction

import pytest
from oracles import fraction_rank

import mindec.covariant as covariant_mod
from mindec.covariant import (
    build_covariant_system,
    materialize_projectors,
    split_covariants_over_extension,
    trace_witnesses,
    verify_system,
)
from mindec.decompose import sn_decompose, verify_sn
from mindec.errors import (
    DoesNotSplit,
    PartitionOfUnityFailure,
    SystemMatrixMismatch,
)
from mindec.factor import factor_rational
from mindec.generator import IRREDUCIBLE_POOL, blocks_matrix
from mindec.matfun import _factor_slices
from mindec.matrix import DenseMatrix, companion, horner_eval
from mindec.poly import Polynomial, X, hasse_derivative, trace_coeffwise
from mindec.scalar import MultiQuad, mq_conjugate


class TestSqrt2System:
    """Covariant data of the irreducible quadratic X^2 - 2, checked
    against hand-expanded Bezout cofactors."""

    def setup_method(self):
        self.system = build_covariant_system(factor_rational(Polynomial((-2, 0, 1))))
        self.gen = self.system.generics[0]
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
        M = companion(m).as_multiquad()
        system = build_covariant_system(factor_rational(m))
        for lam, cov in split_covariants_over_extension(system, 0, 2):
            P = horner_eval(cov, M)
            assert P @ P == P
            assert M @ P == P * lam  # projects onto the lam eigenspace

    def test_complex_split_conjugate_symmetry(self):
        system = build_covariant_system(factor_rational(Polynomial((1, 0, 1))))
        (lam_p, cov_p), (lam_m, cov_m) = split_covariants_over_extension(system, 0, -1)
        assert lam_m == mq_conjugate(lam_p)
        assert tuple(mq_conjugate(c) for c in cov_p.coeffs) == cov_m.coeffs

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


def _generic_root_slices(system, f):
    """Semisimple and nilpotent slices of f through the generic
    covariants: Tr(f(Y) C_i) and Tr(sum_{0 < k < mu_i} Phi_k(Y)
    (X - Y)^k C_i), Phi_k the k-th Hasse derivative, reduced mod m."""
    m = system.min_poly
    sems, nils = [], []
    for gen in system.generics:
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
            assert system._generics == {}  # nothing generic built yet
            for i in range(system.r):
                e_i, s_i = trace_witnesses(system.generic(i))
                assert (system.e_polys[i], system.s_polys[i]) == (e_i, s_i)
                assert system.n_polys[i] == X * e_i - s_i
            f = Polynomial(coeffs)
            assert _factor_slices(system, f) == _generic_root_slices(system, f)

        check()

    def test_generics_are_built_once_per_factor(self, monkeypatch):
        system = build_covariant_system(factor_rational(X * (X * X - Polynomial((2,)))))
        calls = []
        honest = covariant_mod.build_generic_covariant

        def counting(factored, index):
            calls.append(index)
            return honest(factored, index)

        monkeypatch.setattr(covariant_mod, "build_generic_covariant", counting)
        assert system.generic(1) is system.generic(1)
        assert calls == [1]
        assert [g.index for g in system.generics] == [0, 1]
        assert calls == [1, 0]
