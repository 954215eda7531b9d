"""Rational factorization driver, including recombination stress cases."""

import random
import time
from fractions import Fraction

import pytest

from mindec import factor
from mindec.errors import RecombinationBudgetExceeded, ZeroPolynomial
from mindec.factor import FactoredMinPoly, factor_rational
from mindec.poly import Polynomial, X


def poly_from_roots(roots):
    p = Polynomial((1,))
    for r in roots:
        p = p * (X - Polynomial((Fraction(r),)))
    return p


def swinnerton_dyer(radicands, shift=0):
    """prod (X + shift - (+-sqrt(a1) +- ... +- sqrt(ak))): irreducible
    over Q, yet a product of factors of degree <= 2 modulo every prime."""
    p = X + Polynomial((shift,))
    for a in radicands:
        # p(X + s) = A + s*B with s^2 = a, by Horner on (A + s*B)*(X + s)
        A = B = Polynomial(())
        for c in reversed(p.coeffs):
            A, B = A * X + B * a + Polynomial((c,)), B * X + A
        p = A * A - B * B * a
    return p


class TestBasicFactorizations:
    def test_distinct_integer_roots(self):
        factored = factor_rational(poly_from_roots([4, 9]))
        assert factored.factors == (
            (X - Polynomial((9,)), 1),
            (X - Polynomial((4,)), 1),
        )

    def test_rational_roots_with_content(self):
        # 24X^4 - 50X^3 + 35X^2 - 10X + 1 = 24(X-1)(X-1/2)(X-1/3)(X-1/4)
        p = Polynomial((1, -10, 35, -50, 24))
        factors = [f for f, _ in factor_rational(p).factors]
        expected_roots = {Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)}
        assert {-f.coefficient(0) for f in factors} == expected_roots

    def test_repeated_factors_carry_multiplicity(self):
        p = (Polynomial((-2, 0, 1)) ** 2 * (X - Polynomial((1,)))).monic()
        factored = factor_rational(p)
        assert dict(factored.factors) == {
            Polynomial((-2, 0, 1)): 2,
            X - Polynomial((1,)): 1,
        }

    def test_zero_factor_isolated(self):
        p = X**3 * Polynomial((-2, 0, 1))
        factored = factor_rational(p)
        assert (X, 3) in factored.factors
        assert factored.factors[-1][0] == X  # zero factor sorts last

    def test_constant_polynomial_has_no_factors(self):
        assert factor_rational(Polynomial((5,))).factors == ()

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            factor_rational(Polynomial())


class TestHardSplits:
    def test_swinnerton_dyer_quartic_is_irreducible(self):
        # X^4 - 10X^2 + 1 (minimal polynomial of sqrt(2)+sqrt(3)) is
        # irreducible over Q but splits modulo every prime, so the
        # recombination stage must reject all proper subsets
        p = Polynomial((1, 0, -10, 0, 1))
        assert factor_rational(p).factors == ((p, 1),)

    def test_product_of_conjugate_quadratics(self):
        a = Polynomial((-2, -2, 1))  # X^2 - 2X - 2, roots 1 +- sqrt(3)
        b = Polynomial((-1, -2, 1))  # X^2 - 2X - 1, roots 1 +- sqrt(2)
        factored = factor_rational(a * b)
        assert dict(factored.factors) == {a: 1, b: 1}

    def test_dense_grid_of_roots(self):
        roots = [-3, -2, -1, 1, 2, 3]
        factored = factor_rational(poly_from_roots(roots))
        assert len(factored.factors) == 6
        assert all(mult == 1 for _, mult in factored.factors)
        assert {-f.coefficient(0) for f, _ in factored.factors} == {
            Fraction(r) for r in roots
        }

    def test_cyclotomic_like_split(self):
        # X^6 - 1 = (X-1)(X+1)(X^2+X+1)(X^2-X+1)
        p = X**6 - Polynomial((1,))
        factors = dict(factor_rational(p).factors)
        assert factors == {
            Polynomial((-1, 1)): 1,
            Polynomial((1, 1)): 1,
            Polynomial((1, 1, 1)): 1,
            Polynomial((1, -1, 1)): 1,
        }

    def test_random_reassembly(self):
        pool = [
            Polynomial((-1, 1)),
            Polynomial((2, 1)),
            Polynomial((1, 0, 1)),
            Polynomial((-2, 0, 1)),
            Polynomial((1, 1, 1)),
            Polynomial((-2, 0, 0, 1)),
        ]
        rng = random.Random("reassemble")
        for _ in range(30):
            chosen = rng.sample(pool, rng.randint(1, 4))
            mults = [rng.randint(1, 2) for _ in chosen]
            product = Polynomial((1,))
            for f, m in zip(chosen, mults):
                product = product * f**m
            factored = factor_rational(product)
            assert dict(factored.factors) == dict(zip(chosen, mults))
            rebuilt = Polynomial((1,))
            for f, m in factored.factors:
                rebuilt = rebuilt * f**m
            assert rebuilt == product.monic()


def _eisenstein_at_3(roots_mod_19):
    """Monic degree-9 integer polynomial congruent to prod(X - a) mod 19,
    with every lower coefficient divisible by 3*5*7*11*13*17 and a
    constant term not divisible by 9: irreducible (Eisenstein at 3) and
    congruent to X^9 modulo every odd prime below 19."""
    mod19 = poly_from_roots(roots_mod_19)
    K = 3 * 5 * 7 * 11 * 13 * 17
    coeffs = [K * (int(c) * pow(K, -1, 19) % 19) for c in mod19.coeffs[:-1]]
    if coeffs[0] % 9 == 0:
        coeffs[0] += 19 * K
    return Polynomial(coeffs + [1])


class TestExhaustiveRecombination:
    def test_two_factors_of_nine_modular_factors_each(self):
        # at 19, the first usable prime, A*B splits into 18 linear
        # factors and each true factor takes 9 of them: a width-limited
        # search returns A*B as one "irreducible" factor, and an
        # exhaustive one needs over 10^5 subset trials.  The prime scan
        # moves on to 23, where 5 factors leave at most 15 trials.
        A = _eisenstein_at_3(range(0, 9))
        B = _eisenstein_at_3(range(9, 18))
        t0 = time.perf_counter()
        assert dict(factor_rational(A * B).factors) == {A: 1, B: 1}
        assert time.perf_counter() - t0 < 1.0


SD16 = swinnerton_dyer([2, 3, 5, 7])
SD16_SHIFTED = swinnerton_dyer([2, 3, 5, 7], 1)
SD32 = swinnerton_dyer([2, 3, 5, 7, 11])


class TestRecombinationBudget:
    def test_swinnerton_dyer_16_is_irreducible(self):
        assert factor_rational(SD16).factors == ((SD16, 1),)

    def test_budget_counts_subset_trials(self, monkeypatch):
        # SD16 leaves at least 8 modular factors at every prime, and 8
        # quadratics at the prime kept: proving it irreducible takes all
        # 2^7 - 1 subsets up to complements
        monkeypatch.setattr(factor, "RECOMBINATION_BUDGET", 126)
        with pytest.raises(RecombinationBudgetExceeded, match="more than 126 subset trials"):
            factor_rational(SD16)
        monkeypatch.setattr(factor, "RECOMBINATION_BUDGET", 127)
        assert factor_rational(SD16).factors == ((SD16, 1),)

    @pytest.mark.parametrize(
        "factors", [[SD32], [SD16, SD16_SHIFTED]], ids=["SD32", "SD16-times-shift"]
    )
    def test_degree_32_factors_or_is_refused_fast(self, factors):
        p = Polynomial((1,))
        for f in factors:
            p = p * f
        t0 = time.perf_counter()
        try:
            assert dict(factor_rational(p).factors) == {f: 1 for f in factors}
        except RecombinationBudgetExceeded:
            pass
        assert time.perf_counter() - t0 < 2.0

    def test_past_the_budget_is_refused_fast(self):
        # at least 32 modular factors at every prime: 2^31 - 1 subsets
        p = swinnerton_dyer([2, 3, 5, 7, 11, 13])
        t0 = time.perf_counter()
        with pytest.raises(RecombinationBudgetExceeded, match="degree-64"):
            factor_rational(p)
        assert time.perf_counter() - t0 < 2.0

    def test_admits_moderate_degrees(self):
        p = poly_from_roots(range(1, 9))
        assert len(factor_rational(p).factors) == 8


class TestFactoredMinPoly:
    def test_reassemble_and_properties(self):
        p = (Polynomial((-2, 0, 1)) * X**2).monic()
        factored = factor_rational(p)
        assert isinstance(factored, FactoredMinPoly)
        assert factored.zero_index is not None
        assert factored.factors[factored.zero_index][0] == X

    def test_no_zero_factor_when_nonsingular(self):
        factored = factor_rational(Polynomial((-2, 0, 1)))
        assert factored.zero_index is None
