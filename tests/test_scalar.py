"""Scalar layer: quadratic-surd field and number field residues."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from oracles import invert_a_plus_b_sqrt2, sign_a_plus_b_sqrt2

from mindec import scalar
from mindec.errors import (
    DivisionByZero,
    MixedModuli,
    NonPositiveRadicand,
    NotTotallyReal,
    RadicandTooLarge,
)
from mindec.scalar import (
    MultiQuad,
    NumberField,
    mq_sqrt_rational,
    square_split,
)

SQRT2 = MultiQuad({2: 1})


class TestMultiQuadInvert:
    def test_one_plus_sqrt2_matches_cramer_oracle(self):
        # reference: solve the multiplication-matrix system for 1/(1+sqrt(2))
        c, d = invert_a_plus_b_sqrt2(Fraction(1), Fraction(1))
        assert (c, d) == (Fraction(-1), Fraction(1))
        inv = (MultiQuad(1) + SQRT2).inverse()
        assert inv == MultiQuad({1: c, 2: d})

    def test_one_plus_sqrt2_product_is_one(self):
        u = MultiQuad(1) + SQRT2
        assert u * u.inverse() == MultiQuad(1)

    def test_three_term_inverse_round_trips(self):
        u = MultiQuad({1: Fraction(1, 2), 2: 1, 3: -2})
        assert u * u.inverse() == MultiQuad(1)

    def test_complex_surd_inverse(self):
        u = MultiQuad({1: 1, -1: 3})
        assert u * u.inverse() == MultiQuad(1)

    def test_zero_rejected(self):
        with pytest.raises(DivisionByZero):
            MultiQuad(0).inverse()


class TestMultiQuadSign:
    def test_seven_minus_five_sqrt2_matches_interval_oracle(self):
        expected = sign_a_plus_b_sqrt2(Fraction(7), Fraction(-5))
        assert expected == -1
        assert MultiQuad({1: 7, 2: -5}).sign() == expected

    def test_tight_positive_combination(self):
        # 10 - 7 sqrt(2) is barely positive (sqrt(2) < 10/7)
        expected = sign_a_plus_b_sqrt2(Fraction(10), Fraction(-7))
        assert expected == 1
        assert MultiQuad({1: 10, 2: -7}).sign() == expected

    def test_sign_of_complex_value_rejected(self):
        with pytest.raises(NotTotallyReal):
            MultiQuad({-1: 1}).sign()

    @pytest.mark.parametrize(
        "coords, expected",
        [
            ({1: 1, 2: 1, 3: -1}, 1),
            ({1: -1, 2: 1, 5: -1}, -1),
            ({6: 1, 10: -1}, -1),
            # +-(140 - 99 sqrt2) and +-(99 - 70 sqrt2) lie within 0.01 of
            # zero, inside the first round's enclosure of their value: an
            # end that takes the wrong root bound of sqrt2 gives the wrong
            # sign
            ({1: 140, 2: -99}, -1),
            ({1: -140, 2: 99}, 1),
            ({1: 99, 2: -70}, 1),
            ({1: -99, 2: 70}, -1),
        ],
    )
    def test_multi_radical_signs(self, coords, expected):
        if coords.keys() == {1, 2}:
            assert sign_a_plus_b_sqrt2(Fraction(coords[1]), Fraction(coords[2])) == expected
        assert MultiQuad(coords).sign() == expected


# -- the integer form: coordinates over one positive denominator ---------

#: labels with square factors (12 = 4*3, -8 = 4*-2) beside squarefree
#: ones, so that construction merges and cancels coordinates
MQ_LABELS = (1, 2, 3, 12, -8, -2, -1, 6, 5)


def naive_split(m):
    """(s, d) with m = s^2 * d, d squarefree, by trying every s."""
    s = max(k for k in range(1, isqrt(abs(m)) + 1) if m % (k * k) == 0)
    return s, m // (s * s)


def frac_coords(coords):
    """{squarefree label: Fraction} of sum(c * sqrt(label)), zeros dropped."""
    out = {}
    for m, c in coords.items():
        s, d = naive_split(m)
        out[d] = out.get(d, 0) + Fraction(c) * s
    return {d: c for d, c in out.items() if c}


def frac_sum(x, y, t=1):
    """Coordinates of x + t*y."""
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + t * c
    return {k: c for k, c in out.items() if c}


def frac_product(x, y):
    """Coordinates of a product: sqrt(a) * sqrt(b) = -sqrt(ab) for
    a, b < 0 and sqrt(ab) otherwise."""
    terms = {}
    for a, p in x.items():
        for b, q in y.items():
            both = a < 0 and b < 0
            for d, c in frac_coords({a * b: -p * q if both else p * q}).items():
                terms[d] = terms.get(d, 0) + c
    return frac_coords(terms)


def random_coords(rng):
    """Up to four coordinates, some zero, over large coprime denominators."""
    dens = (1, 2, 9, 65537, 1000003)
    return {
        lbl: Fraction(rng.randint(-(10**6), 10**6) if rng.random() < 0.85 else 0, rng.choice(dens))
        for lbl in rng.sample(MQ_LABELS, rng.randint(0, 4))
    }


def assert_form(x):
    """den > 0, integer coordinates on squarefree labels, none zero, and no
    factor common to den and every coordinate."""
    num, den = x._num, x._den
    assert den > 0
    assert all(type(v) is int and v for v in num.values())
    assert all(naive_split(k)[0] == 1 for k in num)
    assert gcd(den, *num.values()) == 1


class TestMultiQuadRepresentation:
    def test_results_are_canonical_and_match_fractions(self):
        rng = random.Random("mq-form")
        namespace = {"MultiQuad": MultiQuad, "Fraction": Fraction}
        for _ in range(150):
            cx, cy = random_coords(rng), random_coords(rng)
            x, y = MultiQuad(cx), MultiQuad(cy)
            fx, fy = frac_coords(cx), frac_coords(cy)
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            results = [
                (x, fx),
                (x + y, frac_sum(fx, fy)),
                (x - y, frac_sum(fx, fy, -1)),
                (x * y, frac_product(fx, fy)),
                (x * q, frac_product(fx, {1: q})),
                (q - x, frac_sum({1: q}, fx, -1)),
                (-x, {k: -c for k, c in fx.items()}),
                (x.conjugate(), {k: -c if k < 0 else c for k, c in fx.items()}),
            ]
            if x:
                inv = x.inverse()
                assert frac_product(fx, inv.coordinates) == {1: 1}
                results.append((inv, inv.coordinates))
            for value, coords in results:
                assert_form(value)
                assert value.coordinates == coords
                assert eval(repr(value), namespace) == value
                # equal values hash alike; a rational value like its Fraction
                assert hash(value) == hash(MultiQuad(coords))
                if value.is_rational:
                    assert hash(value) == hash(value.rational_part) and value == value.rational_part

    def test_labels_and_denominators_merge(self):
        x = MultiQuad({12: Fraction(1, 6), 3: Fraction(-1, 3), -8: Fraction(3, 4), 1: Fraction(2, 4)})
        assert (x._num, x._den) == ({-2: 3, 1: 1}, 2)
        assert MultiQuad({2: Fraction(4, 6)}) == MultiQuad({8: Fraction(1, 3)})
        assert (MultiQuad(0)._num, MultiQuad(0)._den) == ({}, 1)
        assert (MultiQuad(Fraction(-6, 4))._num, MultiQuad(Fraction(-6, 4))._den) == ({1: -3}, 2)
        assert hash(MultiQuad(Fraction(5, 3))) == hash(Fraction(5, 3))
        assert repr(x) == "MultiQuad({-2: Fraction(3, 2), 1: Fraction(1, 2)})"
        assert str(x) == "3/2*sqrt(-2) + 1/2"


class TestSquareSplit:
    @pytest.mark.parametrize(
        "n, s, d",
        [(4, 2, 1), (8, 2, 2), (12, 2, 3), (1, 1, 1), (-18, 3, -2), (7, 1, 7)],
    )
    def test_known_splits(self, n, s, d):
        assert square_split(n) == (s, d)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            square_split(0)

    @pytest.mark.parametrize(
        "n, s, d",
        [
            # cofactors left by trial division, all prime factors > 10^6
            (1000003**2, 1000003, 1),
            (-(1000003**2) * 1000033, 1000003, -1000033),
            (36 * (10**18 + 3), 6, 10**18 + 3),  # prime above B^3
            (1000003**3, 1000003, 1000003),  # cube: Brent's rho splits it
            (1000003**2 * 1000033 * 1000037, 1000003, 1000033 * 1000037),
        ],
    )
    def test_large_cofactors(self, n, s, d):
        assert square_split(n) == (s, d)
        assert s * s * d == n

    def test_uncertifiable_cofactor_is_a_precondition_error(self):
        # a prime above the deterministic Miller-Rabin range
        p = 399999999999639999999999689
        with pytest.raises(RadicandTooLarge, match=str(p)):
            square_split(4 * p)

    def test_semiprime_cofactor_splits_within_the_rho_budget(self):
        n = 1000000007 * 1000000009
        assert square_split(n) == (1, n)

    def test_rho_budget_refusal(self, monkeypatch):
        n = 1000000007 * 1000000009
        monkeypatch.setattr(scalar, "RHO_BUDGET", 4)
        with pytest.raises(RadicandTooLarge, match="resisted 4 rho iterations"):
            square_split(n)


#: steps y <- y^2 + c that _brent_rho takes to split x
RHO_STEPS = {25: 13, 35: 13, 49: 7, 55: 7, 143: 15, 1000000007 * 1000000009: 50430}


class TestBrentRho:
    @pytest.mark.parametrize("x, f", [(25, 5), (35, 5), (49, 7), (55, 5), (143, 11)])
    def test_small_composites_split(self, x, f):
        # each takes the overshoot branch: a batch's product is 0 mod x
        assert scalar._brent_rho(x, scalar.RHO_BUDGET)[0] == f

    @pytest.mark.parametrize("x", [49, 55, 143])
    def test_overshot_batch_is_retraced(self, x):
        # the exact step count suffices only if the overshooting batch is
        # retraced step by step, not dropped for the next constant
        f, left = scalar._brent_rho(x, RHO_STEPS[x])
        assert f is not None and 1 < f < x and x % f == 0
        assert left == 0

    @pytest.mark.parametrize("x", sorted(RHO_STEPS))
    def test_budget_counts_every_step(self, x):
        # every step y <- y^2 + c is charged, so one step fewer than the
        # count that splits x runs out, and no budget goes negative
        assert scalar._brent_rho(x, scalar.RHO_BUDGET)[1] == scalar.RHO_BUDGET - RHO_STEPS[x]
        assert scalar._brent_rho(x, RHO_STEPS[x] - 1) == (None, 0)


class TestSqrtRational:
    def test_non_positive_rejected(self):
        with pytest.raises(NonPositiveRadicand):
            mq_sqrt_rational(Fraction(-2))
        with pytest.raises(NonPositiveRadicand):
            mq_sqrt_rational(0)

    def test_square_of_result_recovers_input(self):
        for q in (Fraction(2), Fraction(8, 9), Fraction(49), Fraction(5, 4)):
            root = mq_sqrt_rational(q)
            assert root * root == MultiQuad(q)
            assert root.sign() == 1


class TestNumberField:
    def test_invert_one_plus_generator_matches_cramer_oracle(self):
        # (1+Y)(c+dY) = (c+2d) + (c+d)Y in Q[Y]/(Y^2-2); solve for (1, 0)
        field = NumberField((-2, 0, 1))
        c, d = invert_a_plus_b_sqrt2(Fraction(1), Fraction(1))
        u = field.element((1, 1))
        assert u.inverse() == field.element((c, d))
        assert u * u.inverse() == field.one()

    def test_invert_in_cubic_field(self):
        field = NumberField((-2, 0, 0, 1))
        u = field.element((1, 1, 0))
        assert u * u.inverse() == field.one()

    def test_invert_zero_rejected(self):
        field = NumberField((-2, 0, 1))
        with pytest.raises(DivisionByZero):
            field.zero().inverse()

    def test_mixed_moduli_rejected(self):
        a = NumberField((-2, 0, 1)).gen()
        b = NumberField((1, 0, 1)).gen()
        with pytest.raises(MixedModuli):
            a + b

    def test_trace_against_power_sums(self):
        # traces in Q[Y]/(Y^3-2): roots are cbrt(2) times cube roots of
        # unity, so tr(Y) = 0, tr(Y^2) = 0, tr(Y^3) = 6
        field = NumberField((-2, 0, 0, 1))
        y = field.gen()
        assert y.trace() == 0
        assert (y * y).trace() == 0
        assert (y * y * y).trace() == 6

    def test_trace_is_rational_valued(self):
        field = NumberField((-1, -1, 1))
        value = field.element((Fraction(1, 3), Fraction(5, 2))).trace()
        assert isinstance(value, Fraction)
        # tr(a + bY) = 2a + b * tr(Y); tr(Y) = 1 for Y^2 - Y - 1
        assert value == 2 * Fraction(1, 3) + Fraction(5, 2)

    def test_reduction_wraps_high_powers(self):
        field = NumberField((-2, 0, 1))
        assert field.element((0, 0, 1)) == field.embed(2)
        assert repr(field) == "NumberField(['-2', '0', '1'])"
        u = field.element((Fraction(1, 2), 0, -3))
        assert str(u) == "-11/2" and str(field.element((0, -3))) == "-3*Y"
        assert repr(field.element((Fraction(1, 2), 3))) == "<1/2 + 3*Y mod ['-2', '0', '1']>"


class TestConjugation:
    def test_fixes_reals_and_flips_imaginaries(self):
        value = MultiQuad({2: Fraction(1, 3), -5: 4, 1: -2})
        conj = value.conjugate()
        assert conj == MultiQuad({2: Fraction(1, 3), -5: -4, 1: -2})

    def test_product_with_conjugate_is_square_modulus(self):
        u = MultiQuad({1: 1, -1: 2})
        prod = u * u.conjugate()
        assert prod.is_rational and prod.as_fraction() == 5
