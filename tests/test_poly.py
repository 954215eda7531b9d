"""Polynomial arithmetic over the rationals and over number fields."""

import random
from collections import Counter
from fractions import Fraction
from math import comb, gcd

import pytest
from oracles import (
    MULTIQUAD_FIELDS,
    frac_poly_add,
    frac_poly_compose_mod,
    frac_poly_divmod,
    frac_poly_monic_gcd,
    frac_poly_mul,
    multiquad_gcd_cases,
)

from mindec.errors import BothZero, FieldMismatch, ZeroPolynomial
from mindec.matrix import DenseMatrix
from mindec.poly import (
    Polynomial,
    X,
    binary_power,
    compose_mod,
    ext_gcd,
    hasse_derivative,
    poly_gcd,
    poly_lcm,
    squarefree_part,
    trace_coeffwise,
)
from mindec.scalar import MultiQuad, NumberField, NumberFieldElement


def rand_poly(rng, max_degree=6):
    degree = rng.randint(0, max_degree)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)]
    return Polynomial(tuple(coeffs))


class TestArithmetic:
    def test_divmod_reassembles(self):
        rng = random.Random("divmod")
        for _ in range(200):
            a = rand_poly(rng)
            b = rand_poly(rng)
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree

    def test_power_matches_repeated_product(self):
        p = Polynomial((1, 2, 1))
        assert p**3 == p * p * p
        assert p**0 == Polynomial((1,))

    def test_binary_power_squares_and_multiplies_from_no_product(self):
        # e >= 1 costs floor(log2 e) squarings and popcount(e) - 1 more
        # products; the powers of every type take this one loop
        products = []

        def times(a, b):
            products.append((a, b))
            return a * b

        field = NumberField((-2, 0, 1))
        y = field.gen()
        for e in range(1, 70):
            products.clear()
            assert binary_power(3, e, times) == 3**e
            assert len(products) == e.bit_length() - 1 + bin(e).count("1") - 1
            assert (X + 1) ** e == Polynomial([comb(e, k) for k in range(e + 1)])
            assert y**e == field.element((2 ** (e // 2),) if e % 2 == 0 else (0, 2 ** (e // 2)))

    def test_monic_scales_leading_coefficient(self):
        p = Polynomial((2, 0, 4))
        assert p.monic() == Polynomial((Fraction(1, 2), 0, 1))
        # repr reads back, for rational and MultiQuad coefficients
        namespace = {"Polynomial": Polynomial, "Fraction": Fraction, "MultiQuad": MultiQuad}
        for q in (p.monic(), Polynomial((MultiQuad({2: Fraction(1, 3)}), MultiQuad(1)))):
            assert eval(repr(q), namespace) == q

    def test_call_is_horner_evaluation(self):
        p = Polynomial((1, -2, 3))
        assert p(Fraction(2)) == 1 - 4 + 12

    @pytest.mark.parametrize("value", [1.5, DenseMatrix.identity(2)], ids=["float", "matrix"])
    def test_a_value_without_inverse_is_no_coefficient(self, value):
        with pytest.raises(TypeError):
            X * value
        with pytest.raises(TypeError):
            value * X
        with pytest.raises(TypeError):
            X + value


class TestExtGcd:
    def test_identity_on_random_rational_pairs(self):
        rng = random.Random("extgcd")
        checked = 0
        while checked < 500:
            a = rand_poly(rng)
            b = rand_poly(rng)
            if a.is_zero and b.is_zero:
                continue
            g, s, t = ext_gcd(a, b)
            assert s * a + t * b == g
            if not a.is_zero:
                assert divmod(a, g)[1].is_zero
            if not b.is_zero:
                assert divmod(b, g)[1].is_zero
            checked += 1

    def test_number_field_pair_identity_by_expansion(self):
        # reference check: multiply the cofactors back out and compare
        # against 1 coefficient by coefficient
        field = NumberField((-2, 0, 1))
        y, one = field.gen(), field.one()
        x_minus_y = Polynomial((-y, one))
        x_plus_y = Polynomial((y, one))
        a = x_minus_y * x_minus_y
        g, s, t = ext_gcd(a, x_plus_y)
        assert g == Polynomial((one,))
        assert s * a + t * x_plus_y == Polynomial((one,))
        # the pair is coprime: (Y+Y)^2 = 8 is invertible, so degree
        # bounds pin s to a constant and t to degree <= 1
        assert s.degree == 0 and t.degree <= 1

    def test_both_zero_rejected(self):
        with pytest.raises(BothZero):
            ext_gcd(Polynomial(), Polynomial())

    def test_gcd_of_shifted_powers(self):
        a = (X - Polynomial((1,))) ** 3 * (X + Polynomial((2,)))
        b = (X - Polynomial((1,))) ** 2
        g, s, t = ext_gcd(a, b)
        assert g == (X - Polynomial((1,))) ** 2
        assert s * a + t * b == g


def multiquad_pairs(radicands):
    """(g, a, b) with a = g*u and b = g*v over Q(sqrt(d) for d in
    radicands), from the seeded cases of the oracle module."""
    for case in multiquad_gcd_cases(radicands):
        g, u, v = (Polynomial(tuple(MultiQuad(c) for c in coeffs)) for coeffs in case)
        yield g, g * u, g * v


@pytest.mark.parametrize("radicands", MULTIQUAD_FIELDS.values(), ids=list(MULTIQUAD_FIELDS))
class TestEuclidOverMultiQuad:
    """A MultiQuad coefficient has ring operations and inverse() only,
    which is all division, monic, gcd and powers ask of it."""

    def test_divmod_reassembles(self, radicands):
        for _, a, b in multiquad_pairs(radicands):
            for num, den in ((a, b), (b, a), (a * a + b, b)):
                q, r = divmod(num, den)
                assert q * den + r == num
                assert r.degree < den.degree

    def test_monic_has_leading_one(self, radicands):
        for g, a, b in multiquad_pairs(radicands):
            for p in (g, a, b):
                monic = p.monic()
                assert monic.lc == 1
                assert monic * p.lc == p

    def test_ext_gcd_identity_within_degree_bounds(self, radicands):
        for g, a, b in multiquad_pairs(radicands):
            h, s, t = ext_gcd(a, b)
            assert s * a + t * b == h
            assert h.lc == 1
            assert (a % h).is_zero and (b % h).is_zero and (h % g).is_zero
            assert h == poly_gcd(a, b)
            if a.degree > 0 and b.degree > 0 and (a % b) and (b % a):
                assert s.degree < b.degree - h.degree
                assert t.degree < a.degree - h.degree

    def test_zeroth_power_is_one(self, radicands):
        for _, a, _ in multiquad_pairs(radicands):
            assert a**0 == 1
            assert a**3 == a * a * a


class TestLeadingCoefficientInversions:
    """Over a number field every inversion is a full extended gcd, so
    each site inverts a leading coefficient once, not once per
    coefficient it divides."""

    @staticmethod
    def _count_inversions(monkeypatch):
        calls = Counter()
        real = NumberFieldElement.inverse

        def counting(self):
            calls[self.coeffs] += 1
            return real(self)

        monkeypatch.setattr(NumberFieldElement, "inverse", counting)
        return calls

    @staticmethod
    def _pair():
        field = NumberField((-2, 0, 0, 1))
        y, one = field.gen(), field.one()
        lead = y + one
        a = Polynomial((y, one, y * y, one, lead))
        b = Polynomial((one, y, lead))
        return a, b, lead

    def test_division_inverts_once(self, monkeypatch):
        a, b, lead = self._pair()
        calls = self._count_inversions(monkeypatch)
        q, r = divmod(a, b)
        assert q.degree == 2
        assert calls == Counter({lead.coeffs: 1})
        assert q * b + r == a

    def test_monic_inverts_once(self, monkeypatch):
        a, _, lead = self._pair()
        calls = self._count_inversions(monkeypatch)
        assert a.monic().lc == lead.field.one()
        assert calls == Counter({lead.coeffs: 1})

    def test_ext_gcd_scales_the_cofactor_with_one_inversion(self, monkeypatch):
        a, b, _ = self._pair()
        calls = self._count_inversions(monkeypatch)
        g, s, t = ext_gcd(a, b)
        # each division inverts its divisor's leading coefficient once,
        # and the last nonzero remainder (a constant here) is inverted
        # once more to scale g and s: no element more than twice
        assert g.degree == 0
        assert max(calls.values()) == 2
        assert s * a + t * b == g


class TestGcdLcm:
    def test_gcd_lcm_product_identity(self):
        rng = random.Random("lcm")
        for _ in range(100):
            a = rand_poly(rng, 4)
            b = rand_poly(rng, 4)
            if a.is_zero or b.is_zero:
                continue
            g = poly_gcd(a, b)
            l = poly_lcm(a, b)
            assert (g * l).monic() == (a * b).monic()

    def test_lcm_of_coprime_is_product(self):
        a = Polynomial((-2, 0, 1))
        b = Polynomial((-1, 1))
        assert poly_lcm(a, b) == (a * b).monic()


class TestSquarefree:
    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            squarefree_part(Polynomial())

    def test_profile_reassembles_input(self):
        rng = random.Random("sqfree")
        base = [Polynomial((-1, 1)), Polynomial((1, 1)), Polynomial((-2, 0, 1)), X]
        for _ in range(50):
            chosen = rng.sample(base, rng.randint(1, 3))
            product = Polynomial((1,))
            for i, p in enumerate(chosen):
                product = product * p ** (i + 1)
            radical, profile = squarefree_part(product)
            rebuilt = Polynomial((1,))
            for part, mult in profile:
                rebuilt = rebuilt * part**mult
            assert rebuilt == product.monic()
            expected_radical = Polynomial((1,))
            for part, _ in profile:
                expected_radical = expected_radical * part
            assert radical == expected_radical.monic()

    def test_high_multiplicity(self):
        p = Polynomial((-1, 1))
        radical, profile = squarefree_part(p**5)
        assert radical == p and dict(profile) == {p: 5}


class TestRationalValuedMultiQuadCoefficients:
    """A MultiQuad coefficient of rational value is held as its Fraction,
    so a product over Q(sqrt(2)) that lands in Q[X] is a rational
    polynomial, as the norms N(f(X - s*alpha)) are."""

    R = MultiQuad({2: 1})

    def test_a_product_in_q_is_rational(self):
        p = (X - self.R) * (X + self.R)
        assert p.is_rational
        assert p == X**2 - 2 and p.coeffs == (Fraction(-2), Fraction(0), Fraction(1))
        assert all(type(c) is Fraction for c in p.coeffs)
        mixed = Polynomial((MultiQuad(3), self.R))
        assert not mixed.is_rational and mixed.coeffs == (Fraction(3), self.R)
        assert type(mixed.coeffs[0]) is Fraction

    def test_compose_mod(self):
        p = (X - self.R) * (X + self.R)
        assert compose_mod(p, X + 1, X**3) == X**2 + 2 * X - 1
        assert compose_mod(p, X, X**2 - 2).is_zero

    def test_squarefree_part(self):
        p = (X - self.R) * (X + self.R)
        radical, profile = squarefree_part(p)
        assert radical == p and profile == [(p, 1)]
        assert all(type(c) is Fraction for c in radical.coeffs)
        radical, profile = squarefree_part(p * p * (X - 1))
        assert radical == p * (X - 1) and dict(profile) == {p: 2, X - 1: 1}
        for h, _ in profile:
            assert h.is_rational


class TestHasseDerivative:
    def test_taylor_expansion_reassembles(self):
        # f(X + c) = sum_k hasse_k(f)(c) X^k for rational c
        rng = random.Random("hasse")
        for _ in range(40):
            f = rand_poly(rng, 5)
            c = Fraction(rng.randint(-3, 3))
            shifted = f(X + Polynomial((c,)))
            for k in range(f.degree + 1 if not f.is_zero else 1):
                assert shifted.coefficient(k) == hasse_derivative(f, k)(c)

    def test_order_beyond_degree_is_zero(self):
        assert hasse_derivative(Polynomial((1, 1)), 5).is_zero

    def test_no_denominator_blowup(self):
        # the binomial form keeps p-integrality: coefficients of
        # hasse_k(X^n) are binomials, not factorial-divided values
        f = X**7
        h = hasse_derivative(f, 3)
        assert h == Polynomial((0, 0, 0, 0, 35))


class TestTraceCoeffwise:
    def test_rational_coefficients_need_field_context(self):
        with pytest.raises(FieldMismatch):
            trace_coeffwise(Polynomial((1, 2)))

    def test_zero_polynomial_has_zero_trace(self):
        assert trace_coeffwise(Polynomial()).is_zero

    def test_mixed_rational_and_field_coefficients(self):
        field = NumberField((-2, 0, 1))
        p = Polynomial((Fraction(3), field.gen()))
        assert trace_coeffwise(p) == Polynomial((6,))

    def test_cubic_field_traces(self):
        field = NumberField((-2, 0, 0, 1))
        y = field.gen()
        p = Polynomial((y, y * y, field.embed(1)))
        assert trace_coeffwise(p) == Polynomial((0, 0, 3))


#: denominators of the integer-form cases: large, pairwise coprime
#: primes mixed with small and highly composite ones
DENOMINATORS = (1, 2, 3, 12, 10**9 + 7, 10**12 + 39, 2**61 - 1, 6**20)


def big_frac_list(rng, max_degree=6):
    """Fraction coefficients, low degree first, without trailing zeros:
    large numerators and denominators, zeros mixed in, and a leading
    coefficient of either sign; sometimes empty (the zero polynomial)."""
    coeffs = []
    for _ in range(rng.randint(0, max_degree + 1)):
        if rng.random() < 0.2:
            coeffs.append(Fraction(0))
        else:
            num = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 20))
            coeffs.append(Fraction(num, rng.choice(DENOMINATORS)))
    if coeffs and not coeffs[-1]:
        coeffs[-1] = Fraction(rng.choice([-1, 1]) * 7, 10**12 + 39)
    return coeffs


#: fixed cases: zero, constants, a negative leading coefficient, and
#: divisors whose integer leading coefficient is not +-1 (6, -4, 2)
EDGE_LISTS = (
    [],
    [Fraction(5, 3)],
    [Fraction(-1, 10**12 + 39)],
    [Fraction(1), Fraction(0), Fraction(6, 5)],
    [Fraction(3, 2), Fraction(-2)],
    [Fraction(3), Fraction(2)],
    [Fraction(1, 3), Fraction(-1, 2), Fraction(0), Fraction(-7, 9)],
)


def integer_form_pairs(count=150):
    rng = random.Random("integer-form")
    pairs = [(a, b) for a in EDGE_LISTS for b in EDGE_LISTS]
    pairs += [(big_frac_list(rng), big_frac_list(rng, 4)) for _ in range(count)]
    return pairs


def assert_canonical(p):
    """Integers over one positive denominator, no common factor, no
    trailing zero, and coeffs the reduced Fractions of that form."""
    num, den = p._num, p._den
    assert type(num) is tuple and all(type(x) is int for x in num)
    assert den > 0 and gcd(den, *num) == 1
    assert not num or num[-1] != 0
    assert all(type(c) is Fraction for c in p.coeffs)
    assert all(c.denominator > 0 and gcd(c.numerator, c.denominator) == 1 for c in p.coeffs)
    assert list(p.coeffs) == [Fraction(x, den) for x in num]


def frac_monic(a):
    return [x / a[-1] for x in a]


class TestIntegerRepresentation:
    """Rational polynomials stored as integers over one denominator,
    against the plain-Fraction oracles."""

    def test_sums_products_and_division_match_oracles(self):
        for a, b in integer_form_pairs():
            pa, pb = Polynomial(a), Polynomial(b)
            for got, want in (
                (pa + pb, frac_poly_add(a, b)),
                (pa - pb, frac_poly_add(a, b, -1)),
                (pb - pa, frac_poly_add(b, a, -1)),
                (pa * pb, frac_poly_mul(a, b)),
            ):
                assert list(got.coeffs) == want
                assert_canonical(got)
            if b:
                q, r = divmod(pa, pb)
                assert (list(q.coeffs), list(r.coeffs)) == frac_poly_divmod(a, b)
                assert_canonical(q)
                assert_canonical(r)

    def test_equality_compares_values(self):
        third = Polynomial((Fraction(3, 7),))
        for a, b in integer_form_pairs(60):
            pa = Polynomial(a)
            assert (pa == Polynomial(b)) == (a == b)
            # the same value reached through products has the same form
            round_trip = pa * third * Polynomial((Fraction(7, 3),))
            assert round_trip == pa and pa == round_trip
            assert (round_trip._num, round_trip._den) == (pa._num, pa._den)
            assert hash(round_trip) == hash(pa)

    def test_monic_matches_oracle(self):
        for a, _ in integer_form_pairs(60):
            if a:
                m = Polynomial(a).monic()
                assert list(m.coeffs) == frac_monic(a)
                assert_canonical(m)
        with pytest.raises(ZeroPolynomial):
            Polynomial().monic()

    def test_ext_gcd_matches_euclid(self):
        for a, b in integer_form_pairs(80):
            if not a and not b:
                continue
            pa, pb = Polynomial(a), Polynomial(b)
            g, s, t = ext_gcd(pa, pb)
            want = frac_poly_monic_gcd(a, b)
            assert list(g.coeffs) == want
            combo = frac_poly_add(
                frac_poly_mul(list(s.coeffs), a), frac_poly_mul(list(t.coeffs), b)
            )
            assert combo == want
            if pa.degree > 0 and pb.degree > 0 and g.degree < min(pa.degree, pb.degree):
                assert s.degree < pb.degree - g.degree
                assert t.degree < pa.degree - g.degree
            for p in (g, s, t):
                assert_canonical(p)

    def test_compose_mod_matches_horner_oracle(self):
        rng = random.Random("integer-compose")
        for _ in range(40):
            f, g = big_frac_list(rng, 5), big_frac_list(rng, 3)
            m = big_frac_list(rng, 4) or EDGE_LISTS[3]
            got = compose_mod(Polynomial(f), Polynomial(g), Polynomial(m))
            assert list(got.coeffs) == frac_poly_compose_mod(f, g, m)
            assert_canonical(got)

    def test_compose_mod_edge_cases_match_horner_oracle(self):
        # zero f, zero z, constant m, deg f >= deg m and wide
        # denominators; the table composition against Horner's rule
        rng = random.Random("compose-edges")
        wide = [Fraction(10**30 + 1, 2**61 - 1), Fraction(-7, 6**20), Fraction(3, 10**12 + 39)]
        fs = [[], [Fraction(5, 3)], wide, wide * 4, [Fraction(0)] * 9 + [Fraction(1, 6**20)]]
        fs += [big_frac_list(rng, 12) for _ in range(4)]
        zs = [[], [Fraction(-2, 3)], [Fraction(0), Fraction(1)], wide, big_frac_list(rng, 7)]
        ms = [m for m in EDGE_LISTS if m] + [wide, [Fraction(1, 2**61 - 1)]]
        for f in fs:
            for z in zs:
                for m in ms:
                    got = compose_mod(Polynomial(f), Polynomial(z), Polynomial(m))
                    assert list(got.coeffs) == frac_poly_compose_mod(f, z, m)
                    assert_canonical(got)
        assert any(len(m) == 1 for m in ms) and max(map(len, fs)) > max(map(len, ms))

    def test_compose_mod_refuses_an_irrational_polynomial(self):
        sqrt2 = Polynomial((MultiQuad({2: 1}), MultiQuad(1)))
        with pytest.raises(FieldMismatch):
            compose_mod(sqrt2, X, X * X)
        with pytest.raises(FieldMismatch):
            compose_mod(X, sqrt2, X * X)

    def test_squarefree_part_matches_oracle(self):
        rng = random.Random("integer-squarefree")
        for _ in range(25):
            p = [Fraction(rng.choice(DENOMINATORS), 5)]
            for k in range(1, rng.randint(2, 4)):
                base = big_frac_list(rng, 2) or EDGE_LISTS[4]
                for _ in range(k):
                    p = frac_poly_mul(p, base)
            radical, profile = squarefree_part(Polynomial(p))
            dp = [i * c for i, c in enumerate(p)][1:]
            want = frac_poly_divmod(p, frac_poly_monic_gcd(p, dp))[0]
            assert list(radical.coeffs) == frac_monic(want)
            rebuilt = [Fraction(1)]
            for h, k in profile:
                assert_canonical(h)
                for _ in range(k):
                    rebuilt = frac_poly_mul(rebuilt, list(h.coeffs))
            assert rebuilt == frac_monic(p)

    def test_hash_agrees_with_equality_across_coefficient_fields(self):
        for a, _ in integer_form_pairs(40):
            p = Polynomial(a)
            # a MultiQuad of rational value is read as its Fraction
            lifted = p.map_coefficients(MultiQuad)
            assert lifted.is_rational
            assert lifted == p and p == lifted
            assert hash(lifted) == hash(p)
            # on the generic branch, with one irrational coefficient
            mixed = Polynomial(list(a) + [MultiQuad({2: 1})])
            lifted_mixed = Polynomial([MultiQuad(c) for c in a] + [MultiQuad({2: 1})])
            assert not lifted_mixed.is_rational
            assert lifted_mixed == mixed and hash(lifted_mixed) == hash(mixed)
            if a:
                assert p != p + Polynomial((Fraction(1, 10**9 + 7),))
                assert lifted != p * Polynomial((Fraction(2),))
                assert mixed != lifted_mixed * Polynomial((Fraction(2),))

    def test_property_arithmetic_matches_oracles(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coeff = st.builds(
            Fraction,
            st.integers(-(10**30), 10**30),
            st.sampled_from(DENOMINATORS) | st.integers(1, 10**15),
        )
        polys = st.lists(coeff, max_size=7).map(
            lambda cs: cs[: max((i + 1 for i, c in enumerate(cs) if c), default=0)]
        )

        @hypothesis.settings(max_examples=150, derandomize=True, deadline=None)
        @hypothesis.given(polys, polys)
        def check(a, b):
            pa, pb = Polynomial(a), Polynomial(b)
            assert list((pa + pb).coeffs) == frac_poly_add(a, b)
            assert list((pa - pb).coeffs) == frac_poly_add(a, b, -1)
            assert list((pa * pb).coeffs) == frac_poly_mul(a, b)
            assert (pa == pb) == (a == b)
            if b:
                q, r = divmod(pa, pb)
                assert (list(q.coeffs), list(r.coeffs)) == frac_poly_divmod(a, b)
                assert_canonical(q)
                assert_canonical(r)
                assert_canonical(pb.monic())

        check()

    def test_property_derivative_and_negation_match_the_fraction_formula(self):
        # the integer form and the generic path (MultiQuad and number
        # field coefficients) both give sum(i * c_i X^(i-1)) and -p
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coeff = st.builds(
            Fraction,
            st.integers(-(10**30), 10**30),
            st.sampled_from(DENOMINATORS) | st.integers(1, 10**15),
        )
        polys = st.lists(coeff, max_size=7).map(
            lambda cs: cs[: max((i + 1 for i, c in enumerate(cs) if c), default=0)]
        )
        field = NumberField((-2, 0, 0, 1))
        y = field.gen()
        sqrt2 = MultiQuad({2: 1})

        @hypothesis.settings(max_examples=150, derandomize=True, deadline=None)
        @hypothesis.given(polys, st.integers(0, 6))
        def check(a, shift):
            p = Polynomial(a)
            want_d = [i * c for i, c in enumerate(a)][1:]
            want_n = [-c for c in a]
            for got, want in ((p.derivative(), want_d), (-p, want_n)):
                assert list(got.coeffs) == want
                assert_canonical(got)
            # coefficients off Q: c_i + c_(i+shift) * sqrt(2), and c_i * y^shift
            mq = [c + (a[i + shift] if i + shift < len(a) else 0) * sqrt2 for i, c in enumerate(a)]
            nf = [c * y**shift for c in a]
            for cs in (mq, nf):
                q = Polynomial(cs)
                assert list(q.derivative().coeffs) == [i * c for i, c in enumerate(cs)][1:]
                assert list((-q).coeffs) == [-c for c in cs]

        check()
        assert Polynomial((Fraction(5, 3),)).derivative().is_zero
        assert -Polynomial() == Polynomial()
