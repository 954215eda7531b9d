"""The exact kernel against plain-Fraction oracles.

Every primitive in mindec._kernel is run on seeded random inputs and
compared with the same computation done directly on Fractions in
tests/oracles.py.  The kernels take and return integers: a rational
polynomial or matrix enters as integers over one common denominator,
and the result is read back over the denominator the caller would use.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from oracles import frac_matmul, frac_poly_divmod, frac_poly_mul, fraction_rref

from mindec import _kernel


def random_fracs(rng, count, zero_rate=0.25):
    out = []
    for _ in range(count):
        if rng.random() < zero_rate:
            out.append(Fraction(0))
        else:
            num = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 12))
            out.append(Fraction(num, rng.randint(1, 10 ** rng.randint(0, 9))))
    return out


def random_poly(rng, max_len):
    """Coefficients low degree first, without trailing zeros."""
    coeffs = random_fracs(rng, rng.randint(0, max_len))
    if coeffs and coeffs[-1] == 0:
        coeffs[-1] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return coeffs


def int_form(fracs):
    """Integer coefficients over the lcm of the denominators."""
    den = lcm(*(q.denominator for q in fracs))
    return [q.numerator * (den // q.denominator) for q in fracs], den


def test_backend_label():
    assert _kernel.BACKEND == "python"


POLY_MUL_EDGES = [
    ([], []),
    ([], [Fraction(3)]),
    ([Fraction(2), Fraction(1)], []),
    ([Fraction(-7, 3)], [Fraction(5, 2)]),
    ([Fraction(4)], [Fraction(1), Fraction(0), Fraction(0), Fraction(-2)]),
    ([Fraction(1), Fraction(0), Fraction(0), Fraction(-2)], [Fraction(-1, 6)]),
    ([Fraction(0), Fraction(0), Fraction(5)], [Fraction(3), Fraction(0), Fraction(1, 2)]),
    ([Fraction(2), Fraction(0), Fraction(0), Fraction(1)], [Fraction(0), Fraction(9), Fraction(0), Fraction(-1)]),
    ([Fraction(2**70 + 1), Fraction(0), Fraction(-(3**50))], [Fraction(5**40, 7), Fraction(0), Fraction(1)]),
]


def test_poly_mul_matches_schoolbook():
    """Random operands, and fixed ones with zero interior coefficients,
    a length-1 operand or an empty one."""
    rng = random.Random("kernel-mul")
    cases = POLY_MUL_EDGES + [(random_poly(rng, 9), random_poly(rng, 9)) for _ in range(80)]
    for a, b in cases:
        (an, ad), (bn, bd) = int_form(a), int_form(b)
        got = _kernel.poly_mul(an, bn)
        assert all(type(x) is int for x in got)
        assert [Fraction(x, ad * bd) for x in got] == frac_poly_mul(a, b)


def test_poly_divmod_matches_long_division():
    rng = random.Random("kernel-div")
    for _ in range(80):
        a = random_poly(rng, 11)
        b = random_poly(rng, 6) or [Fraction(rng.randint(1, 9))]
        (an, ad), (bn, bd) = int_form(a), int_form(b)
        q, r, scale = _kernel.poly_divmod(an, bn)
        assert scale > 0
        assert all(type(x) is int for x in q + r)
        # scale * an = q * bn + r, so a = (q * bd / d) * b + r / d
        d = scale * ad
        quot, rem = [Fraction(x * bd, d) for x in q], [Fraction(x, d) for x in r]
        assert (quot, rem) == frac_poly_divmod(a, b)
        assert len(rem) < len(b)


def random_ints(rng, count, zero_rate=0.25):
    return [
        0 if rng.random() < zero_rate else rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 15))
        for _ in range(count)
    ]


def random_int_rows(rng, rows, cols, zero_rate=0.25):
    return [random_ints(rng, cols, zero_rate) for _ in range(rows)]


def check_rref(rows):
    """_kernel.rref of integer rows against plain-Fraction elimination:
    same pivots, rows / den equal to the reduced echelon form, and every
    pivot of the returned rows equal to den."""
    red, den, pivots = _kernel.rref(rows)
    want_rows, want_pivots = fraction_rref(rows)
    assert pivots == want_pivots
    assert den != 0
    assert [[Fraction(x, den) for x in r] for r in red] == want_rows
    assert [red[r][c] for r, c in enumerate(pivots)] == [den] * len(pivots)
    assert all(x == 0 for r in red[len(pivots):] for x in r)
    return pivots


def test_mat_mul_matches_triple_loop():
    rng = random.Random("kernel-mat")
    for _ in range(80):
        n, k, m = (rng.randint(1, 8) for _ in range(3))
        # dense, half-empty and mostly zero rows, some of them all zero
        a = random_int_rows(rng, n, k, zero_rate=rng.choice([0.0, 0.5, 0.9]))
        b = random_int_rows(rng, k, m)
        got = _kernel.mat_mul(a, b)
        assert [list(r) for r in got] == frac_matmul(a, b)
        assert all(type(x) is int for r in got for x in r)


def test_rref_matches_gaussian_elimination():
    rng = random.Random("kernel-rref")
    deficient = set()
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = random_int_rows(rng, nrows, ncols, zero_rate=rng.choice([0.0, 0.3, 0.8, 1.0]))
        if nrows >= 3 and rng.random() < 0.5:
            # a combination of the first two rows, so ranks vary
            c = rng.randint(-5, 5)
            rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
        pivots = check_rref(rows)
        deficient.add(len(pivots) < min(nrows, ncols))
    assert deficient == {True, False}


def test_rref_leaves_its_input_alone():
    rows = [[0, 2, 4], [3, 1, 1], [6, 2, 2]]
    copy = [list(r) for r in rows]
    _kernel.rref(rows)
    assert rows == copy


def test_rref_of_no_pivot():
    assert _kernel.rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], 1, [])


def test_property_mat_mul_and_rref():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.integers(-(10**12), 10**12) | st.sampled_from([0, 0, 1, -1])

    @st.composite
    def matrices(draw, rows=None, cols=None):
        r = rows if rows is not None else draw(st.integers(1, 6))
        c = cols if cols is not None else draw(st.integers(1, 6))
        return [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(r)]

    @st.composite
    def products(draw):
        n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
        return draw(matrices(n, k)), draw(matrices(k, m))

    @hypothesis.settings(max_examples=80, derandomize=True, deadline=None)
    @hypothesis.given(products(), matrices())
    def check(ab, rows):
        a, b = ab
        assert [list(r) for r in _kernel.mat_mul(a, b)] == frac_matmul(a, b)
        check_rref(rows)

    check()
