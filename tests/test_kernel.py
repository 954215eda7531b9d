"""The rational kernel against plain-Fraction oracles.

Every primitive in mindec._kernel is run on seeded random inputs and
compared with the same computation done directly on Fractions in
tests/oracles.py; every returned (numerator, denominator) pair must be
in lowest terms with a positive denominator.
"""

import random
from fractions import Fraction
from math import gcd

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


def pack(fracs):
    return [q.numerator for q in fracs], [q.denominator for q in fracs]


def unpack(nums, dens):
    assert len(nums) == len(dens)
    for num, den in zip(nums, dens):
        assert den > 0
        assert gcd(num, den) == 1
    return [Fraction(num, den) for num, den in zip(nums, dens)]


def test_backend_label():
    assert _kernel.BACKEND == "python"


def test_poly_mul_matches_schoolbook():
    rng = random.Random("kernel-mul")
    for _ in range(80):
        a, b = random_poly(rng, 9), random_poly(rng, 9)
        got = unpack(*_kernel.poly_mul(*pack(a), *pack(b)))
        assert got == frac_poly_mul(a, b)


def test_poly_divmod_matches_long_division():
    rng = random.Random("kernel-div")
    for _ in range(80):
        a = random_poly(rng, 11)
        b = random_poly(rng, 6) or [Fraction(rng.randint(1, 9))]
        qn, qd, rn, rd = _kernel.poly_divmod(*pack(a), *pack(b))
        quot, rem = unpack(qn, qd), unpack(rn, rd)
        assert (quot, rem) == frac_poly_divmod(a, b)
        assert len(rem) < len(b)


def test_mat_mul_matches_triple_loop():
    rng = random.Random("kernel-mat")
    for _ in range(50):
        n, k, m = (rng.randint(1, 6) for _ in range(3))
        a, b = random_fracs(rng, n * k), random_fracs(rng, k * m)
        got = unpack(*_kernel.mat_mul(*pack(a), *pack(b), n, k, m))
        want = frac_matmul(
            [a[i * k : (i + 1) * k] for i in range(n)],
            [b[t * m : (t + 1) * m] for t in range(k)],
        )
        assert got == [x for row in want for x in row]


def test_rref_matches_gaussian_elimination():
    rng = random.Random("kernel-rref")
    deficient = set()
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        flat = random_fracs(rng, rows * cols, zero_rate=rng.choice([0.0, 0.3, 0.8, 1.0]))
        if rows >= 3 and rng.random() < 0.5:
            # a combination of the first two rows, so ranks vary
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            for j in range(cols):
                flat[(rows - 1) * cols + j] = flat[j] + c * flat[cols + j]
        nums, dens, pivots = _kernel.rref(*pack(flat), rows, cols)
        want_rows, want_pivots = fraction_rref(
            [flat[r * cols : (r + 1) * cols] for r in range(rows)]
        )
        assert pivots == want_pivots
        assert unpack(nums, dens) == [x for row in want_rows for x in row]
        deficient.add(len(pivots) < min(rows, cols))
    assert deficient == {True, False}

