"""Exact scalars: rationals and multi-quadratic reals.

Two coefficient domains are used throughout the library:

* plain rationals, which are :class:`fractions.Fraction` (the stdlib
  type already guarantees the normalized p/q invariants we rely on);

* :class:`MultiQuad`, elements of Q adjoined finitely many square
  roots, with coordinates on the basis of square roots of squarefree
  integers.  The basis label 1 is the rational part; negative labels
  are allowed (the values are then complex), but sign queries demand a
  totally real element.  The coordinates are integers over one
  positive denominator, the one rational format of the library, and
  sums, products, inverses and signs are computed on those integers.

A MultiQuad divides through ``.inverse()``, ``a * b.inverse()``, and
has no ``/``: ring operations and ``inverse()`` are all that
:class:`~mindec.poly.Polynomial` asks of a coefficient.  The number
field Q[Y]/(m) of one irreducible factor, the generic-root oracle's
coefficient domain, is :class:`mindec.oracles.NumberField`.

Multiplication of basis square roots follows the principal-branch
convention sqrt(a)*sqrt(b) = sqrt(-1)^[a<0]+[b<0] * sqrt(|ab|), e.g.
sqrt(-2)*sqrt(-3) = -sqrt(6).
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt, lcm
from typing import Dict, Mapping, Tuple, Union

from mindec import _kernel
from mindec.errors import (
    NonPositiveRadicand,
    NotInvertible,
    NotTotallyReal,
    PolyParseError,
    RadicandTooLarge,
)
from mindec.poly import _int_to_string, ratio_to_string

RationalLike = Union[int, Fraction]


def _ascii_digits(s: str) -> bool:
    # str.isdigit alone also accepts digits of other scripts and
    # superscripts, which the Fraction constructor reads or rejects
    return s.isascii() and s.isdigit()


def int_from_digits(digits: str) -> int:
    """int(digits) for a string of ASCII digits.  A literal longer than
    the interpreter converts (see sys.set_int_max_str_digits) is a
    PolyParseError rather than a ValueError."""
    try:
        return int(digits)
    except ValueError:
        raise PolyParseError(
            f"integer literal of {len(digits)} digits is longer than this "
            "interpreter converts"
        ) from None


def ratio_from_string(text: str) -> Tuple[int, int]:
    """(p, q) in lowest terms, q > 0, of "p" or "p/q" with ASCII digits.
    Stricter than the Fraction constructor: no decimals, exponents,
    embedded whitespace or non-ASCII digits, and a zero denominator or
    an overlong integer is a PolyParseError rather than a
    ZeroDivisionError or ValueError."""
    s = text.strip()
    body = s[1:] if s[:1] in "+-" else s
    num, sep, den = body.partition("/")
    if not _ascii_digits(num) or (sep and not _ascii_digits(den)):
        raise PolyParseError(f"not a rational: {text!r}")
    if sep and set(den) == {"0"}:
        raise PolyParseError(f"zero denominator: {text!r}")
    p = -int_from_digits(num) if s[0] == "-" else int_from_digits(num)
    q = int_from_digits(den) if sep else 1
    g = gcd(p, q)
    return p // g, q // g


#: trial division bound B of square_split
TRIAL_BOUND = 10**6
#: Miller-Rabin with the first 13 prime bases is deterministic below this
MR_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: iterations Brent's rho may spend on one radicand
RHO_BUDGET = 1 << 17


def square_split(n: int) -> Tuple[int, int]:
    """Write n = s^2 * d with d squarefree (d carries the sign of n).

    Trial division up to B = TRIAL_BOUND leaves a cofactor c whose
    prime factors are all >= B.  A square c is s'^2; a nonsquare
    c < B^3 has at most two prime factors, so it is squarefree.  Above
    B^3, c is factored by deterministic Miller-Rabin (c < MR_LIMIT) and
    Brent's rho within RHO_BUDGET iterations; a cofactor beyond both
    raises RadicandTooLarge naming n.
    """
    if n == 0:
        raise ValueError("square_split(0)")
    sign = -1 if n < 0 else 1
    n = abs(n)
    r = isqrt(n)
    if r * r == n:
        return r, sign
    s = 1
    d = 1
    c = n
    p = 2
    while p * p <= c and p < TRIAL_BOUND:
        if c % p == 0:
            e = 0
            while c % p == 0:
                c //= p
                e += 1
            s *= p ** (e // 2)
            if e & 1:
                d *= p
        p += 1 if p == 2 else 2
    if c >= TRIAL_BOUND**3:  # so the loop stopped at B, not at sqrt(c)
        exponents: Dict[int, int] = {}
        for q in _large_prime_factors(c, n):
            exponents[q] = exponents.get(q, 0) + 1
        for q, e in exponents.items():
            s *= q ** (e // 2)
            if e & 1:
                d *= q
        return s, sign * d
    r = isqrt(c)
    if r * r == c:
        return s * r, sign * d
    return s, sign * d * c


def _large_prime_factors(c: int, n: int) -> list:
    """Prime factors, with multiplicity, of c >= B^3 whose prime
    factors are all >= B (B = TRIAL_BOUND)."""
    budget = RHO_BUDGET
    primes = []
    pending = [c]
    while pending:
        x = pending.pop()
        if x == 1:
            continue
        if x < TRIAL_BOUND**2:  # no two factors >= B fit
            primes.append(x)
            continue
        r = isqrt(x)
        if r * r == x:
            pending += [r, r]
            continue
        if x >= MR_LIMIT:
            raise RadicandTooLarge(
                f"cannot certify the square part of {_int_to_string(n)}: cofactor "
                f"{_int_to_string(x)} is beyond deterministic primality testing"
            )
        if _is_prime(x):
            primes.append(x)
            continue
        f, budget = _brent_rho(x, budget)
        if f is None:
            raise RadicandTooLarge(
                f"cannot certify the square part of {_int_to_string(n)}: cofactor "
                f"{_int_to_string(x)} resisted {RHO_BUDGET} rho iterations"
            )
        pending += [f, x // f]
    return primes


def _is_prime(x: int) -> bool:
    """Miller-Rabin with the first 13 prime bases; exact for odd
    x < MR_LIMIT with no factor below 42."""
    d = x - 1
    k = 0
    while not d & 1:
        d >>= 1
        k += 1
    for a in _MR_BASES:
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(k - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def _brent_rho(x: int, budget: int):
    """A nontrivial factor of the odd composite x by Brent's variant of
    Pollard's rho, and the budget left; (None, 0) when it runs out.
    Every step y <- y^2 + c costs one unit of the budget: the advance of
    a round, its batches and the retrace of an overshot batch.  A batch
    whose steps the budget cannot pay is not started, since only its
    gcd could end the search."""
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if budget < r:
                return None, 0
            budget -= r
            z = y
            for _ in range(r):
                y = (y * y + c) % x
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(128, r - k)
                if budget < steps:
                    return None, 0
                budget -= steps
                for _ in range(steps):
                    y = (y * y + c) % x
                    q = q * abs(z - y) % x
                g = gcd(q, x)
                k += steps
            r *= 2
        if g == x:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                if not budget:
                    return None, 0
                budget -= 1
                ys = (ys * ys + c) % x
                g = gcd(abs(z - ys), x)
        if 1 < g < x:
            return g, budget
        c += 1


def _label_mul(a: int, b: int) -> Tuple[int, int]:
    # sqrt(a)*sqrt(b) = coef * sqrt(label) for squarefree labels a, b
    if a == 1:
        return 1, b
    if b == 1:
        return 1, a
    aa, ab = abs(a), abs(b)
    g = gcd(aa, ab)
    lbl = (aa // g) * (ab // g)
    if a < 0 and b < 0:
        return -g, lbl
    if a < 0 or b < 0:
        return g, -lbl
    return g, lbl


@total_ordering
class MultiQuad:
    """Element of a multi-quadratic extension of Q: sum(c * sqrt(label))
    over squarefree integer labels, the label 1 the rational part.

    Held as ``_num`` ({label: integer}) over ``_den``, the form of a
    rational Polynomial and of a DenseMatrix.  The form is canonical:
    ``_den`` > 0, no coordinate is zero and no factor is common to
    ``_den`` and every coordinate, so equality compares integers.
    Labels are normalized at construction (a coordinate on 12 becomes
    2*sqrt(3)); Fractions are built only when coordinates are read.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, value: Union[RationalLike, Mapping[int, RationalLike]] = 0):
        if isinstance(value, (int, Fraction)):
            value = MultiQuad._of_ints({1: value.numerator}, value.denominator)
        elif not isinstance(value, MultiQuad):
            cs = map(Fraction, value.values())
            value = MultiQuad._of_coords(
                ((label, c.numerator, c.denominator) for label, c in zip(value, cs)), {}
            )
        self._num, self._den = value._num, value._den

    @classmethod
    def _of_ints(cls, num: Dict[int, int], den: int) -> "MultiQuad":
        """sum(x * sqrt(label)) / den for integers x on squarefree labels
        and den != 0: zero coordinates are dropped, the content common
        to den and every coordinate is divided out and den made
        positive."""
        if not all(num.values()):
            num = {k: x for k, x in num.items() if x}
        if den != 1:
            g = gcd(den, *num.values())
            if den < 0:
                g = -g
            if g != 1:
                num = {k: x // g for k, x in num.items()}
                den //= g
        out = object.__new__(cls)
        out._num = num
        out._den = den
        return out

    @classmethod
    def _of_coords(cls, coords, splits: Dict[int, Tuple[int, int]]) -> "MultiQuad":
        """sum(p/q * sqrt(label)) over the (label, p, q) in coords, q > 0.
        Each label is normalized by square_split (a coordinate on 12
        becomes 2*sqrt(3)), looked up in splits first and recorded
        there, so a caller that keeps one splits map splits each
        distinct label once.  A label that is no nonzero int raises
        ValueError."""
        terms = []
        for label, p, q in coords:
            if not isinstance(label, int) or label == 0:
                raise ValueError(f"bad radicand label: {label!r}")
            if p:
                if label not in splits:
                    splits[label] = square_split(label)
                terms.append((splits[label], p, q))
        den = lcm(*(q for _, _, q in terms))
        num: Dict[int, int] = {}
        for (s, d), p, q in terms:
            num[d] = num.get(d, 0) + p * s * (den // q)
        return MultiQuad._of_ints(num, den)

    @property
    def coordinates(self) -> Dict[int, Fraction]:
        return {k: Fraction(x, self._den) for k, x in self._num.items()}

    @property
    def radicands(self) -> Tuple[int, ...]:
        """Squarefree labels with nonzero coordinate, excluding 1."""
        return tuple(sorted(k for k in self._num if k != 1))

    @property
    def rational_part(self) -> Fraction:
        return Fraction(self._num.get(1, 0), self._den)

    @property
    def is_rational(self) -> bool:
        return self._num.keys() <= {1}

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.rational_part

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return self._combine(1, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(1, other, -1)

    def __rsub__(self, other):
        return self._combine(-1, other, 1)

    def _combine(self, s: int, other, t: int):
        # s * self + t * other, s and t = +-1, over the lcm of the two
        # denominators
        other = _mq_coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._den, other._den
        den = a // gcd(a, b) * b
        fa, fb = s * (den // a), t * (den // b)
        num = {k: fa * x for k, x in self._num.items()}
        for k, x in other._num.items():
            num[k] = num.get(k, 0) + fb * x
        return MultiQuad._of_ints(num, den)

    def __neg__(self):
        return MultiQuad._of_ints({k: -x for k, x in self._num.items()}, self._den)

    def __mul__(self, other):
        other = _mq_coerce(other)
        if other is None:
            return NotImplemented
        num: Dict[int, int] = {}
        for la, a in self._num.items():
            for lb, b in other._num.items():
                coef, lbl = _label_mul(la, lb)
                num[lbl] = num.get(lbl, 0) + coef * a * b
        return MultiQuad._of_ints(num, self._den * other._den)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        other = _mq_coerce(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __lt__(self, other):
        other = _mq_coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self):
        if self.is_rational:
            return hash(self.rational_part)
        return hash((self._den, *sorted(self._num.items())))

    # -- field structure ----------------------------------------------

    def inverse(self) -> "MultiQuad":
        """Multiplicative inverse, by solving the linear system of the
        multiplication operator on the subfield spanned by the labels:
        with self = N / den, the y of T y = den * e_1, T the integer
        matrix of multiplication by N."""
        num, den = self._num, self._den
        if not num:
            raise NotInvertible("zero has no inverse")
        if self.is_rational:
            return MultiQuad._of_ints({1: den}, num[1])
        # the labels of all products of labels of self: a label squares
        # to a rational, so products of subsets close the set
        labels = {1}
        for l in num:
            labels |= {_label_mul(l, b)[1] for b in labels}
        basis = sorted(labels)
        index = {lbl: i for i, lbl in enumerate(basis)}
        n = len(basis)
        # augmented system [T | den * e_1]: column j of T is N * sqrt(basis[j])
        aug = [[0] * (n + 1) for _ in range(n)]
        for j, bj in enumerate(basis):
            for l, x in num.items():
                coef, lbl = _label_mul(l, bj)
                aug[index[lbl]][j] += x * coef
        aug[index[1]][n] = den
        red, rden, pivots = _kernel.rref(aug)
        if pivots != list(range(n)):
            raise NotInvertible(f"{self} is not invertible")
        return MultiQuad._of_ints({lbl: row[n] for lbl, row in zip(basis, red)}, rden)

    def conjugate(self) -> "MultiQuad":
        """Complex conjugate: negates coordinates on negative labels."""
        num = {k: (-x if k < 0 else x) for k, x in self._num.items()}
        return MultiQuad._of_ints(num, self._den)

    def sign(self) -> int:
        """Exact sign (-1, 0, +1) of a totally real element.

        Zero is decided exactly; otherwise dyadic enclosures of the
        basis square roots are refined (halving the width each round)
        until the value interval excludes zero, which terminates
        because distinct squarefree square roots are linearly
        independent over Q.  The sign is that of the integer
        coordinates (den > 0), and each round bounds their value times
        2^bits between two integers.
        """
        if not self._num:
            return 0
        for k in self._num:
            if k < 0:
                raise NotTotallyReal(f"{self} involves sqrt({k})")
        if self.is_rational:
            return -1 if self._num[1] < 0 else 1
        bits = 8
        while True:
            lo = hi = self._num.get(1, 0) << bits
            for k, x in self._num.items():
                if k != 1:
                    # root / 2^bits <= sqrt(k) < (root + 1) / 2^bits
                    root = isqrt(k << 2 * bits)
                    lo += x * (root if x > 0 else root + 1)
                    hi += x * (root + 1 if x > 0 else root)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2

    def __repr__(self):
        return f"MultiQuad({dict(sorted(self.coordinates.items()))!r})"

    def __str__(self):
        if not self._num:
            return "0"
        parts = []
        for k, x in sorted(self._num.items()):
            c = ratio_to_string(x, self._den)
            parts.append(c if k == 1 else f"{c}*sqrt({_int_to_string(k)})")
        return " + ".join(parts)


def _mq_coerce(value):
    if isinstance(value, (int, Fraction)):
        return MultiQuad._of_ints({1: value.numerator}, value.denominator)
    return value if isinstance(value, MultiQuad) else None


#: MultiQuad.inverse under the name perfbench/tracer.py wraps; the
#: library calls the method
mq_invert = MultiQuad.inverse


def mq_sqrt_rational(q: RationalLike) -> MultiQuad:
    """Exact positive square root of a positive rational.

    q = (s/b)^2 * d with d squarefree, so sqrt(q) = (s/b) * sqrt(d); the
    result is rational exactly when q is a square.
    """
    q = Fraction(q)
    if q <= 0:
        raise NonPositiveRadicand(f"sqrt of {ratio_to_string(q.numerator, q.denominator)}")
    s, d = square_split(q.numerator * q.denominator)
    return MultiQuad._of_ints({d: s}, q.denominator)


def __getattr__(name):
    # perfbench's tracer binds these here; ROADMAP item 2 rebinds it and deletes the hook
    if name in ("NumberFieldElement", "nf_invert"):
        from mindec import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
