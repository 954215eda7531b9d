"""Exact scalars: rationals, multi-quadratic reals, number field elements.

Three coefficient domains are used throughout the library:

* plain rationals, which are :class:`fractions.Fraction` (the stdlib
  type already guarantees the normalized p/q invariants we rely on);

* :class:`MultiQuad`, elements of Q adjoined finitely many square
  roots, stored as coordinates on the basis of square roots of
  squarefree integers.  The basis label 1 is the rational part;
  negative labels are allowed (the values are then complex), but sign
  queries demand a totally real element;

* :class:`NumberFieldElement`, residues modulo one fixed irreducible
  monic polynomial, used for computing with a generic root of an
  irreducible factor without naming any particular root.  A residue is
  a rational :class:`~mindec.poly.Polynomial`, so it is held in the one
  rational format of the library: integers over one denominator.

Multiplication of basis square roots follows the principal-branch
convention sqrt(a)*sqrt(b) = sqrt(-1)^[a<0]+[b<0] * sqrt(|ab|), e.g.
sqrt(-2)*sqrt(-3) = -sqrt(6).
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt, lcm
from typing import Dict, Mapping, Sequence, Tuple, Union

from mindec import _kernel
from mindec.errors import (
    MixedModuli,
    NonPositiveRadicand,
    NotInvertible,
    NotTotallyReal,
    PolyParseError,
    RadicandTooLarge,
)
from mindec.poly import ONE, Polynomial, ext_gcd

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


def rational_from_string(text: str) -> Fraction:
    """Parse "p" or "p/q" with ASCII digits.  Stricter than the Fraction
    constructor: no decimals, exponents, embedded whitespace or
    non-ASCII digits, and a zero denominator or an overlong integer is
    a PolyParseError rather than a ZeroDivisionError or ValueError."""
    s = text.strip()
    body = s[1:] if s[:1] in "+-" else s
    num, sep, den = body.partition("/")
    if not _ascii_digits(num) or (sep and not _ascii_digits(den)):
        raise PolyParseError(f"not a rational: {text!r}")
    if sep and set(den) == {"0"}:
        raise PolyParseError(f"zero denominator: {text!r}")
    p = int_from_digits(num)
    return Fraction(-p if s[0] == "-" else p, int_from_digits(den) if sep else 1)


def rational_to_string(q: RationalLike) -> str:
    """The decimal form "p/q", or "p" when the denominator is 1, for
    integers of any length."""
    num, den = q.numerator, q.denominator
    if den == 1:
        return _int_to_string(num)
    return f"{_int_to_string(num)}/{_int_to_string(den)}"


#: bit length below which str() converts an int at once: under 3,613
#: digits, inside CPython's default limit of 4,300 per conversion
_STR_BITS = 12000


def _int_to_string(n: int) -> str:
    # str() refuses ints past the interpreter's digit limit, so a long
    # one is split at a power of ten near half its digits
    if n < 0:
        return "-" + _int_to_string(-n)
    if n.bit_length() < _STR_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # log10(2) / 2 is about 0.15
    high, low = divmod(n, 10**k)
    return _int_to_string(high) + _int_to_string(low).zfill(k)


def cleared_row(row: Sequence[Fraction], den: int = 0) -> list:
    """The rationals of row times den, as ints.  den must be a multiple
    of every denominator; it defaults to their lcm.  Clearing each row of
    a matrix this way keeps its row space."""
    if not den:
        den = lcm(*(e.denominator for e in row))
    return [e.numerator * (den // e.denominator) for e in row]


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
                f"cannot certify the square part of {n}: cofactor {x} is beyond "
                "deterministic primality testing"
            )
        if _is_prime(x):
            primes.append(x)
            continue
        f, budget = _brent_rho(x, budget)
        if f is None:
            raise RadicandTooLarge(
                f"cannot certify the square part of {n}: cofactor {x} resisted "
                f"{RHO_BUDGET} rho iterations"
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
    Pollard's rho, and the budget left; (None, 0) when it runs out."""
    c = 1
    while budget > 0:
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and budget > 0:
            z = y
            for _ in range(r):
                y = (y * y + c) % x
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % x
                    q = q * abs(z - y) % x
                g = gcd(q, x)
                k += 128
            budget -= 2 * r
            r *= 2
        if g == x:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % x
                g = gcd(abs(z - ys), x)
        if 1 < g < x:
            return g, budget
        c += 1
    return None, 0


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
    """Element of a multi-quadratic extension of Q.

    Coordinates map squarefree integer labels to rational coefficients;
    the element is sum(coeff * sqrt(label)).  Labels are normalized at
    construction (a coordinate on 12 becomes 2*sqrt(3)) and zero
    coordinates are dropped, so equality is dict equality.
    """

    __slots__ = ("_coords",)

    def __init__(self, value: Union[RationalLike, Mapping[int, RationalLike]] = 0):
        coords: Dict[int, Fraction] = {}
        if isinstance(value, MultiQuad):
            coords = dict(value._coords)
        elif isinstance(value, (int, Fraction)):
            if value:
                coords[1] = Fraction(value)
        else:
            for label, coeff in value.items():
                if not isinstance(label, int) or label == 0:
                    raise ValueError(f"bad radicand label: {label!r}")
                c = Fraction(coeff)
                if not c:
                    continue
                s, d = square_split(label)
                coords[d] = coords.get(d, Fraction(0)) + c * s
                if not coords[d]:
                    del coords[d]
        self._coords = coords

    @classmethod
    def _raw(cls, coords: Dict[int, Fraction]) -> "MultiQuad":
        out = cls.__new__(cls)
        out._coords = coords
        return out

    @property
    def coordinates(self) -> Dict[int, Fraction]:
        return dict(self._coords)

    @property
    def radicands(self) -> Tuple[int, ...]:
        """Squarefree labels with nonzero coordinate, excluding 1."""
        return tuple(sorted(k for k in self._coords if k != 1))

    @property
    def rational_part(self) -> Fraction:
        return self._coords.get(1, Fraction(0))

    @property
    def is_rational(self) -> bool:
        return all(k == 1 for k in self._coords)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.rational_part

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _mq_coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._coords)
        for k, c in other._coords.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return MultiQuad._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _mq_coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _mq_coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return MultiQuad._raw({k: -c for k, c in self._coords.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultiQuad._raw({})
            q = Fraction(other)
            return MultiQuad._raw({k: c * q for k, c in self._coords.items()})
        if not isinstance(other, MultiQuad):
            return NotImplemented
        out: Dict[int, Fraction] = {}
        for la, ca in self._coords.items():
            for lb, cb in other._coords.items():
                coef, lbl = _label_mul(la, lb)
                s = out.get(lbl, Fraction(0)) + ca * cb * coef
                if s:
                    out[lbl] = s
                else:
                    out.pop(lbl, None)
        return MultiQuad._raw(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise NotInvertible("division by zero")
            q = Fraction(other)
            return MultiQuad._raw({k: c / q for k, c in self._coords.items()})
        if not isinstance(other, MultiQuad):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _mq_coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = MultiQuad(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def __bool__(self):
        return bool(self._coords)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiQuad(other)
        if not isinstance(other, MultiQuad):
            return NotImplemented
        return self._coords == other._coords

    def __lt__(self, other):
        other = _mq_coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self):
        if self.is_rational:
            return hash(self.rational_part)
        return hash(tuple(sorted(self._coords.items())))

    # -- field structure ----------------------------------------------

    def inverse(self) -> "MultiQuad":
        """Multiplicative inverse, by solving the linear system of the
        multiplication operator on the subfield spanned by the labels."""
        if not self._coords:
            raise NotInvertible("zero has no inverse")
        if self.is_rational:
            return MultiQuad(1 / self.rational_part)
        labels = set(self._coords)
        labels.add(1)
        while True:  # close the label set under products
            new = set()
            for a in labels:
                for b in labels:
                    lbl = _label_mul(a, b)[1]
                    if lbl not in labels:
                        new.add(lbl)
            if not new:
                break
            labels |= new
        basis = sorted(labels)
        index = {lbl: i for i, lbl in enumerate(basis)}
        n = len(basis)
        # augmented system [T | e_1]: column j of T is self * sqrt(basis[j])
        aug = [[Fraction(0)] * (n + 1) for _ in range(n)]
        for j, bj in enumerate(basis):
            for l, c in self._coords.items():
                coef, lbl = _label_mul(l, bj)
                aug[index[lbl]][j] += c * coef
        aug[index[1]][n] = Fraction(1)
        red, den, pivots = _kernel.rref([cleared_row(r) for r in aug])
        if pivots != list(range(n)):
            raise NotInvertible(f"{self} is not invertible")
        out: Dict[int, Fraction] = {}
        for lbl, row in zip(basis, red):
            if row[n]:
                out[lbl] = Fraction(row[n], den)
        return MultiQuad._raw(out)

    def conjugate(self) -> "MultiQuad":
        """Complex conjugate: negates coordinates on negative labels."""
        return MultiQuad._raw(
            {k: (-c if k < 0 else c) for k, c in self._coords.items()}
        )

    def sign(self) -> int:
        """Exact sign (-1, 0, +1) of a totally real element.

        Zero is decided exactly; otherwise dyadic enclosures of the
        basis square roots are refined (halving the width each round)
        until the value interval excludes zero, which terminates
        because distinct squarefree square roots are linearly
        independent over Q.
        """
        if not self._coords:
            return 0
        for k in self._coords:
            if k < 0:
                raise NotTotallyReal(f"{self} involves sqrt({k})")
        if self.is_rational:
            r = self.rational_part
            return -1 if r < 0 else 1
        bits = 8
        while True:
            lo = Fraction(0)
            hi = Fraction(0)
            scale = 1 << bits
            for k, c in self._coords.items():
                if k == 1:
                    lo += c
                    hi += c
                    continue
                root = isqrt(k * scale * scale)
                rlo = Fraction(root, scale)
                rhi = Fraction(root + 1, scale)
                if c > 0:
                    lo += c * rlo
                    hi += c * rhi
                else:
                    lo += c * rhi
                    hi += c * rlo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2

    def __abs__(self) -> "MultiQuad":
        return -self if self.sign() < 0 else self

    def __repr__(self):
        return f"MultiQuad({self._coords!r})"

    def __str__(self):
        if not self._coords:
            return "0"
        parts = []
        for k in sorted(self._coords):
            c = self._coords[k]
            parts.append(str(c) if k == 1 else f"{c}*sqrt({k})")
        return " + ".join(parts)


def _mq_coerce(value):
    if isinstance(value, MultiQuad):
        return value
    if isinstance(value, (int, Fraction)):
        return MultiQuad(value)
    return None


def mq_invert(x: MultiQuad) -> MultiQuad:
    return x.inverse()


def mq_sign(x: MultiQuad) -> int:
    return x.sign()


def mq_conjugate(x: MultiQuad) -> MultiQuad:
    return x.conjugate()


def mq_sqrt_rational(q: RationalLike) -> MultiQuad:
    """Exact positive square root of a positive rational.

    q = (s/b)^2 * d with d squarefree, so sqrt(q) = (s/b) * sqrt(d); the
    result is rational exactly when q is a square.
    """
    q = Fraction(q)
    if q <= 0:
        raise NonPositiveRadicand(f"sqrt of {q}")
    s, d = square_split(q.numerator * q.denominator)
    return MultiQuad({d: Fraction(s, q.denominator)})


# -- number fields ----------------------------------------------------


class NumberField:
    """Q[Y]/(m) for one monic irreducible m over Q.

    Irreducibility is the caller's responsibility (factors of a
    factored minimal polynomial are irreducible by construction); the
    arithmetic here only requires m to be monic of degree >= 1.
    Power sums of the roots of m are computed once per field by
    Newton's identities and cached for trace computations.
    """

    __slots__ = ("modulus", "_m", "_psums")

    def __init__(self, modulus: Sequence[RationalLike]):
        coeffs = tuple(Fraction(c) for c in modulus)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.modulus = coeffs
        self._m = Polynomial(coeffs)
        self._psums = None

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    @property
    def power_sums(self) -> Tuple[Fraction, ...]:
        """p_0 .. p_(d-1) where p_k is the sum of k-th powers of the
        roots of the modulus (Newton's identities)."""
        if self._psums is None:
            d = self.degree
            e = [Fraction(0)] * (d + 1)  # elementary symmetric functions
            for i in range(1, d + 1):
                e[i] = (-1) ** i * self.modulus[d - i]
            p = [Fraction(d)]
            for k in range(1, d):
                acc = (-1) ** (k - 1) * k * e[k]
                for i in range(1, k):
                    acc += (-1) ** (i - 1) * e[i] * p[k - i]
                p.append(acc)
            self._psums = tuple(p)
        return self._psums

    def element(self, coeffs: Sequence[RationalLike]) -> "NumberFieldElement":
        return NumberFieldElement(self, Polynomial(map(Fraction, coeffs)) % self._m)

    def embed(self, q: RationalLike) -> "NumberFieldElement":
        return NumberFieldElement(self, Polynomial((Fraction(q),)))

    def gen(self) -> "NumberFieldElement":
        """The generic root Y of the modulus."""
        return self.element((0, 1))

    def zero(self) -> "NumberFieldElement":
        return NumberFieldElement(self, Polynomial())

    def one(self) -> "NumberFieldElement":
        return NumberFieldElement(self, ONE)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return f"NumberField({[str(c) for c in self.modulus]})"


class NumberFieldElement:
    """Residue in Q[Y]/(m), stored as a rational Polynomial of degree
    below deg m; sums, products and inverses are computed on it."""

    __slots__ = ("field", "residue")

    def __init__(self, field: NumberField, residue: Polynomial):
        self.field = field
        self.residue = residue

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return self.residue.coeffs

    @property
    def is_rational(self) -> bool:
        return self.residue.degree <= 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.residue.coefficient(0)

    def _check(self, other) -> "NumberFieldElement":
        if isinstance(other, (int, Fraction)):
            return self.field.embed(other)
        if isinstance(other, NumberFieldElement):
            if other.field.modulus != self.field.modulus:
                raise MixedModuli("elements of different number fields")
            return other
        return None

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return NumberFieldElement(self.field, self.residue + other.residue)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return NumberFieldElement(self.field, self.residue - other.residue)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return NumberFieldElement(self.field, -self.residue)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return NumberFieldElement(
            self.field, (self.residue * other.residue) % self.field._m
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def __bool__(self):
        return bool(self.residue)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.embed(other)
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        if other.field.modulus != self.field.modulus:
            return False
        return self.residue == other.residue

    def __hash__(self):
        if self.is_rational:
            return hash(self.as_fraction())
        return hash((self.field.modulus, self.residue))

    def inverse(self) -> "NumberFieldElement":
        """Extended Euclid against the modulus: s*x + t*m = 1, with
        deg s < deg m."""
        if not self.residue:
            raise NotInvertible("zero has no inverse")
        g, s, _ = ext_gcd(self.residue, self.field._m)
        if g.degree != 0:
            # cannot happen over an irreducible modulus
            raise NotInvertible(f"{self} shares a factor with the modulus")
        return NumberFieldElement(self.field, s)

    def trace(self) -> Fraction:
        """Trace to Q: sum of the element over all embeddings, via the
        cached power sums of the modulus."""
        sums = self.field.power_sums
        acc = Fraction(0)
        for i, c in enumerate(self.coeffs):
            acc += c * sums[i]
        return acc

    def __repr__(self):
        return f"<{self} mod {[str(c) for c in self.field.modulus]}>"

    def __str__(self):
        if not self.residue:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            parts.append(str(c) if i == 0 else (f"{c}*Y" if i == 1 else f"{c}*Y^{i}"))
        return " + ".join(parts)


def nf_invert(x: NumberFieldElement) -> NumberFieldElement:
    return x.inverse()


def nf_trace(x: NumberFieldElement) -> Fraction:
    return x.trace()
