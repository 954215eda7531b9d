"""Dense univariate polynomials over an exact field.

Coefficients are stored low degree first with trailing zeros stripped,
so the tuple index is the degree and the zero polynomial is the empty
tuple.  Integer coefficients are normalized to :class:`~fractions.Fraction`
at construction; any other coefficient type (multi-quadratic scalars,
number field elements) is kept as given and only assumed to support
exact field arithmetic through the usual operators.

The degree of the zero polynomial is the sentinel -1.

Purely rational operands are packed into (numerator, denominator) int
pairs and multiplied and divided by the pure-Python kernel in
:mod:`mindec._kernel`; everything else takes the generic path, which is
semantically identical.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Sequence

from mindec import _kernel
from mindec.errors import BothZero, FieldMismatch, MixedModuli, ZeroPolynomial
from mindec.scalar import one_like

ZERO_DEGREE = -1


def _norm_coeff(c):
    return Fraction(c) if isinstance(c, int) else c


class Polynomial:
    __slots__ = ("coeffs", "_rat")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self._rat = all(type(c) is Fraction for c in cs)

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else ZERO_DEGREE

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_rational(self) -> bool:
        return self._rat

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            coerced = _coerce(other)
            if coerced is None:
                return NotImplemented
            other = coerced
        if self._rat and other._rat:
            an, ad = _pack(self.coeffs)
            bn, bd = _pack(other.coeffs)
            cn, cd = _kernel.poly_mul(an, ad, bn, bd)
            return _unpack_poly(cn, cd)
        if self.is_zero or other.is_zero:
            return Polynomial()
        a, b = self.coeffs, other.coeffs
        out = [None] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if not cb:
                    continue
                t = ca * cb
                k = i + j
                out[k] = t if out[k] is None else out[k] + t
        zero = a[0] * 0
        return Polynomial(tuple(zero if c is None else c for c in out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial((self._one_coeff(),))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroPolynomial("polynomial division by zero")
        if self._rat and other._rat:
            an, ad = _pack(self.coeffs)
            bn, bd = _pack(other.coeffs)
            qn, qd, rn, rd = _kernel.poly_divmod(an, ad, bn, bd)
            return _unpack_poly(qn, qd), _unpack_poly(rn, rd)
        if self.degree < other.degree:
            return Polynomial(), self
        rem = list(self.coeffs)
        dlen = len(other.coeffs)
        qlen = len(rem) - dlen + 1
        quo = [None] * qlen
        # one inversion per division: over a number field each one is
        # a full extended gcd
        inv = other._one_coeff() / other.coeffs[-1]
        for k in range(qlen - 1, -1, -1):
            top = rem[k + dlen - 1]
            if not top:
                continue
            c = top * inv
            quo[k] = c
            for i, d in enumerate(other.coeffs):
                if d:
                    rem[k + i] = rem[k + i] - c * d
        zero = self.coeffs[0] * 0
        q = Polynomial(tuple(zero if c is None else c for c in quo))
        return q, Polynomial(tuple(rem[: dlen - 1]))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        coerced = _coerce(other)
        if coerced is None:
            return NotImplemented
        return self.coeffs == coerced.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- structure ----------------------------------------------------

    def monic(self) -> "Polynomial":
        lead = self.lc
        try:
            if lead == 1:
                return self
        except TypeError:
            pass
        inv = self._one_coeff() / lead
        return Polynomial(tuple(c * inv for c in self.coeffs))

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def map_coefficients(self, fn: Callable) -> "Polynomial":
        return Polynomial(tuple(fn(c) for c in self.coeffs))

    def __call__(self, x):
        """Horner evaluation; coefficients promote into the ring of x."""
        if not self.coeffs:
            return x * 0
        acc = self.coeffs[-1] * (x * 0 + 1) if len(self.coeffs) == 1 else self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def _one_coeff(self):
        if self.coeffs:
            return one_like(self.coeffs[-1])
        return Fraction(1)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*X")
            else:
                parts.append(f"{c}*X^{i}")
        return " + ".join(parts)


X = Polynomial((0, 1))
ONE = Polynomial((1,))


def _coerce(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial((value,))
    # scalar-like coefficient (duck typed: supports * and +)
    if hasattr(value, "__mul__") and not isinstance(value, (list, tuple, str)):
        return Polynomial((value,))
    return None


def _pack(coeffs: Sequence[Fraction]):
    return [c.numerator for c in coeffs], [c.denominator for c in coeffs]


def _unpack_poly(nums, dens) -> Polynomial:
    p = Polynomial.__new__(Polynomial)
    p.coeffs = tuple(Fraction(n, d) for n, d in zip(nums, dens))
    p._rat = True
    return p


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if a.is_zero and b.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
        if not a.is_zero:
            a = a.monic()  # keeps coefficient growth down over Q
    return a.monic()


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero or b.is_zero:
        return Polynomial()
    return ((a * b) // poly_gcd(a, b)).monic()


def ext_gcd(a: Polynomial, b: Polynomial):
    """Extended gcd with canonical minimal-degree cofactors.

    Returns (g, s, t) with s*a + t*b = g, g monic, and, whenever both
    inputs have positive degree and neither divides the other,
    deg(s) < deg(b) - deg(g) and deg(t) < deg(a) - deg(g).  Equal
    inputs resolve to s = 1/lc(a), t = 0.
    """
    if a.is_zero and b.is_zero:
        raise BothZero("ext_gcd(0, 0) is undefined")
    if a == b or b.is_zero:
        g = a.monic()
        inv = a._one_coeff() / a.lc
        return g, Polynomial((inv,)), Polynomial()
    if a.is_zero:
        g = b.monic()
        inv = b._one_coeff() / b.lc
        return g, Polynomial(), Polynomial((inv,))
    r0, r1 = a, b
    one = a._one_coeff()
    s0, s1 = Polynomial((one,)), Polynomial()
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    inv = one / r0.lc  # makes g monic and scales s to match
    g = r0.map_coefficients(lambda c: c * inv)
    s = s0.map_coefficients(lambda c: c * inv)
    cofactor = b // g
    if cofactor.degree > 0:
        s = s % cofactor
    else:
        s = Polynomial()
    t = (g - s * a) // b  # exact by construction
    return g, s, t


def compose_mod(f: Polynomial, g: Polynomial, m: Polynomial) -> Polynomial:
    """f(g) mod m by Horner's rule, reducing after every step."""
    acc = Polynomial()
    for c in reversed(f.coeffs):
        acc = (acc * g + c) % m
    return acc


def squarefree_part(p: Polynomial):
    """Radical of p together with its multiplicity profile.

    Yun's algorithm over a field of characteristic zero.  Returns
    (g, profile) where g is the monic product of the distinct
    irreducible factors of p and profile lists (factor_product, k)
    pairs, one for each multiplicity k that occurs, highest k first.
    """
    if p.is_zero:
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return Polynomial((Fraction(1),)), []
    d = p.derivative()
    u = poly_gcd(p, d)
    v = p // u
    w = d // u
    profile = []
    k = 1
    while v.degree > 0:
        wv = w - v.derivative()
        h = poly_gcd(v, wv) if not wv.is_zero else v.monic()
        if h.degree > 0:
            profile.append((h, k))
        v = v // h
        w = wv // h
        k += 1
    g = Polynomial((Fraction(1),))
    for h, _ in profile:
        g = g * h
    profile.sort(key=lambda item: -item[1])
    return g.monic(), profile


def hasse_derivative(f: Polynomial, k: int) -> Polynomial:
    """k-th Hasse derivative: sum of C(m, k) * a_m * X^(m-k).

    Equals the k-th formal derivative divided by k! in characteristic
    zero; the zeroth Hasse derivative is f itself.
    """
    if k < 0:
        raise ValueError("Hasse derivative order must be nonnegative")
    if k == 0:
        return f
    return Polynomial(
        tuple(comb(m, k) * f.coeffs[m] for m in range(k, len(f.coeffs)))
    )


def trace_coeffwise(p: Polynomial) -> Polynomial:
    """Coefficient-wise number field trace down to the rationals.

    Coefficients must be elements of one number field (plain rationals
    are read as embedded rationals, whose trace is degree * value).
    """
    if not p.coeffs:
        return Polynomial()
    field = None
    for c in p.coeffs:
        f = getattr(c, "field", None)
        if f is None:
            continue
        if field is None:
            field = f
        elif f.modulus != field.modulus:
            raise MixedModuli("coefficients from different number fields")
    if field is None:
        raise FieldMismatch("no number field coefficient to take the trace of")
    d = field.degree
    out = []
    for c in p.coeffs:
        if isinstance(c, Fraction):
            out.append(d * c)
        else:
            out.append(c.trace())
    return Polynomial(tuple(out))
