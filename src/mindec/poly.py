"""Dense univariate polynomials over an exact field.

Coefficients are read low degree first with trailing zeros stripped,
so the tuple index is the degree and the zero polynomial is the empty
tuple.  Integer coefficients, and MultiQuad coefficients of rational
value, are normalized to :class:`~fractions.Fraction` at construction,
so a product over Q(sqrt(d1), ...) that lands in Q[X] is a rational
polynomial; any other coefficient is a field element, kept as
given: a :class:`~mindec.scalar.MultiQuad` of Q(sqrt(d1), ...) or a
:class:`~mindec.scalar.NumberFieldElement` of Q[Y]/(m).  The contract
of such a coefficient is ``+``, ``-``, ``*`` and ``==`` with itself and
with an integer, a truth value, and ``inverse()``; every reciprocal of
a coefficient goes through :func:`_reciprocal`, so division, ``monic``,
``poly_gcd`` and ``ext_gcd`` run over either field.  A value outside
that contract (a float, a matrix) is no coefficient: arithmetic with it
raises TypeError.

The degree of the zero polynomial is the sentinel -1.

A rational polynomial (every coefficient a Fraction, the zero
polynomial included) is stored as integer coefficients over one
positive denominator, with no factor common to the denominator and
every coefficient; that form is unique, so equality compares integers.
Sums, products, division (integer pseudo-division in
:mod:`mindec._kernel`) and ``monic`` run on those integers, and the
Fraction coefficients are built only when ``coeffs`` is read, and kept.
Other polynomials take the generic path, which is semantically
identical.

Two helpers serve every module above this one.  ``binary_power`` is
the one square-and-multiply loop, behind the powers of matrices,
polynomials, number field elements and residues mod p.
``ratio_to_string`` and ``_int_to_string`` are the one writer of
integers, for output and messages alike: they write any length in
full, past the interpreter's limit on one ``str()`` conversion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd, lcm
from operator import add, mul, sub
from typing import Callable, Iterable

from mindec import _kernel
from mindec.errors import BothZero, FieldMismatch, MixedModuli, ZeroPolynomial

ZERO_DEGREE = -1


def _norm_coeff(c):
    # an int, or a MultiQuad of rational value, is the Fraction it equals
    if isinstance(c, int):
        return Fraction(c)
    return c.rational_part if type(c) is scalar.MultiQuad and c.is_rational else c


class Polynomial:
    """A polynomial; immutable.

    A rational polynomial holds ``_num`` (a tuple of ints) over ``_den``
    and builds ``_coeffs`` on demand; other polynomials hold
    ``_coeffs`` only, with ``_num`` None.  Their coefficients need only
    ring operations, comparison with an integer, a truth value and
    ``inverse()`` (see the module docstring).
    """

    __slots__ = ("_coeffs", "_num", "_den")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)
        if all(type(c) is Fraction for c in cs):
            den = lcm(*(c.denominator for c in cs))
            # reduced Fractions over their lcm share no factor with it
            self._num = tuple(c.numerator * (den // c.denominator) for c in cs)
            self._den = den
        else:
            self._num = None

    @classmethod
    def _of_ints(cls, num, den: int) -> "Polynomial":
        """The rational polynomial num / den, for integers num without
        trailing zeros and den != 0: the content common to den and num
        is divided out and den made positive."""
        if den != 1:
            g = gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = [x // g for x in num]
                den //= g
        p = object.__new__(cls)
        p._coeffs = None
        p._num = tuple(num)
        p._den = den
        return p

    @property
    def coeffs(self) -> tuple:
        """The coefficients, low degree first; for a rational
        polynomial, reduced Fractions built on first access and kept."""
        cs = self._coeffs
        if cs is None:
            d = self._den
            if d == 1:
                cs = tuple(map(Fraction, self._num))
            else:
                cs = tuple(Fraction(x, d) for x in self._num)
            self._coeffs = cs
        return cs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        n = self._num
        return len(self._coeffs if n is None else n) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == ZERO_DEGREE

    @property
    def lc(self):
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_rational(self) -> bool:
        return self._num is not None

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self._num is not None and other._num is not None:
            return _rational_combine(self, other, add)
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
        if self._num is not None and other._num is not None:
            return _rational_combine(self, other, sub)
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        if self._num is not None:
            return Polynomial._of_ints([-x for x in self._num], self._den)
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            coerced = _coerce(other)
            if coerced is None:
                return NotImplemented
            other = coerced
        if self._num is not None and other._num is not None:
            return Polynomial._of_ints(
                _kernel.poly_mul(self._num, other._num), self._den * other._den
            )
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
        return binary_power(self, n, mul) if n else Polynomial((self._one_coeff(),))

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroPolynomial("polynomial division by zero")
        if self.degree < other.degree:
            return Polynomial(), self
        if self._num is not None and other._num is not None:
            # scale * a_num = q * b_num + r with a = a_num / a_den and
            # b = b_num / b_den, so a = (q * b_den / d) * b + r / d for
            # d = scale * a_den
            q, r, scale = _kernel.poly_divmod(self._num, other._num)
            d = scale * self._den
            bd = other._den
            if bd != 1:
                q = [bd * x for x in q]
            return Polynomial._of_ints(q, d), Polynomial._of_ints(r, d)
        rem = list(self.coeffs)
        dlen = len(other.coeffs)
        qlen = len(rem) - dlen + 1
        quo = [None] * qlen
        # one inversion per division: over a number field each one is
        # a full extended gcd
        inv = _reciprocal(other.coeffs[-1])
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
        if not isinstance(other, Polynomial):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self._num is not None and other._num is not None:
            # the reduced integer form is unique
            return self._num == other._num and self._den == other._den
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    # -- structure ----------------------------------------------------

    def monic(self) -> "Polynomial":
        num = self._num
        if num:
            # num / lc(num), which divides out the content of num
            return self if num[-1] == self._den else Polynomial._of_ints(num, num[-1])
        lead = self.lc
        if lead == 1:
            return self
        inv = _reciprocal(lead)
        return Polynomial(tuple(c * inv for c in self.coeffs))

    def derivative(self) -> "Polynomial":
        num = self._num
        if num is not None:
            # i * lc != 0, so no trailing zero arises
            return Polynomial._of_ints([i * x for i, x in enumerate(num) if i], self._den)
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def map_coefficients(self, fn: Callable) -> "Polynomial":
        return Polynomial(tuple(fn(c) for c in self.coeffs))

    def __call__(self, x):
        """Horner evaluation; coefficients promote into the ring of x."""
        if self.is_zero:
            return x * 0
        cs = self.coeffs
        acc = cs[-1] * (x * 0 + 1) if len(cs) == 1 else cs[-1]
        for c in reversed(cs[:-1]):
            acc = acc * x + c
        return acc

    def _one_coeff(self):
        if self._num is not None:
            return Fraction(1)
        # the one of the field the leading coefficient belongs to
        return self._coeffs[-1] * 0 + 1

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        """A rational polynomial in the text form the expression grammar
        reads, e.g. "4 - 30*X + X^2", its integers written in full;
        other coefficients as "c*X^k" terms joined by " + "."""
        rational = self._num is not None
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            power = "X" if k == 1 else f"X^{k}"
            if k and rational and abs(c) == 1:
                terms.append(power if c > 0 else "-" + power)
            else:
                text = ratio_to_string(c.numerator, c.denominator) if rational else str(c)
                terms.append(f"{text}*{power}" if k else text)
        text = " + ".join(terms) or "0"
        # a rational coefficient's text holds no "+"
        return text.replace("+ -", "- ") if rational else text


X = Polynomial((0, 1))
ONE = Polynomial((1,))


def binary_power(base, e: int, times: Callable):
    """base^e for e >= 1 under an associative product times(a, b), by
    square-and-multiply from no product: popcount(e) - 1 products
    besides the squarings, none of them with an identity."""
    result = None
    while True:
        if e & 1:
            result = base if result is None else times(result, base)
        e >>= 1
        if not e:
            return result
        base = times(base, base)


def ratio_to_string(num: int, den: int) -> str:
    """The decimal form "p/q" of num/den, den > 0, reduced by one gcd,
    or "p" when q is 1, for integers of any length."""
    g = gcd(num, den)
    if g == den:
        return _int_to_string(num // den)
    return f"{_int_to_string(num // g)}/{_int_to_string(den // g)}"


#: bit length below which str() converts an int at once: under 3,613
#: digits, inside CPython's default limit of 4,300 per conversion
_STR_BITS = 12000


def _int_to_string(n: int) -> str:
    # str() refuses ints past the interpreter's digit limit, so a long
    # one is split at a power of ten near half its digits
    if n.bit_length() < _STR_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_to_string(-n)
    k = n.bit_length() * 3 // 20  # log10(2) / 2 is about 0.15
    high, low = divmod(n, 10**k)
    return _int_to_string(high) + _int_to_string(low).zfill(k)


def _coerce(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial._of_ints((value.numerator,) if value else (), value.denominator)
    # a field element: the generic coefficient contract
    if hasattr(value, "inverse"):
        return Polynomial((value,))
    return None


def _reciprocal(c):
    """1 / c for a nonzero coefficient: a Fraction's quotient, any other
    field element's ``inverse()``."""
    return 1 / c if type(c) is Fraction else c.inverse()


def _rational_combine(a: Polynomial, b: Polynomial, op) -> Polynomial:
    # a op b for op in (add, sub), over the lcm of the two denominators
    an, ad = a._num, a._den
    bn, bd = b._num, b._den
    den = ad
    if ad != bd:
        den = ad // gcd(ad, bd) * bd
        fa, fb = den // ad, den // bd
        an = [fa * x for x in an]
        bn = [fb * x for x in bn]
    out = [op(x, y) for x, y in zip_longest(an, bn, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return Polynomial._of_ints(out, den)


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
        return a.monic(), Polynomial((_reciprocal(a.lc),)), Polynomial()
    if a.is_zero:
        return b.monic(), Polynomial(), Polynomial((_reciprocal(b.lc),))
    r0, r1 = a, b
    s0, s1 = Polynomial((a._one_coeff(),)), Polynomial()
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    inv = _reciprocal(r0.lc)  # makes g monic and scales s to match
    g = r0 * inv
    s = s0 * inv
    cofactor = b // g
    if cofactor.degree > 0:
        s = s % cofactor
    else:
        s = Polynomial()
    t = (g - s * a) // b  # exact by construction
    return g, s, t


def compose_mod(f: Polynomial, z: Polynomial, m: Polynomial) -> Polynomial:
    """f(z) mod m for rational f, z and m (FieldMismatch otherwise): the
    table z^0 ... z^k mod m, k = deg f, then one integer combination."""
    if not (f.is_rational and z.is_rational and m.is_rational):
        raise FieldMismatch("compose_mod expects rational polynomials")
    return on_powers(f, power_table(z, m, f.degree))


def power_table(z: Polynomial, m: Polynomial, k: int) -> list:
    """[z^0, ..., z^k] mod m, each entry reduced; every entry is 0 for a
    constant m."""
    table = [ONE % m, z % m]
    while len(table) <= k:
        table.append(table[-1] * table[1] % m)
    return table


def on_powers(f: Polynomial, table) -> Polynomial:
    """f(z) = sum(f_k * z^k) for rational f, with table[k] = z^k mod m
    for k <= deg f (see power_table): one integer combination over the
    common denominator, reduced mod m as each table entry is."""
    terms = [(c, t) for c, t in zip(f._num, table) if c and t]
    if not terms:
        return Polynomial()
    den = lcm(*(t._den for _, t in terms))
    acc = [0] * max(len(t._num) for _, t in terms)
    for c, t in terms:
        c *= den // t._den
        for i, x in enumerate(t._num):
            acc[i] += c * x
    while acc and not acc[-1]:
        acc.pop()
    return Polynomial._of_ints(acc, den * f._den)


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


# scalar imports this module, so it is bound last; _norm_coeff reads
# MultiQuad from it when called
from mindec import scalar  # noqa: E402
