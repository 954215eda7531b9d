"""Factorization of rational polynomials into monic irreducibles.

Yun's squarefree decomposition over Q comes first, and each squarefree
part is reduced to a primitive integer polynomial a_n X^n + ... + a_0.
A part of degree <= 2 is solved in closed form: a linear part is
irreducible, and a quadratic one splits over Q exactly when its
discriminant b^2 - 4ac is a square s^2 (isqrt), with roots
(-b +- s) / 2a.  A part of degree >= 3 takes the classical Zassenhaus
route: made monic by the substitution X -> X/lc scaled back at the
end, factored modulo an odd prime, lifted by quadratic Hensel steps to
a Mignotte-style coefficient bound, and recombined from subsets of its
modular factors by trial division.

The cost is the recombination: up to 2^(r-1) subsets of the r modular
factors, whatever the degree.  So up to _SCAN_PRIMES good primes are
tried, stopping at the first that leaves at most _FEW_FACTORS factors,
and the prime leaving the fewest is kept (Musser, J. ACM 22, 1975).
Subsets are tried by increasing width up to half the remaining
factors, which is exhaustive: of a true factor and its cofactor, one
is built from at most half of them (at exactly half, only the subsets
holding the first factor are tried).  Every subset tried counts
against RECOMBINATION_BUDGET, and nothing else does, so a part of
degree <= 2 never touches it; a squarefree part that needs more raises
RecombinationBudgetExceeded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, zip_longest
from math import gcd, isqrt
from typing import List, Optional, Tuple

from mindec import _kernel
from mindec.errors import RecombinationBudgetExceeded, ZeroPolynomial
from mindec.poly import Polynomial, X, binary_power, squarefree_part

#: Subsets of modular factors one squarefree part may try.  A part left
#: with r <= 16 modular factors never needs more (an irreducible one
#: needs 2^(r-1) - 1), so every part of degree <= 16 completes.
RECOMBINATION_BUDGET = 2**15

# the prime scan stops at the first prime leaving this few modular
# factors, and after _SCAN_PRIMES good primes in any case
_FEW_FACTORS = 6
_SCAN_PRIMES = 5


# -- arithmetic in Z/m[X]: dense int lists, index = degree -----------
#
# Division and gcd invert mod m, so they need a prime m or, for the
# Hensel lifting below, a monic divisor.


def _gf_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_mul(a, b, p):
    return _gf_trim([c % p for c in _kernel.poly_mul(a, b)])


def _gf_sub(a, b, p):
    return _gf_add(a, [-y for y in b], p)


def _gf_add(a, b, m):
    return _gf_trim([(x + y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _gf_monic(a, p):
    inv = pow(a[-1], p - 2, p)
    return [(c * inv) % p for c in a]


def _gf_divmod(a, b, p):
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], _gf_trim(a)
    inv = pow(b[-1], p - 2, p)
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = (a[k + db] * inv) % p
        if c:
            q[k] = c
            for i, bi in enumerate(b):
                if bi:
                    a[k + i] = (a[k + i] - c * bi) % p
    return _gf_trim(q), _gf_trim(a[:db])


def _gf_gcd(a, b, p):
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    return _gf_monic(a, p) if a else []

def _gf_ext_gcd(a, b, p):
    # returns (g, s, t) with s*a + t*b = g, g monic
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, p), p)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
    inv = pow(r0[-1], p - 2, p)
    scale = lambda v: [(c * inv) % p for c in v]
    return _gf_monic(r0, p), scale(s0), scale(t0)


def _gf_pow_mod(base, e, mod, p):
    # base^e mod mod for e >= 1
    return binary_power(
        _gf_divmod(base, mod, p)[1], e, lambda a, b: _gf_divmod(_gf_mul(a, b, p), mod, p)[1]
    )


def _gf_deriv(a, p):
    return _gf_trim([(i * c) % p for i, c in enumerate(a)][1:])


def _distinct_degree(f, p):
    # f monic squarefree; returns [(product_of_factors, degree)]
    out = []
    h = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _gf_pow_mod(h, p, f, p)
        g = _gf_gcd(_gf_sub(h, [0, 1], p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _gf_divmod(f, g, p)[0]
            h = _gf_divmod(h, f, p)[1] if len(f) > 1 else []
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f, d, p, rng):
    # Cantor-Zassenhaus splitting for odd p; f a product of degree-d
    # irreducibles
    n = len(f) - 1
    if n == d:
        return [f]
    exponent = (p**d - 1) // 2
    while True:
        a = _gf_trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _gf_gcd(a, f, p)
        if 1 < len(g) < len(f):
            left, right = g, _gf_divmod(f, g, p)[0]
        else:
            b = _gf_pow_mod(a, exponent, f, p)
            g = _gf_gcd(_gf_sub(b, [1], p), f, p)
            if not 1 < len(g) < len(f):
                continue
            left, right = g, _gf_divmod(f, g, p)[0]
        return _equal_degree(left, d, p, rng) + _equal_degree(right, d, p, rng)


def _factor_mod_p(f, split, p):
    """Full factorization of a monic squarefree f in GF(p)[X] from its
    distinct-degree split."""
    rng = random.Random(f"cz:{p}:{f}")
    out = []
    for product, d in split:
        out.extend(_equal_degree(product, d, p, rng))
    out.sort(key=lambda a: (len(a), a))
    return out


# -- lifting in Z/m[X] ------------------------------------------------


def _hensel_pair(f, g, h, s, t, p, target):
    """Lift f = g*h from mod p to mod target = p^(2^k).

    f, g, h monic; s*g + t*h = 1 mod p.  Quadratic steps; the Bezout
    pair is lifted alongside so every step starts from a valid pair.
    """
    m = p
    while m < target:
        m2 = m * m
        e = _gf_sub([c % m2 for c in f], _gf_mul(g, h, m2), m2)
        q, r = _gf_divmod(_gf_mul(t, e, m2), g, m2)
        g1 = _gf_add(g, r, m2)
        h1 = _gf_add(h, _gf_add(_gf_mul(s, e, m2), _gf_mul(q, h, m2), m2), m2)
        if m2 >= target:
            return g1, h1
        b = _gf_sub(_gf_add(_gf_mul(s, g1, m2), _gf_mul(t, h1, m2), m2), [1], m2)
        c, d = _gf_divmod(_gf_mul(t, b, m2), g1, m2)
        t = _gf_sub(t, d, m2)
        s = _gf_sub(_gf_sub(s, _gf_mul(s, b, m2), m2), _gf_mul(c, h1, m2), m2)
        g, h = g1, h1
        m = m2
    return [c % target for c in g], [c % target for c in h]


def _hensel_tree(f, modular, p, target):
    """Lift a list of coprime monic mod-p factors of monic f to mod
    target, recursing on balanced halves."""
    if len(modular) == 1:
        return [[c % target for c in f]]
    half = len(modular) // 2
    left, right = modular[:half], modular[half:]
    g0 = [1]
    for fac in left:
        g0 = _gf_mul(g0, fac, p)
    h0 = [1]
    for fac in right:
        h0 = _gf_mul(h0, fac, p)
    _, s, t = _gf_ext_gcd(g0, h0, p)
    g, h = _hensel_pair(f, g0, h0, s, t, p, target)
    return _hensel_tree(g, left, p, target) + _hensel_tree(h, right, p, target)


def _centered(c, m):
    c %= m
    return c - m if c > m // 2 else c


# -- the integer-level driver -----------------------------------------


def _int_poly(p: Polynomial) -> List[int]:
    """Scale a nonzero rational polynomial to a primitive integer
    coefficient list with positive leading coefficient."""
    num = p._num
    content = gcd(*num)
    if num[-1] < 0:
        content = -content
    return [c // content for c in num]


def _factor_squarefree(w: List[int]) -> List[Polynomial]:
    """Monic rational irreducible factors of a primitive squarefree
    integer polynomial with positive leading coefficient, in no set
    order: :func:`factor_rational` sorts them by :func:`factor_order`."""
    n = len(w) - 1
    if n == 1:
        return [Polynomial._of_ints(w, w[1])]
    if n == 2:
        c, b, a = w
        disc = b * b - 4 * a * c
        s = isqrt(disc) if disc > 0 else 0
        if s * s != disc:
            return [Polynomial._of_ints(w, a)]
        # w = a (X + (b - s)/2a)(X + (b + s)/2a)
        return [Polynomial._of_ints((b + t, 2 * a), 2 * a) for t in (-s, s)]
    lead = w[-1]
    # monicize: F(X) = lead^(n-1) * w(X/lead) is monic with integer
    # coefficients and the same splitting behaviour
    F = [w[i] * lead ** (n - 1 - i) for i in range(n)] + [1]
    r, p, fp, split = _best_prime(F)
    if r == 1:
        return [_descale(F, lead)]
    modular = _factor_mod_p(fp, split, p)
    norm2 = isqrt(sum(c * c for c in F)) + 1
    bound = 2 * (norm2 << n) + 1
    target = p
    while target < bound:
        target *= target
    found = _recombine(F, _hensel_tree(F, modular, p, target), target)
    return [_descale(h, lead) for h in found]


def _best_prime(F: List[int]):
    """(r, p, F mod p, its distinct-degree split) at the good prime p
    leaving the fewest factors r among the first _SCAN_PRIMES; the scan
    stops early at a prime leaving at most _FEW_FACTORS.  F is monic,
    so a prime is good when F stays squarefree modulo it."""
    best, p, scanned = None, 3, 0
    while scanned < _SCAN_PRIMES and (best is None or best[0] > _FEW_FACTORS):
        fp = [c % p for c in F]
        if len(_gf_gcd(fp, _gf_deriv(fp, p), p)) == 1:
            scanned += 1
            split = _distinct_degree(fp, p)
            r = sum((len(g) - 1) // d for g, d in split)
            if best is None or r < best[0]:
                best = r, p, fp, split
        p = _next_prime(p)
    return best


def _recombine(F: List[int], pool: List[List[int]], target: int) -> List[List[int]]:
    """Irreducible factors of monic F over Z from its factors mod
    target.  A subset whose constant term does not divide that of the
    remaining cofactor is rejected before its product is formed."""
    found: List[List[int]] = []
    remaining, r = F, len(pool)
    trials = 0
    width = 1
    while 2 * width <= len(pool):
        subsets = combinations(range(len(pool)), width)
        if 2 * width == len(pool):
            # each subset of half the factors or its complement holds 0
            subsets = ((0,) + s for s in combinations(range(1, len(pool)), width - 1))
        for subset in subsets:
            trials += 1
            if trials > RECOMBINATION_BUDGET:
                raise RecombinationBudgetExceeded(
                    f"recombining {r} modular factors of a degree-{len(F) - 1} "
                    f"squarefree part needs more than {RECOMBINATION_BUDGET} subset trials"
                )
            const = 1
            for i in subset:
                const = const * pool[i][0] % target
            const = _centered(const, target)
            if not const or remaining[0] % const:
                continue
            prod = [1]
            for i in subset:
                prod = _gf_mul(prod, pool[i], target)
            cand = [_centered(c, target) for c in prod]
            q, rem, _ = _kernel.poly_divmod(remaining, cand)  # cand is monic
            if not rem:
                found.append(cand)
                remaining = q
                pool = [fac for i, fac in enumerate(pool) if i not in subset]
                break
        else:
            width += 1
    if len(remaining) > 1:
        found.append(remaining)
    return found


def _descale(H: List[int], lead: int) -> Polynomial:
    # undo the monicization substitution: factor of F gives
    # H(lead * X) / lead^deg as a monic factor of the original
    d = len(H) - 1
    return Polynomial._of_ints([h * lead**i for i, h in enumerate(H)], lead**d)


def _next_prime(p: int) -> int:
    q = p + 2
    while True:
        if all(q % r for r in range(3, isqrt(q) + 1, 2)):
            return q
        q += 2


# -- public surface ---------------------------------------------------


@dataclass(frozen=True)
class FactoredMinPoly:
    """Monic polynomial split into irreducible factors with
    multiplicities, the factor X (zero eigenvalue class) ordered last."""

    factors: Tuple[Tuple[Polynomial, int], ...]

    @property
    def degree(self) -> int:
        return sum(f.degree * mult for f, mult in self.factors)

    @property
    def zero_index(self) -> Optional[int]:
        for i, (f, _) in enumerate(self.factors):
            if f == X:
                return i
        return None

    @property
    def is_squarefree(self) -> bool:
        return all(mult == 1 for _, mult in self.factors)


def factor_order(p: Polynomial):
    """Sort key of a monic irreducible factor: by degree, then by
    coefficients, the factor X last.  Factorizations and the image
    classes of :func:`mindec.matfun.f_equivalence_classes` both follow
    it."""
    return (p == X, p.degree, p.coeffs)


def factor_rational(p: Polynomial) -> FactoredMinPoly:
    """Factor a rational polynomial into monic irreducibles.

    The content and leading coefficient are discarded: the result
    represents the monic polynomial p / lc(p).  Raises
    RecombinationBudgetExceeded when a squarefree part needs more
    subset trials than RECOMBINATION_BUDGET, and ZeroPolynomial for
    the zero input.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if not p.is_rational:
        raise ValueError("factor_rational expects rational coefficients")
    if p.degree == 0:
        return FactoredMinPoly(())
    _, profile = squarefree_part(p)
    pairs: List[Tuple[Polynomial, int]] = []
    for part, mult in profile:
        if part.coefficient(0) == 0:
            part = part // X
            pairs.append((X, mult))
        if part.degree >= 1:
            for irr in _factor_squarefree(_int_poly(part)):
                pairs.append((irr, mult))
    return FactoredMinPoly(tuple(sorted(pairs, key=lambda fm: factor_order(fm[0]))))
