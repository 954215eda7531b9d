"""Independent reference computations for the derived test cases.

Nothing here goes through the library's arithmetic paths: interval
sign determination, Cramer solves of hand-built multiplication
matrices, plain-Fraction Gaussian elimination, inverses, null spaces
and Krylov minimal polynomials, schoolbook polynomial products, long
division, Euclidean gcds, and a covariant build and per-factor slices
on those.  Tests freeze expected values by computing them through
these instead of trusting the code under test.
"""

import random
from fractions import Fraction


def sqrt2_bracket(width: Fraction):
    """Rational (lo, hi) with lo^2 < 2 < hi^2 and hi - lo < width, by
    interval bisection from [1, 2]."""
    lo, hi = Fraction(1), Fraction(2)
    while hi - lo >= width:
        mid = (lo + hi) / 2
        if mid * mid < 2:
            lo = mid
        else:
            hi = mid
    return lo, hi


def sign_a_plus_b_sqrt2(a: Fraction, b: Fraction, width=Fraction(1, 100)) -> int:
    """Sign of a + b*sqrt(2) by interval refinement.

    Narrows the bracket until both endpoints give the same sign (the
    value is assumed nonzero when a, b are not both zero and the
    bracket separates it from zero at the requested width).
    """
    if b == 0:
        return (a > 0) - (a < 0)
    while True:
        lo, hi = sqrt2_bracket(width)
        ends = [a + b * lo, a + b * hi]
        if all(e > 0 for e in ends):
            return 1
        if all(e < 0 for e in ends):
            return -1
        width /= 2


def cramer2(m00, m01, m10, m11, r0, r1):
    """Exact solve of a 2x2 linear system by Cramer's rule."""
    det = m00 * m11 - m01 * m10
    if det == 0:
        raise ZeroDivisionError("singular 2x2 system")
    return (r0 * m11 - r1 * m01) / det, (m00 * r1 - m10 * r0) / det


def invert_a_plus_b_sqrt2(a: Fraction, b: Fraction):
    """Coordinates (c, d) of 1/(a + b*sqrt(2)) = c + d*sqrt(2).

    Uses the multiplication matrix of a + b*sqrt(2) on the basis
    (1, sqrt(2)): columns (a, b) and (2b, a); solves M x = (1, 0).
    """
    return cramer2(a, 2 * b, b, a, Fraction(1), Fraction(0))


def fraction_rref(rows):
    """Reduced row echelon form of a matrix of Fractions by
    straightforward Gauss-Jordan elimination.  Returns (rows, pivots)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return rows, []
    cols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows, pivots


def fraction_rank(rows) -> int:
    """Rank of a matrix of Fractions by straightforward elimination."""
    return len(fraction_rref(rows)[1])


def frac_matmul(a, b):
    """Plain Fraction matrix product for small oracle computations."""
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum((Fraction(a[i][t]) * Fraction(b[t][j]) for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def _strip(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def frac_poly_mul(a, b):
    """Schoolbook product of Fraction coefficient lists (low degree first)."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return _strip(out)


def frac_poly_add(a, b, sign=1):
    """a + sign * b on Fraction coefficient lists (low degree first)."""
    n = max(len(a), len(b))
    a = [Fraction(x) for x in a] + [Fraction(0)] * (n - len(a))
    b = [Fraction(x) for x in b] + [Fraction(0)] * (n - len(b))
    return _strip([x + sign * y for x, y in zip(a, b)])


def frac_poly_divmod(a, b):
    """Long division of Fraction coefficient lists; b must have a nonzero
    leading coefficient.  Returns (quotient, remainder)."""
    rem = [Fraction(x) for x in a]
    lb = len(b)
    if len(rem) < lb:
        return [], _strip(rem)
    quot = [Fraction(0)] * (len(rem) - lb + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + lb - 1] / Fraction(b[-1])
        quot[k] = c
        for i in range(lb):
            rem[k + i] -= c * Fraction(b[i])
    return _strip(quot), _strip(rem[: lb - 1])


def plain_poly_at(coeffs, rows):
    """sum_k coeffs[k] * A^k for a square matrix given as nested lists,
    through explicit powers, schoolbook products and a full identity
    matrix, in the entries' own arithmetic: plain Fractions for a
    rational matrix; for MultiQuad entries (the only other kind a
    DenseMatrix holds) the library's scalar arithmetic, so only the
    matrix-level evaluation is independent.  coeffs run from the
    constant term up."""
    n = len(rows)
    zero = rows[0][0] * 0
    power = [[zero + (1 if i == j else 0) for j in range(n)] for i in range(n)]
    total = [[zero] * n for _ in range(n)]
    for c in coeffs:
        total = [[t + c * p for t, p in zip(tr, pr)] for tr, pr in zip(total, power)]
        power = [
            [sum((power[i][t] * rows[t][j] for t in range(n)), zero) for j in range(n)]
            for i in range(n)
        ]
    return total


def frac_poly_monic_gcd(a, b):
    """Monic gcd of Fraction coefficient lists by the Euclidean
    algorithm on long division."""
    a, b = _strip([Fraction(x) for x in a]), _strip([Fraction(x) for x in b])
    while b:
        a, b = b, frac_poly_divmod(a, b)[1]
    return [x / a[-1] for x in a] if a else []


def frac_poly_compose_mod(f, g, m):
    """f(g) mod m on Fraction coefficient lists, by Horner's rule with
    long division after every step."""
    acc = []
    for c in reversed(f):
        acc = frac_poly_divmod(frac_poly_add(frac_poly_mul(acc, g), [c]), m)[1]
    return acc


def frac_poly_monic_lcm(a, b):
    """Monic lcm of two nonzero Fraction coefficient lists."""
    quot, rem = frac_poly_divmod(frac_poly_mul(a, b), frac_poly_monic_gcd(a, b))
    assert not rem
    return [x / quot[-1] for x in quot]


def frac_poly_ext_gcd(a, b):
    """(g, s) for Fraction coefficient lists a, b with b of positive
    degree: g the monic gcd and s * a = g mod b with s reduced mod b / g,
    by the extended Euclidean algorithm on long division."""
    r0, r1 = _strip([Fraction(x) for x in a]), _strip([Fraction(x) for x in b])
    s0, s1 = [Fraction(1)], []
    while r1:
        quot, rem = frac_poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, frac_poly_add(s0, frac_poly_mul(quot, s1), -1)
    inv = 1 / r0[-1]
    g, s = [x * inv for x in r0], [x * inv for x in s0]
    cofactor = frac_poly_divmod(b, g)[0]
    return g, frac_poly_divmod(s, cofactor)[1] if len(cofactor) > 1 else []


def frac_covariant_witnesses(factors):
    """[(E_i, S_i, N_i)] as Fraction coefficient lists for [(m_i, mu_i)],
    the m_i distinct monic irreducibles given as coefficient lists.

    The construction the library replaced: u_i from one extended gcd of
    the whole complement G_i = m / q_i with q_i = m_i^mu_i, E_i = u_i G_i,
    the root lift z_i by Newton's iteration from X in Q[X]/(q_i), then
    S_i = E_i z_i mod m and N_i = X E_i - S_i.
    """
    powers = []
    for m_i, mu in factors:
        q = [Fraction(1)]
        for _ in range(mu):
            q = frac_poly_mul(q, m_i)
        powers.append(q)
    m = [Fraction(1)]
    for q in powers:
        m = frac_poly_mul(m, q)
    out = []
    for (m_i, mu), q in zip(factors, powers):
        complement, rem = frac_poly_divmod(m, q)
        assert not rem
        g, u = frac_poly_ext_gcd(complement, q)
        assert g == [1]
        e = frac_poly_mul(u, complement)
        dm = _strip([k * Fraction(c) for k, c in enumerate(m_i)][1:])
        z = [Fraction(0), Fraction(1)]
        for _ in range((mu - 1).bit_length()):
            g, inv = frac_poly_ext_gcd(frac_poly_compose_mod(dm, z, q), q)
            assert g == [1]
            step = frac_poly_mul(frac_poly_compose_mod(m_i, z, q), inv)
            z = frac_poly_divmod(frac_poly_add(z, step, -1), q)[1]
        s = frac_poly_divmod(frac_poly_mul(e, z), m)[1]
        out.append((e, s, frac_poly_add([Fraction(0)] + e, s, -1)))
    return out


def frac_slice_sums(factors, f):
    """(sum of E_i f(s), sum of E_i (f - f(s))) mod m as Fraction
    coefficient lists, for [(m_i, mu_i)] as in frac_covariant_witnesses
    and f a coefficient list: the per-factor slices of f through the
    covariants, s = sum(S_i) and m = prod m_i^mu_i, with f(s) mod m by
    Horner's rule and a factor of multiplicity one given no nilpotent
    slice."""
    m = [Fraction(1)]
    for m_i, mu in factors:
        for _ in range(mu):
            m = frac_poly_mul(m, m_i)
    witnesses = frac_covariant_witnesses(factors)
    s = []
    for _, s_i, _ in witnesses:
        s = frac_poly_add(s, s_i)
    f_m = frac_poly_divmod(f, m)[1]
    f_s = frac_poly_compose_mod(f, s, m)
    sem, nil = [], []
    for (_, mu), (e, _, _) in zip(factors, witnesses):
        sem = frac_poly_add(sem, frac_poly_divmod(frac_poly_mul(e, f_s), m)[1])
        if mu > 1:
            nil_i = frac_poly_mul(e, frac_poly_add(f_m, f_s, -1))
            nil = frac_poly_add(nil, frac_poly_divmod(nil_i, m)[1])
    return sem, nil


def fraction_minimal_polynomial(rows):
    """Monic minimal polynomial (coefficients, constant term first) of a
    square matrix of Fractions: the lcm of the Krylov annihilators of
    the standard basis vectors, each found by elimination on plain
    Fractions that carries the combination coefficients."""
    n = len(rows)
    rows = [[Fraction(x) for x in r] for r in rows]
    mp = [Fraction(1)]
    for j in range(n):
        cur = [Fraction(int(i == j)) for i in range(n)]
        reduced = []  # (pivot column, vector, tracker), pivot scaled to 1
        for k in range(n + 1):
            w = list(cur)
            t = [Fraction(0)] * k + [Fraction(1)]
            for pc, pv, pt in reduced:
                fac = w[pc]
                w = [x - fac * y for x, y in zip(w, pv)]
                t = [x - fac * (pt[i] if i < len(pt) else 0) for i, x in enumerate(t)]
            if not any(w):
                mp = frac_poly_monic_lcm(mp, t)
                break
            pc = next(i for i in range(n) if w[i])
            inv = 1 / w[pc]
            reduced.append((pc, [x * inv for x in w], [x * inv for x in t]))
            cur = [sum((a * b for a, b in zip(r, cur)), Fraction(0)) for r in rows]
    return mp


def fraction_inverse(rows):
    """Inverse of a square matrix of Fractions from the reduced echelon
    form of [A | I], or None when A is singular."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = fraction_rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [r[n:] for r in red]


def fraction_null_space(rows):
    """Right null space basis of a square matrix of Fractions, one
    vector per free column of the reduced echelon form, in column
    order."""
    n = len(rows)
    red, pivots = fraction_rref(rows)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [Fraction(int(i == free)) for i in range(n)]
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][free]
        basis.append(vec)
    return basis


def entrywise_matmul(a, b):
    """Product of square matrices given as nested lists, entry by entry
    in the entries' own scalar arithmetic (MultiQuad, Fraction or a mix
    of both): the schoolbook sum over t of a[i][t] * b[t][j]."""
    n = len(a)
    zero = a[0][0] * 0
    return [
        [sum((a[i][t] * b[t][j] for t in range(n)), zero) for j in range(n)]
        for i in range(n)
    ]


#: the fields Q(sqrt(d1), ...) of the K[X] Euclid tests, each given by
#: its radicands d1, ..., pairwise coprime
MULTIQUAD_FIELDS = {"Q(sqrt2)": (2,), "Q(sqrt2,sqrt3)": (2, 3), "Q(sqrt-1)": (-1,)}


def multiquad_gcd_cases(radicands, count=4):
    """count seeded triples (g, u, v) of coefficient lists, low degree
    first, over Q(sqrt(d) for d in radicands).  Each coefficient is a
    {label: Fraction} coordinate dict on the labels, the products of
    the radicands, and the leading one is nonzero: deg g is 1 or 2 and
    deg u, deg v are at most 3, so a = g*u and b = g*v share g."""
    labels = [1]
    for d in radicands:
        labels += [l * d for l in labels]
    rng = random.Random(f"multiquad-gcd:{radicands}")

    def poly(low, high):
        coeffs = [
            {l: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for l in labels if rng.random() < 0.6}
            for _ in range(rng.randint(low, high) + 1)
        ]
        if not any(coeffs[-1].values()):
            coeffs[-1] = {1: Fraction(1)}
        return coeffs

    return [(poly(1, 2), poly(0, 3), poly(0, 3)) for _ in range(count)]
