"""Exact kernels: the hot loops of rational polynomial and matrix
arithmetic.

Polynomials: a rational is a pair of Python ints (numerator,
denominator) with denominator > 0 and gcd(numerator, denominator) = 1.
A coefficient sequence travels as two parallel flat lists, numerators
and denominators, with index = degree and no trailing zeros.

Matrices: sequences of integer rows.  A rational matrix is stored as
integer rows over one common denominator (see :mod:`mindec.matrix`), so
products and elimination run on Python ints alone, with no gcd per
entry.
"""

from math import gcd

BACKEND = "python"


def _add(an, ad, bn, bd):
    # Knuth's scheme: reduce by gcd of denominators before the cross sum.
    g = gcd(ad, bd)
    if g == 1:
        return an * bd + bn * ad, ad * bd
    t = an * (bd // g) + bn * (ad // g)
    g2 = gcd(t, g)
    return t // g2, (ad // g) * (bd // g2)


def _mul(an, ad, bn, bd):
    if an == 0 or bn == 0:
        return 0, 1
    g1 = gcd(an, bd)
    g2 = gcd(bn, ad)
    return (an // g1) * (bn // g2), (ad // g2) * (bd // g1)


def poly_mul(an, ad, bn, bd):
    """Product of two dense rational polynomials."""
    la, lb = len(an), len(bn)
    if la == 0 or lb == 0:
        return [], []
    out = la + lb - 1
    cn = [0] * out
    cd = [1] * out
    for i in range(la):
        ani = an[i]
        if ani == 0:
            continue
        adi = ad[i]
        for j in range(lb):
            bnj = bn[j]
            if bnj == 0:
                continue
            tn, td = _mul(ani, adi, bnj, bd[j])
            k = i + j
            cn[k], cd[k] = _add(cn[k], cd[k], tn, td)
    while cn and cn[-1] == 0:
        cn.pop()
        cd.pop()
    return cn, cd


def poly_divmod(an, ad, bn, bd):
    """Quotient and remainder of dense rational polynomials.

    The divisor must be nonzero; the caller checks.
    """
    la, lb = len(an), len(bn)
    if la < lb:
        return [], [], list(an), list(ad)
    rn = list(an)
    rd = list(ad)
    qlen = la - lb + 1
    qn = [0] * qlen
    qd = [1] * qlen
    ln, ld = bn[-1], bd[-1]
    for k in range(qlen - 1, -1, -1):
        top = k + lb - 1
        if rn[top] == 0:
            continue
        # leading coefficient of remainder divided by that of divisor
        cn, cd = _mul(rn[top], rd[top], ld, ln)
        if cd < 0:
            cn, cd = -cn, -cd
        qn[k], qd[k] = cn, cd
        for i in range(lb):
            if bn[i] == 0:
                continue
            tn, td = _mul(cn, cd, bn[i], bd[i])
            rn[k + i], rd[k + i] = _add(rn[k + i], rd[k + i], -tn, td)
    while qn and qn[-1] == 0:
        qn.pop()
        qd.pop()
    del rn[lb - 1 :]
    del rd[lb - 1 :]
    while rn and rn[-1] == 0:
        rn.pop()
        rd.pop()
    return qn, qd, rn, rd


def mat_mul(a, b):
    """Product of an n*k and a k*m integer matrix, as a tuple of row
    tuples.  Each row is the sum of its nonzero multiples of rows of b,
    which skips the zeros of a."""
    zero = (0,) * (len(b[0]) if b else 0)
    out = []
    for row in a:
        terms = [(x, brow) for x, brow in zip(row, b) if x]
        if terms:
            x, brow = terms[0]
            acc = [x * y for y in brow]
            for x, brow in terms[1:]:
                acc = [s + x * y for s, y in zip(acc, brow)]
            out.append(tuple(acc))
        else:
            out.append(zero)
    return tuple(out)


def rref(rows):
    """Reduced row echelon form of an integer matrix by fraction-free
    Gauss-Jordan elimination (Bareiss, Math. Comp. 1968).

    Pivots on the first nonzero entry of each column, top down.  Each
    step replaces every other row r by (p*r - r[col]*pivot_row) / prev,
    p the new pivot and prev the one before; the division is exact
    because every entry stays a minor of the input.  All pivots of the
    result equal the last one, den, so the reduced echelon form is
    rows / den.  Returns (rows, den, pivot_columns), den != 0 (1 when
    there is no pivot).
    """
    rs = [list(r) for r in rows]
    nrows = len(rs)
    ncols = len(rs[0]) if nrows else 0
    pivots = []
    prev = 1
    rank = 0
    for col in range(ncols):
        for r in range(rank, nrows):
            if rs[r][col]:
                break
        else:
            continue
        rs[rank], rs[r] = rs[r], rs[rank]
        prow = rs[rank]
        p = prow[col]
        for i in range(nrows):
            if i == rank:
                continue
            row = rs[i]
            f = row[col]
            if f:
                rs[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                rs[i] = [p * x // prev for x in row]
        prev = p
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rs, prev, pivots
