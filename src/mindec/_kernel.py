"""Exact rational kernels: the hot loops of rational polynomial and
matrix arithmetic.

A rational is a pair of Python ints (numerator, denominator) with
denominator > 0 and gcd(numerator, denominator) = 1.  Sequences of
rationals travel as two parallel flat lists, numerators and
denominators; matrices are row-major, polynomials are coefficient
lists with index = degree and no trailing zeros.
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


def mat_mul(an, ad, bn, bd, n, k, m):
    """Product of an n*k and a k*m rational matrix, both row-major."""
    cn = [0] * (n * m)
    cd = [1] * (n * m)
    for i in range(n):
        arow = i * k
        crow = i * m
        for t in range(k):
            atn = an[arow + t]
            if atn == 0:
                continue
            atd = ad[arow + t]
            brow = t * m
            for j in range(m):
                btn = bn[brow + j]
                if btn == 0:
                    continue
                pn, pd = _mul(atn, atd, btn, bd[brow + j])
                cn[crow + j], cd[crow + j] = _add(cn[crow + j], cd[crow + j], pn, pd)
    return cn, cd


def rref(an, ad, rows, cols):
    """Reduced row echelon form by Gauss-Jordan elimination.

    Pivots on the first nonzero entry of each column, top down, so the
    result is deterministic.  Returns (nums, dens, pivot_columns).
    """
    rn = list(an)
    rd = list(ad)
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = -1
        for r in range(rank, rows):
            if rn[r * cols + col] != 0:
                pivot = r
                break
        if pivot < 0:
            continue
        if pivot != rank:
            a, b = pivot * cols, rank * cols
            for j in range(cols):
                rn[a + j], rn[b + j] = rn[b + j], rn[a + j]
                rd[a + j], rd[b + j] = rd[b + j], rd[a + j]
        base = rank * cols
        pn, pd = rn[base + col], rd[base + col]
        if pn != pd:  # scale pivot row to a leading 1
            for j in range(col, cols):
                if rn[base + j] != 0:
                    tn, td = _mul(rn[base + j], rd[base + j], pd, pn)
                    if td < 0:
                        tn, td = -tn, -td
                    rn[base + j], rd[base + j] = tn, td
        for r in range(rows):
            if r == rank:
                continue
            off = r * cols
            fn, fd = rn[off + col], rd[off + col]
            if fn == 0:
                continue
            for j in range(col, cols):
                if rn[base + j] == 0:
                    continue
                tn, td = _mul(fn, fd, rn[base + j], rd[base + j])
                rn[off + j], rd[off + j] = _add(rn[off + j], rd[off + j], -tn, td)
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    return rn, rd, pivots
