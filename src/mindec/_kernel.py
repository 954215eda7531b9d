"""Exact kernels: the hot loops of rational polynomial and matrix
arithmetic, on Python ints alone.

A rational polynomial or matrix is stored as integers over one positive
common denominator (see :mod:`mindec.poly` and :mod:`mindec.matrix`),
so these kernels take and return integers and need no gcd per entry;
the caller divides out the content common to a result and its
denominator once.  A polynomial is a coefficient sequence with
index = degree and no trailing zeros; a matrix is a sequence of rows.
"""

from math import gcd

BACKEND = "python"


def poly_mul(a, b):
    """Product of two integer polynomials, as a list."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def poly_divmod(a, b):
    """Pseudo-division of integer polynomials, b nonzero.

    Returns (q, r, scale) with scale * a = q * b + r, deg r < deg b and
    scale > 0.  Each step eliminates the remainder's leading term t
    after multiplying the remainder and q by |lc(b)| / gcd(t, lc(b))
    only, so a divisor whose leading coefficient divides every t costs
    no growth; scale is the product of those factors (Geddes, Czapor &
    Labahn, Algorithms for Computer Algebra, 1992, ch. 2).
    """
    lb = len(b)
    rem = list(a)
    qlen = len(rem) - lb + 1
    if qlen <= 0:
        return [], rem, 1
    lead = b[-1]
    quot = [0] * qlen
    scale = 1
    for k in range(qlen - 1, -1, -1):
        top = rem[k + lb - 1]
        if not top:
            continue
        g = gcd(top, lead)
        if lead < 0:
            g = -g
        m = lead // g  # top * m == c * lead, m > 0
        c = top // g
        if m != 1:
            rem = [m * x for x in rem]
            quot = [m * x for x in quot]
            scale *= m
        quot[k] = c
        rem[k : k + lb] = [x - c * y for x, y in zip(rem[k : k + lb], b)]
    del rem[lb - 1 :]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem, scale


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
