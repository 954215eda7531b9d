"""Dense square matrices over Q and over real multi-quadratic fields.

Every matrix is stored one way: as sum(sqrt(label) * A_label) over one
positive denominator, with integer parts A_label keyed by squarefree
label.  The form is canonical: all-zero parts are dropped and no factor
is common to the denominator and every part, so equality and
``is_zero`` compare integers.  A rational matrix is the label-1 case.

A type bit, ``is_rational``, says how the entries read: Fractions for a
rational matrix, MultiQuads for one over Q(sqrt(d1), ...), even when
its values happen to be rational.  A result is rational exactly when
its operands (and scalar) are; ``as_multiquad`` flips the bit.

A product is one integer ``mat_mul`` (in :mod:`mindec._kernel`) per
pair of labels, combined through sqrt(a) * sqrt(b) = coef * sqrt(label);
sums, scalar multiples, transposes, powers and Horner steps run on the
parts too.  Entries are built only when ``rows`` or ``entry`` is read,
and kept.  The Krylov minimal polynomial and the fraction-free
elimination behind rank, inverse and kernel accept rational matrices
only (FieldMismatch otherwise); the real-closed verifiers certify their
polynomials by evaluation instead.  Elimination pivots on the first
nonzero entry of each column, so all results are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from typing import Dict, List, Sequence, Tuple

from mindec import _kernel
from mindec.errors import FieldMismatch, SingularMatrix
from mindec.poly import ONE, Polynomial, poly_lcm
from mindec.scalar import MultiQuad, _label_mul, cleared_row

#: {squarefree label: integer rows} of a matrix over one denominator
Parts = Dict[int, tuple]


class MatrixAnalysis:
    """Results computed from one matrix, each at most once.

    The fields are filled on first use by the functions that compute
    them: the minimal polynomial and the covariant system by
    :func:`mindec.decompose.system_of` (the minimal polynomial also by
    :func:`mindec.decompose.sn_newton_oracle`), the additive parts
    (S, N, s_poly) by :func:`mindec.decompose.sn_decompose`, and the
    projectors E_i(M) of that system by
    :func:`mindec.covariant.materialize_projectors`.  A DenseMatrix is
    immutable, so each value stays valid for the matrix's lifetime.
    No field refers back to the matrix, so dropping the matrix frees
    its analysis without waiting for the cycle collector.
    """

    __slots__ = ("min_poly", "system", "sn_parts", "projectors")

    def __init__(self):
        self.min_poly = None
        self.system = None
        self.sn_parts = None
        self.projectors = None


class DenseMatrix:
    """A square matrix; immutable.

    Holds ``_parts`` ({label: integer rows}) over ``_den`` and the type
    bit ``_rat``; ``_rows`` caches the entries once read.  Rows of
    Fraction (or int) entries make a rational matrix; rows with at
    least one MultiQuad entry, the rest Fractions, make a MultiQuad
    one.  Other entries raise FieldMismatch.
    """

    __slots__ = ("n", "_parts", "_den", "_rat", "_rows", "_analysis")

    def __init__(self, rows: Sequence[Sequence]):
        rs = tuple(tuple(Fraction(e) if isinstance(e, int) else e for e in r) for r in rows)
        n = len(rs)
        if n == 0 or any(len(r) != n for r in rs):
            raise ValueError("matrix must be square and nonempty")
        kinds = {type(e) for r in rs for e in r}
        bad = kinds - {Fraction, MultiQuad}
        if bad:
            raise FieldMismatch(f"matrix entries must be rational or MultiQuad, not {bad.pop().__name__}")
        self.n = n
        self._rat = MultiQuad not in kinds
        if self._rat:
            den = lcm(*(e.denominator for r in rs for e in r))
            num = tuple(tuple(cleared_row(r, den)) for r in rs)
            self._parts = {1: num} if any(map(any, num)) else {}
            self._den = den
            self._rows = rs
        else:
            self._parts, self._den = _parts_of_rows(rs)
            self._rows = None

    @classmethod
    def _of_parts(cls, n: int, parts: Parts, den: int, rat: bool) -> "DenseMatrix":
        # sum(sqrt(label) * part) / den, already canonical (see _reduced)
        m = object.__new__(cls)
        m.n = n
        m._parts = parts
        m._den = den
        m._rat = rat
        m._rows = None
        return m

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls._of_parts(n, {1: _int_identity(n, 1)}, 1, True)

    @classmethod
    def zeros(cls, n: int) -> "DenseMatrix":
        return cls._of_parts(n, {}, 1, True)

    @classmethod
    def scaled_identity(cls, n: int, c) -> "DenseMatrix":
        """c times the identity; rational exactly when c is."""
        cs, cd = _scalar_parts(c)
        parts = {lbl: _int_identity(n, x) for lbl, x in cs.items()}
        return cls._of_parts(n, parts, cd, not isinstance(c, MultiQuad))

    @property
    def rows(self) -> Tuple[tuple, ...]:
        """The entries as a tuple of row tuples: reduced Fractions for a
        rational matrix, MultiQuads otherwise; built on first access
        and kept."""
        rows = self._rows
        if rows is None:
            n, d = self.n, self._den
            if not self._rat:
                rows = _rows_of_parts(n, self._parts, d)
            elif not self._parts:
                rows = ((Fraction(0),) * n,) * n
            elif d == 1:
                rows = tuple(tuple(map(Fraction, r)) for r in self._parts[1])
            else:
                rows = tuple(tuple(Fraction(x, d) for x in r) for r in self._parts[1])
            self._rows = rows
        return rows

    @property
    def is_rational(self) -> bool:
        return self._rat

    @property
    def labels(self) -> Tuple[int, ...]:
        """Sorted squarefree labels of the nonzero parts; a rational
        matrix has (1,) or, if zero, ()."""
        return tuple(sorted(self._parts))

    def as_multiquad(self) -> "DenseMatrix":
        """This matrix with MultiQuad entries: the same parts, so a
        rational matrix becomes its label-1 form."""
        if not self._rat:
            return self
        return DenseMatrix._of_parts(self.n, self._parts, self._den, False)

    @property
    def analysis(self) -> MatrixAnalysis:
        """This matrix's :class:`MatrixAnalysis`, created on first access
        so that building a matrix costs nothing extra."""
        try:
            return self._analysis
        except AttributeError:
            self._analysis = MatrixAnalysis()
            return self._analysis

    @property
    def is_zero(self) -> bool:
        return not self._parts

    def transpose(self) -> "DenseMatrix":
        parts = {lbl: tuple(zip(*p)) for lbl, p in self._parts.items()}
        return DenseMatrix._of_parts(self.n, parts, self._den, self._rat)

    def trace(self):
        n, d = self.n, self._den
        coords = {}
        for lbl, p in sorted(self._parts.items()):
            t = sum(p[i][i] for i in range(n))
            if t:
                coords[lbl] = Fraction(t, d)
        if self._rat:
            return coords.get(1, Fraction(0))
        return MultiQuad._raw(coords)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def __add__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return _combine(self, other, 1)

    def __sub__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return _combine(self, other, -1)

    def __neg__(self):
        parts = {lbl: _scaled(p, -1) for lbl, p in self._parts.items()}
        return DenseMatrix._of_parts(self.n, parts, self._den, self._rat)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            p = scalar.numerator
            parts = {lbl: _scaled(P, p) for lbl, P in self._parts.items()}
            return _reduced(self.n, parts, self._den * scalar.denominator, self._rat)
        if isinstance(scalar, MultiQuad):
            cs, cd = _scalar_parts(scalar)
            terms: Dict[int, list] = {}
            for la, A in self._parts.items():
                for lc, x in cs.items():
                    coef, lbl = _label_mul(la, lc)
                    terms.setdefault(lbl, []).append((coef * x, A))
            parts = {lbl: _lincomb(t) for lbl, t in terms.items()}
            return _reduced(self.n, parts, self._den * cd, False)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        n = self.n
        if n != other.n:
            raise ValueError("order mismatch")
        ap, bp = self._parts, other._parts
        den = self._den * other._den
        rat = self._rat and other._rat
        if len(ap) <= 1 and len(bp) <= 1:
            # one integer product, also when a factor is zero
            (la, A), (lb, B) = _sole(ap, n), _sole(bp, n)
            coef, lbl = _label_mul(la, lb)
            return _reduced(n, {lbl: _scaled(_kernel.mat_mul(A, B), coef)}, den, rat)
        terms: Dict[int, list] = {}
        for la, A in ap.items():
            for lb, B in bp.items():
                coef, lbl = _label_mul(la, lb)
                terms.setdefault(lbl, []).append((coef, _kernel.mat_mul(A, B)))
        return _reduced(n, {lbl: _lincomb(t) for lbl, t in terms.items()}, den, rat)

    def __pow__(self, k: int) -> "DenseMatrix":
        if k < 0:
            return inverse(self) ** (-k)
        result = DenseMatrix.identity(self.n)
        if not self._rat:
            result = result.as_multiquad()
        base = self
        while k:
            if k & 1:
                result = result @ base
            if k > 1:
                base = base @ base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        # the canonical form is unique, whatever the type bit
        return self.n == other.n and self._den == other._den and self._parts == other._parts

    def __repr__(self):
        return f"DenseMatrix({[[str(e) for e in row] for row in self.rows]})"


def _int_identity(n: int, c: int) -> Tuple[tuple, ...]:
    zero = (0,) * n
    return tuple(zero[:i] + (c,) + zero[i + 1 :] for i in range(n))


def _zeros(n: int) -> tuple:
    return ((0,) * n,) * n


def _sole(parts: Parts, n: int) -> Tuple[int, tuple]:
    # the (label, part) of a matrix with at most one part; zero as label 1
    if parts:
        return next(iter(parts.items()))
    return 1, _zeros(n)


def _scaled(P: tuple, c: int) -> tuple:
    return P if c == 1 else tuple(tuple(c * x for x in r) for r in P)


def _reduced(n: int, parts: Parts, den: int, rat: bool) -> DenseMatrix:
    """The matrix sum(sqrt(label) * part) / den (den != 0), canonical:
    all-zero parts dropped, the content common to den and every part
    divided out and den made positive."""
    if not all(map(any, map(chain.from_iterable, parts.values()))):
        parts = {lbl: p for lbl, p in parts.items() if any(map(any, p))}
    if den != 1:
        g = gcd(den, *chain.from_iterable(chain.from_iterable(parts.values())))
        if den < 0:
            g = -g
        if g != 1:
            parts = {lbl: tuple(tuple(x // g for x in r) for r in p) for lbl, p in parts.items()}
            den //= g
    return DenseMatrix._of_parts(n, parts, den, rat)


def _coords(e) -> Dict[int, Fraction]:
    # {label: coefficient} of a Fraction or MultiQuad entry
    if type(e) is MultiQuad:
        return e._coords
    return {1: e} if e else {}


def _parts_of_rows(rows) -> Tuple[Parts, int]:
    """(parts, den) of rows of Fraction and MultiQuad entries.  den is
    the lcm of the reduced coordinate denominators, so no factor is
    common to den and every part, and only nonzero parts arise."""
    n = len(rows)
    coords = [[_coords(e) for e in r] for r in rows]
    den = lcm(*(c.denominator for r in coords for e in r for c in e.values()))
    parts: Dict[int, list] = {}
    for i, r in enumerate(coords):
        for j, e in enumerate(r):
            for lbl, c in e.items():
                part = parts.get(lbl)
                if part is None:
                    part = parts[lbl] = [[0] * n for _ in range(n)]
                part[i][j] = c.numerator * (den // c.denominator)
    return {lbl: tuple(map(tuple, p)) for lbl, p in sorted(parts.items())}, den


def _rows_of_parts(n: int, parts: Parts, den: int) -> Tuple[tuple, ...]:
    # entry (i, j) is the MultiQuad sum(sqrt(label) * part[i][j]) / den
    items = sorted(parts.items())
    return tuple(
        tuple(
            MultiQuad._raw({lbl: Fraction(p[i][j], den) for lbl, p in items if p[i][j]})
            for j in range(n)
        )
        for i in range(n)
    )


def _scalar_parts(c) -> Tuple[Dict[int, int], int]:
    """({label: integer}, den) of a rational or MultiQuad scalar, den
    the lcm of its coordinate denominators."""
    if isinstance(c, (int, Fraction)):
        return ({1: c.numerator} if c else {}), c.denominator
    if not isinstance(c, MultiQuad):
        raise FieldMismatch(f"scalars must be rational or MultiQuad, not {type(c).__name__}")
    coords = c._coords
    den = lcm(*(x.denominator for x in coords.values()))
    return {lbl: x.numerator * (den // x.denominator) for lbl, x in coords.items()}, den


def _lincomb(terms) -> tuple:
    """sum(coef * P) over the (coef, P) in terms, P integer matrices."""
    (coef, P), *rest = terms
    if not rest:
        return _scaled(P, coef)
    coefs = [c for c, _ in terms]
    return tuple(
        tuple(sum(map(mul, coefs, xs)) for xs in zip(*rs))
        for rs in zip(*(P for _, P in terms))
    )


def _combine(A: DenseMatrix, B: DenseMatrix, sign: int) -> DenseMatrix:
    """A + sign * B, sign in (1, -1), part by part over the lcm of the
    two denominators."""
    ap, ad, bp, bd = A._parts, A._den, B._parts, B._den
    den = ad // gcd(ad, bd) * bd
    fa, fb = den // ad, sign * (den // bd)
    parts = {}
    for lbl in chain(ap, (lbl for lbl in bp if lbl not in ap)):
        P, Q = ap.get(lbl), bp.get(lbl)
        if Q is None:
            parts[lbl] = _scaled(P, fa)
        elif P is None:
            parts[lbl] = _scaled(Q, fb)
        elif fa == 1 and fb in (1, -1):
            op = add if fb == 1 else sub
            parts[lbl] = tuple(tuple(map(op, rp, rq)) for rp, rq in zip(P, Q))
        else:
            parts[lbl] = tuple(
                tuple(fa * x + fb * y for x, y in zip(rp, rq)) for rp, rq in zip(P, Q)
            )
    return _reduced(A.n, parts, den, A._rat and B._rat)


def _rational_ints(M: DenseMatrix, what: str) -> Tuple[tuple, int]:
    """(integer rows, denominator) of a rational matrix; FieldMismatch
    for a MultiQuad one."""
    if not M._rat:
        raise FieldMismatch(f"{what} expects a matrix with rational entries")
    return _sole(M._parts, M.n)[1], M._den


def rref_rows(rows: Sequence[Sequence]) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form of a rectangular array of rationals;
    returns (rows, pivot_columns)."""
    rows = [[Fraction(e) if isinstance(e, int) else e for e in r] for r in rows]
    if not all(type(e) is Fraction for r in rows for e in r):
        raise FieldMismatch("rref_rows expects rational entries")
    red, den, pivots = _kernel.rref([cleared_row(r) for r in rows])
    return [[Fraction(x, den) for x in r] for r in red], pivots


def rank(M: DenseMatrix) -> int:
    return len(_kernel.rref(_rational_ints(M, "rank")[0])[2])


def inverse(M: DenseMatrix) -> DenseMatrix:
    """Exact inverse of a rational M = A/d: the integer [A | I] reduces
    to [den*I | R], and M^-1 = d*R/den."""
    num, d = _rational_ints(M, "inverse")
    n = M.n
    red, den, pivots = _kernel.rref([r + e for r, e in zip(num, _int_identity(n, 1))])
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix has no inverse")
    return _reduced(n, {1: tuple(tuple(d * x for x in r[n:]) for r in red)}, den, True)


def kernel_basis(M: DenseMatrix) -> List[Tuple]:
    """Basis of the right null space of a rational matrix, one vector
    per free column of the reduced echelon form, in column order."""
    red, den, pivots = _kernel.rref(_rational_ints(M, "kernel_basis")[0])
    n = M.n
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = Fraction(-red[r][free], den)
        basis.append(tuple(vec))
    return basis


def mat_vec(M: DenseMatrix, vec: Sequence) -> list:
    out = []
    for row in M.rows:
        acc = row[0] * vec[0]
        for a, v in zip(row[1:], vec[1:]):
            if a:
                acc = acc + a * v
        out.append(acc)
    return out


def horner_eval(f: Polynomial, M: DenseMatrix) -> DenseMatrix:
    """Evaluate a polynomial at a matrix by Horner's rule.

    Rational coefficients go with any matrix, MultiQuad coefficients
    need a MultiQuad matrix; others raise FieldMismatch.  Each step is
    one product and additions on the diagonals of the parts; no entry
    is built.
    """
    for c in f.coeffs:
        if isinstance(c, MultiQuad):
            if M._rat:
                raise FieldMismatch("MultiQuad coefficients at a rational matrix")
        elif not isinstance(c, Fraction):
            raise FieldMismatch(f"unsupported coefficient {type(c).__name__}")
    n = M.n
    if f.is_zero:
        acc = DenseMatrix.zeros(n)
    else:
        acc = DenseMatrix.scaled_identity(n, f.coeffs[-1])
        for c in reversed(f.coeffs[:-1]):
            acc = acc @ M
            if c:
                acc = _plus_diagonal(acc, c)
    return acc if M._rat else acc.as_multiquad()


def _plus_diagonal(A: DenseMatrix, c) -> DenseMatrix:
    # A + c*I, with additions on the diagonals of the parts only
    n, d = A.n, A._den
    cs, cd = _scalar_parts(c)
    den = d // gcd(d, cd) * cd
    fa, fc = den // d, den // cd
    parts = dict(A._parts) if fa == 1 else {lbl: _scaled(P, fa) for lbl, P in A._parts.items()}
    for lbl, x in cs.items():
        rows = list(map(list, parts.get(lbl) or _zeros(n)))
        y = fc * x
        for i in range(n):
            rows[i][i] += y
        parts[lbl] = tuple(map(tuple, rows))
    return _reduced(n, parts, den, A._rat and not isinstance(c, MultiQuad))


def minimal_polynomial(M: DenseMatrix) -> Polynomial:
    """Monic minimal polynomial of a rational matrix, by per-vector
    Krylov annihilators.

    For each standard basis vector the least linear dependence among
    v, Av, A^2 v, ... of the integer matrix A = d*M is found by ordered
    fraction-free elimination that carries the combination
    coefficients: a vector is reduced by w <- p*w - w[pc]*v against each
    kept (pc, v) with pivot p, its tracker alongside, and the pair is
    divided by its content.  The lcm of the per-vector annihilators is
    m_A, and the loop stops once it has degree n; then
    m_M(X) = d^-k * m_A(d*X).  A MultiQuad matrix raises FieldMismatch.
    """
    A, d = _rational_ints(M, "minimal_polynomial")
    n = M.n
    mp = ONE
    for j in range(n):
        cur = [0] * n
        cur[j] = 1
        reduced = []  # (pivot_col, vector, tracker), integers
        for k in range(n + 1):
            w = cur
            t = [0] * k + [1]
            for pc, pv, pt in reduced:
                f = w[pc]
                if f:
                    p = pv[pc]
                    w = [p * x - f * y for x, y in zip(w, pv)]
                    t = [p * x for x in t]
                    for i, y in enumerate(pt):
                        if y:
                            t[i] -= f * y
            if not any(w):
                mp = poly_lcm(mp, Polynomial._of_ints(t, t[-1]))
                break
            g = gcd(*w, *t)
            if g != 1:
                w = [x // g for x in w]
                t = [x // g for x in t]
            pc = next(i for i in range(n) if w[i])
            reduced.append((pc, w, t))
            cur = [sum(map(mul, row, cur)) for row in A]
        if mp.degree == n:
            break
    if d == 1:
        return mp
    k = mp.degree
    return Polynomial._of_ints([x * d**i for i, x in enumerate(mp._num)], mp._den * d**k)


def companion(p: Polynomial) -> DenseMatrix:
    """Companion matrix of a monic rational polynomial of degree >= 1."""
    if p.degree < 1 or p.lc != 1 or not p.is_rational:
        raise ValueError("companion needs a monic rational polynomial of degree >= 1")
    n = p.degree
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Fraction(1)
    for i in range(n):
        rows[i][n - 1] = -p.coefficient(i)
    return DenseMatrix(rows)


def is_symmetric(M: DenseMatrix) -> bool:
    return M.transpose() == M


def is_normal(M: DenseMatrix) -> bool:
    t = M.transpose()
    return M @ t == t @ M


def commute(A: DenseMatrix, B: DenseMatrix) -> bool:
    return A @ B == B @ A
