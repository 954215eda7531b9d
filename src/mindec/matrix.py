"""Dense square matrices over an exact field.

Entries are Fractions, MultiQuad scalars, or number field elements;
integer input entries are normalized to Fraction.  Everything is exact:
elimination pivots on the first nonzero entry of each column, so all
results are deterministic.

A purely rational matrix is stored as integer rows over one positive
common denominator, with no factor common to the denominator and every
entry; that form is unique, so equality compares integers.  Products,
sums, Horner steps, the Krylov minimal polynomial and elimination
(fraction-free, in :mod:`mindec._kernel`) run on those integers.

A matrix over Q(sqrt(d1), ...) (MultiQuad entries, possibly mixed with
Fractions) is stored the same way, as sum(sqrt(label) * A_label) over
one positive denominator: integer parts A_label keyed by squarefree
label, all-zero parts dropped and no factor common to the denominator
and every part.  The rational form is its label-1 case.  A product is
one integer ``mat_mul`` per pair of labels, combined through
sqrt(a) * sqrt(b) = coef * sqrt(label); sums, scalar multiples,
transposes, equality and Horner steps run on the parts too.

Fraction or MultiQuad entries are built only when ``rows`` or ``entry``
is read, and kept.  Number field entries use the generic entrywise
code paths, as do elimination and rank over MultiQuad entries.  The
minimal polynomial is computed for rational matrices only (the
real-closed verifiers certify theirs by evaluation instead).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from mindec import _kernel
from mindec.errors import FieldMismatch, SingularMatrix
from mindec.poly import ONE, Polynomial, poly_lcm
from mindec.scalar import (
    MultiQuad,
    NumberFieldElement,
    _label_mul,
    cleared_row,
    one_like,
)

#: a matrix over Q(sqrt(d1), ...): ({label: integer rows}, denominator)
Parts = Tuple[Dict[int, tuple], int]


def _norm_entry(e):
    return Fraction(e) if isinstance(e, int) else e


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

    A rational matrix holds ``_num`` (integer rows) over ``_den`` and
    builds ``_rows`` (Fractions) on demand; a matrix built from Fraction
    rows computes its integer form on first arithmetic use instead.  A
    MultiQuad matrix holds ``_parts`` ({label: integer rows}) over
    ``_den`` and builds ``_rows`` (MultiQuads) on demand; one built from
    rows computes its parts at construction.  Other matrices hold
    ``_rows`` only.
    """

    __slots__ = ("n", "_rows", "_num", "_den", "_parts", "_rat", "_analysis")

    def __init__(self, rows: Sequence[Sequence]):
        rs = tuple(tuple(_norm_entry(e) for e in row) for row in rows)
        n = len(rs)
        if n == 0 or any(len(r) != n for r in rs):
            raise ValueError("matrix must be square and nonempty")
        self.n = n
        self._rows = rs
        self._num = None
        self._parts = None
        kinds = {type(e) for r in rs for e in r}
        self._rat = kinds == {Fraction}
        if MultiQuad in kinds and kinds <= {Fraction, MultiQuad}:
            self._parts, self._den = _parts_of_rows(rs)

    @classmethod
    def _of_ints(cls, num, den: int) -> "DenseMatrix":
        # num / den, already reduced with den > 0; num is a tuple of tuples
        m = object.__new__(cls)
        m.n = len(num)
        m._rows = None
        m._num = num
        m._den = den
        m._parts = None
        m._rat = True
        return m

    @classmethod
    def _of_parts(cls, n: int, parts: Dict[int, tuple], den: int) -> "DenseMatrix":
        # sum(sqrt(label) * part) / den, already canonical (see _mq_reduced)
        m = object.__new__(cls)
        m.n = n
        m._rows = None
        m._num = None
        m._den = den
        m._parts = parts
        m._rat = False
        return m

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls._of_ints(_int_identity(n, 1), 1)

    @classmethod
    def zeros(cls, n: int) -> "DenseMatrix":
        return cls._of_ints(((0,) * n,) * n, 1)

    @classmethod
    def scaled_identity(cls, n: int, c) -> "DenseMatrix":
        if isinstance(c, (int, Fraction)):
            return cls._of_ints(_int_identity(n, c.numerator), c.denominator)
        if isinstance(c, MultiQuad):
            return cls.identity(n) * c
        return cls([[c if i == j else Fraction(0) for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> Tuple[tuple, ...]:
        """The entries as a tuple of row tuples; for a rational matrix
        reduced Fractions, for a MultiQuad matrix MultiQuads, built on
        first access and kept."""
        rows = self._rows
        if rows is None:
            d = self._den
            if self._parts is not None:
                rows = _rows_of_parts(self.n, self._parts, d)
            elif d == 1:
                rows = tuple(tuple(map(Fraction, r)) for r in self._num)
            else:
                rows = tuple(tuple(Fraction(x, d) for x in r) for r in self._num)
            self._rows = rows
        return rows

    def _ints(self):
        """(integer rows, denominator) of a rational matrix."""
        num = self._num
        if num is None:
            rows = self._rows
            d = lcm(*(e.denominator for r in rows for e in r))
            num = self._num = tuple(tuple(cleared_row(r, d)) for r in rows)
            self._den = d
        return num, self._den

    def _labelled(self) -> Optional[Parts]:
        """(parts, denominator) of a rational or MultiQuad matrix, a
        rational one being its label-1 part; None for other entries."""
        if self._rat:
            num, den = self._ints()
            return ({1: num} if any(map(any, num)) else {}), den
        if self._parts is not None:
            return self._parts, self._den
        return None

    @property
    def is_rational(self) -> bool:
        return self._rat

    @property
    def labels(self) -> Tuple[int, ...]:
        """Sorted squarefree labels of the nonzero parts of a rational or
        MultiQuad matrix; a rational matrix has (1,) or, if zero, ()."""
        form = self._labelled()
        if form is None:
            raise FieldMismatch("labels need rational or MultiQuad entries")
        return tuple(sorted(form[0]))

    def as_multiquad(self) -> "DenseMatrix":
        """This rational or MultiQuad matrix with MultiQuad entries: the
        same parts, so a rational matrix becomes its label-1 form."""
        form = self._labelled()
        if form is None:
            raise FieldMismatch("expected rational or MultiQuad entries")
        return DenseMatrix._of_parts(self.n, *form)

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
        if self._rat:
            return not any(map(any, self._ints()[0]))
        if self._parts is not None:
            return not self._parts
        return all(not e for r in self.rows for e in r)

    def map_entries(self, fn: Callable) -> "DenseMatrix":
        return DenseMatrix([[fn(e) for e in row] for row in self.rows])

    def transpose(self) -> "DenseMatrix":
        if self._rat:
            num, den = self._ints()
            return DenseMatrix._of_ints(tuple(zip(*num)), den)
        if self._parts is not None:
            return DenseMatrix._of_parts(
                self.n, {l: tuple(zip(*p)) for l, p in self._parts.items()}, self._den
            )
        return DenseMatrix(list(zip(*self.rows)))

    def trace(self):
        if self._rat:
            num, den = self._ints()
            return Fraction(sum(num[i][i] for i in range(self.n)), den)
        rows = self.rows
        acc = rows[0][0]
        for i in range(1, self.n):
            acc = acc + rows[i][i]
        return acc

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def __add__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self._rat and other._rat:
            return _rational_combine(self, other, add)
        return _combine(self, other, add)

    def __sub__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self._rat and other._rat:
            return _rational_combine(self, other, sub)
        return _combine(self, other, sub)

    def __neg__(self):
        if self._rat:
            num, den = self._ints()
            return DenseMatrix._of_ints(tuple(tuple(-x for x in r) for r in num), den)
        parts = self._parts
        if parts is not None:
            neg = {l: tuple(tuple(-x for x in r) for r in p) for l, p in parts.items()}
            return DenseMatrix._of_parts(self.n, neg, self._den)
        return self.map_entries(lambda e: -e)

    def __mul__(self, scalar):
        if isinstance(scalar, DenseMatrix):
            return NotImplemented
        if self._rat and isinstance(scalar, (int, Fraction)):
            num, den = self._ints()
            p = scalar.numerator
            return _reduced(
                tuple(tuple(p * x for x in r) for r in num), den * scalar.denominator
            )
        if isinstance(scalar, (int, Fraction, MultiQuad)):
            form = self._labelled()
            if form is not None:
                return _mq_scaled(self.n, form, _scalar_parts(scalar))
        return self.map_entries(lambda e: e * scalar)

    def __rmul__(self, scalar):
        if isinstance(scalar, DenseMatrix):
            return NotImplemented
        if isinstance(scalar, (int, Fraction, MultiQuad)):
            return self * scalar
        return self.map_entries(lambda e: scalar * e)

    def __matmul__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("order mismatch")
        if self._rat and other._rat:
            an, ad = self._ints()
            bn, bd = other._ints()
            return _reduced(_kernel.mat_mul(an, bn), ad * bd)
        a, b = self._labelled(), other._labelled()
        if a is None or b is None:
            return _entrywise_matmul(self, other)
        (ap, ad), (bp, bd) = a, b
        terms: Dict[int, list] = {}
        for la, A in ap.items():
            for lb, B in bp.items():
                coef, lbl = _label_mul(la, lb)
                terms.setdefault(lbl, []).append((coef, _kernel.mat_mul(A, B)))
        return _mq_reduced(
            self.n, {lbl: _lincomb(t) for lbl, t in terms.items()}, ad * bd
        )

    def __pow__(self, k: int) -> "DenseMatrix":
        if k < 0:
            return inverse(self) ** (-k)
        result = DenseMatrix.identity(self.n)
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
        if self.n != other.n:
            return False
        if self._rat and other._rat:
            # the reduced integer form is unique
            return self._ints() == other._ints()
        a, b = self._labelled(), other._labelled()
        if a is not None and b is not None:
            # so is the reduced form over labels
            return a == b
        return all(
            x == y for ra, rb in zip(self.rows, other.rows) for x, y in zip(ra, rb)
        )

    def __repr__(self):
        return f"DenseMatrix({[[str(e) for e in row] for row in self.rows]})"


def _int_identity(n: int, c: int) -> Tuple[tuple, ...]:
    zero = (0,) * n
    return tuple(zero[:i] + (c,) + zero[i + 1 :] for i in range(n))


def _reduced(num, den: int) -> DenseMatrix:
    """The rational matrix num / den (den != 0), with the content common
    to den and the entries divided out and den made positive."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(num))
        if den < 0:
            g = -g
        if g != 1:
            num = tuple(tuple(x // g for x in r) for r in num)
            den //= g
    return DenseMatrix._of_ints(num, den)


def _rational_combine(A: DenseMatrix, B: DenseMatrix, op) -> DenseMatrix:
    # A op B for op in (add, sub), over the lcm of the two denominators
    an, ad = A._ints()
    bn, bd = B._ints()
    if ad == bd:
        return _reduced(tuple(tuple(map(op, ra, rb)) for ra, rb in zip(an, bn)), ad)
    den = ad // gcd(ad, bd) * bd
    fa, fb = den // ad, den // bd
    return _reduced(
        tuple(
            tuple(op(fa * x, fb * y) for x, y in zip(ra, rb)) for ra, rb in zip(an, bn)
        ),
        den,
    )


# -- the MultiQuad form ---------------------------------------------------


def _coords(e) -> Dict[int, Fraction]:
    # {label: coefficient} of a Fraction or MultiQuad entry
    if type(e) is MultiQuad:
        return e._coords
    return {1: e} if e else {}


def _parts_of_rows(rows) -> Tuple[Dict[int, tuple], int]:
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


def _rows_of_parts(n: int, parts: Dict[int, tuple], den: int) -> Tuple[tuple, ...]:
    # entry (i, j) is the MultiQuad sum(sqrt(label) * part[i][j]) / den
    items = sorted(parts.items())
    return tuple(
        tuple(
            MultiQuad._raw({l: Fraction(p[i][j], den) for l, p in items if p[i][j]})
            for j in range(n)
        )
        for i in range(n)
    )


def _mq_reduced(n: int, parts: Dict[int, tuple], den: int) -> DenseMatrix:
    """The MultiQuad matrix sum(sqrt(label) * part) / den (den != 0),
    canonical: all-zero parts dropped, the content common to den and
    every part divided out and den made positive."""
    parts = {l: p for l, p in parts.items() if any(map(any, p))}
    if den != 1:
        g = gcd(den, *chain.from_iterable(chain.from_iterable(parts.values())))
        if den < 0:
            g = -g
        if g != 1:
            parts = {
                l: tuple(tuple(x // g for x in r) for r in p) for l, p in parts.items()
            }
            den //= g
    return DenseMatrix._of_parts(n, parts, den)


def _lincomb(terms) -> tuple:
    """sum(coef * P) over the (coef, P) in terms, P integer matrices."""
    (coef, P), *rest = terms
    if not rest:
        return P if coef == 1 else tuple(tuple(coef * x for x in r) for r in P)
    coefs = [c for c, _ in terms]
    return tuple(
        tuple(sum(map(mul, coefs, xs)) for xs in zip(*rs))
        for rs in zip(*(P for _, P in terms))
    )


def _scalar_parts(c) -> Tuple[Dict[int, int], int]:
    # ({label: integer}, den) of a Fraction or MultiQuad scalar
    coords = _coords(c if isinstance(c, MultiQuad) else Fraction(c))
    den = lcm(*(x.denominator for x in coords.values()))
    return {l: x.numerator * (den // x.denominator) for l, x in coords.items()}, den


def _mq_scaled(n: int, form: Parts, scalar: Tuple[Dict[int, int], int]) -> DenseMatrix:
    # the matrix (parts, den) times the scalar ({label: integer}, den)
    (parts, den), (cs, cd) = form, scalar
    terms: Dict[int, list] = {}
    for la, A in parts.items():
        for lc, x in cs.items():
            coef, lbl = _label_mul(la, lc)
            terms.setdefault(lbl, []).append((coef * x, A))
    return _mq_reduced(n, {lbl: _lincomb(t) for lbl, t in terms.items()}, den * cd)


def _combine(A: DenseMatrix, B: DenseMatrix, op) -> DenseMatrix:
    """A op B for op in (add, sub): over the parts when both matrices
    are rational or MultiQuad, entry by entry otherwise."""
    a, b = A._labelled(), B._labelled()
    if a is None or b is None:
        return DenseMatrix([list(map(op, ra, rb)) for ra, rb in zip(A.rows, B.rows)])
    (ap, ad), (bp, bd) = a, b
    den = ad // gcd(ad, bd) * bd
    fa, fb = den // ad, den // bd
    zero = ((0,) * A.n,) * A.n
    parts = {}
    for lbl in chain(ap, (l for l in bp if l not in ap)):
        P, Q = ap.get(lbl, zero), bp.get(lbl, zero)
        parts[lbl] = tuple(
            tuple(op(fa * x, fb * y) for x, y in zip(rp, rq)) for rp, rq in zip(P, Q)
        )
    return _mq_reduced(A.n, parts, den)


def _entrywise_matmul(A: DenseMatrix, B: DenseMatrix) -> DenseMatrix:
    """A @ B entry by entry, for number field entries."""
    n = A.n
    brows = B.rows
    out = []
    for ra in A.rows:
        row = []
        for j in range(n):
            acc = ra[0] * brows[0][j]
            for t in range(1, n):
                a = ra[t]
                if a:
                    acc = acc + a * brows[t][j]
            row.append(acc)
        out.append(row)
    return DenseMatrix(out)


def _generic_rref(rows: List[list]) -> Tuple[List[list], List[int]]:
    # Gauss-Jordan over any field, first-nonzero pivoting.
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = -1
        for r in range(rank, nrows):
            if rows[r][col]:
                pivot = r
                break
        if pivot < 0:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        pval = prow[col]
        if pval != one_like(pval):
            inv = one_like(pval) / pval
            rows[rank] = prow = [e * inv for e in prow]
        for r in range(nrows):
            if r == rank:
                continue
            f = rows[r][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rows, pivots


def rref_rows(rows: Sequence[Sequence]) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form of a rectangular array of field
    elements; returns (rows, pivot_columns)."""
    rows = [[_norm_entry(e) for e in r] for r in rows]
    if all(type(e) is Fraction for r in rows for e in r):
        red, den, pivots = _kernel.rref([cleared_row(r) for r in rows])
        return [[Fraction(x, den) for x in r] for r in red], pivots
    return _generic_rref(rows)


def rank(M: DenseMatrix) -> int:
    if M._rat:
        return len(_kernel.rref(M._ints()[0])[2])
    return len(rref_rows(M.rows)[1])


def inverse(M: DenseMatrix) -> DenseMatrix:
    """Exact inverse via elimination on [M | I]; for a rational M = A/d
    the integer [A | I] reduces to [den*I | R], and M^-1 = d*R/den."""
    n = M.n
    if M._rat:
        num, d = M._ints()
        red, den, pivots = _kernel.rref(
            [list(r) + list(e) for r, e in zip(num, _int_identity(n, 1))]
        )
        if pivots[:n] != list(range(n)):
            raise SingularMatrix("matrix has no inverse")
        return _reduced(tuple(tuple(d * x for x in r[n:]) for r in red), den)
    one = one_like(M.rows[0][0])
    aug = [
        list(row) + [one if i == j else one * 0 for j in range(n)]
        for i, row in enumerate(M.rows)
    ]
    red, pivots = rref_rows(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix has no inverse")
    return DenseMatrix([row[n:] for row in red[:n]])


def kernel_basis(M: DenseMatrix) -> List[Tuple]:
    """Basis of the right null space, one vector per free column of the
    reduced echelon form, in column order."""
    n = M.n
    if M._rat:
        red, den, pivots = _kernel.rref(M._ints()[0])
        zero, one = Fraction(0), Fraction(1)
    else:
        red, pivots = rref_rows(M.rows)
        den = None
        zero = M.rows[0][0] * 0
        one = one_like(M.rows[0][0])
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [zero] * n
        vec[free] = one
        for r, pc in enumerate(pivots):
            x = red[r][free]
            vec[pc] = -x if den is None else Fraction(-x, den)
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


def _entry_kind(M: DenseMatrix):
    if M._rat:
        return "rational", None
    if M._parts is not None:
        return "multiquad", None
    field = None
    has_mq = False
    for row in M.rows:
        for e in row:
            if isinstance(e, MultiQuad):
                has_mq = True
            elif isinstance(e, NumberFieldElement):
                field = e.field
    if has_mq and field is not None:
        raise FieldMismatch("matrix mixes MultiQuad and number field entries")
    return "numberfield", field


def horner_eval(f: Polynomial, M: DenseMatrix) -> DenseMatrix:
    """Evaluate a polynomial at a matrix by Horner's rule.

    The coefficient field must embed into the entry field of M:
    rationals embed everywhere, MultiQuad coefficients need MultiQuad
    entries, number field coefficients need entries over the same
    modulus.  When M and f are both rational every step is an integer
    product and n integer additions on the diagonal; no Fraction is
    built.  Over MultiQuad entries each step is the same on the parts.
    """
    kind, field = _entry_kind(M)
    for c in f.coeffs:
        if isinstance(c, Fraction):
            continue
        if isinstance(c, MultiQuad):
            if kind != "multiquad":
                raise FieldMismatch("MultiQuad coefficients at a non-MultiQuad matrix")
        elif isinstance(c, NumberFieldElement):
            if kind != "numberfield" or (
                field is not None and c.field.modulus != field.modulus
            ):
                raise FieldMismatch("number field coefficients do not match the matrix")
        else:
            raise FieldMismatch(f"unsupported coefficient {type(c).__name__}")
    n = M.n
    if f.is_zero:
        return DenseMatrix.zeros(n)
    acc = DenseMatrix.scaled_identity(n, f.coeffs[-1])
    for c in reversed(f.coeffs[:-1]):
        acc = acc @ M
        if c:
            acc = _plus_diagonal(acc, c)
    return acc


def _plus_diagonal(A: DenseMatrix, c) -> DenseMatrix:
    # A + c*I, with n additions on the diagonal of a rational A
    if A._rat and isinstance(c, Fraction):
        num, d = A._ints()
        q = c.denominator
        den = d // gcd(d, q) * q
        fa, p = den // d, c.numerator * (den // q)
        rows = [list(r) for r in num] if fa == 1 else [[fa * x for x in r] for r in num]
        for i in range(A.n):
            rows[i][i] += p
        return _reduced(tuple(map(tuple, rows)), den)
    if A._parts is not None and isinstance(c, (Fraction, MultiQuad)):
        return _combine(A, DenseMatrix.scaled_identity(A.n, c), add)
    rows = [list(r) for r in A.rows]
    for i in range(A.n):
        rows[i][i] = rows[i][i] + c
    return DenseMatrix(rows)


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
    m_M(X) = d^-k * m_A(d*X).  Other entry fields raise FieldMismatch.
    """
    if not M._rat:
        raise FieldMismatch("expected a matrix with rational entries")
    A, d = M._ints()
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
    return all(
        M.rows[i][j] == M.rows[j][i] for i in range(M.n) for j in range(i + 1, M.n)
    )


def is_normal(M: DenseMatrix) -> bool:
    t = M.transpose()
    return M @ t == t @ M


def commute(A: DenseMatrix, B: DenseMatrix) -> bool:
    return A @ B == B @ A
