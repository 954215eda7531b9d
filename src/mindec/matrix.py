"""Dense square matrices over Q and over real multi-quadratic fields.

Every matrix is stored one way: as sum(sqrt(label) * A_label) over one
positive denominator, with integer parts A_label keyed by squarefree
label.  The form is canonical: all-zero parts are dropped and no factor
is common to the denominator and every part, so equality and
``is_zero`` compare integers.

The labels are the matrix's field: a matrix is rational exactly when
its only label is 1 (or it is zero), whatever entries it was built
from, and then its entries and trace read as Fractions; otherwise they
read as MultiQuads over Q(sqrt(d1), ...).

A product is one integer ``mat_mul`` (in :mod:`mindec._kernel`) per
pair of nonzero parts, so none when a factor is zero, combined through
sqrt(a) * sqrt(b) = coef * sqrt(label).
Every sum, difference, negation, scalar multiple and scaled identity,
and each Paterson-Stockmeyer chunk, is one integer linear combination
of the parts over their least common denominator (:func:`_combination`);
its public front :func:`linear_combination` takes rational or MultiQuad
scalars, and every sum over eigenvalue classes is one call of it.  A
MultiQuad holds its coordinates in the same form, integers over one
positive denominator, so :func:`_scalar_parts` reads a MultiQuad
scalar's integers as they are, and entries read from the parts are
built from the integers with no Fraction in between.
Transposes and powers run on the parts too.
A polynomial is evaluated at M by the Paterson-Stockmeyer scheme
(:func:`horner_eval`): baby steps M^2 ... M^b, b about sqrt(deg + 1),
kept on M's analysis and shared by every polynomial evaluated at M,
and giant steps in M^b, each one product plus one integer linear
combination of the parts; at a matrix whose minimal polynomial m is on
its analysis, a polynomial of degree <= deg m takes the whole table
up to its degree and no giant step.  Entries are built only when
``rows`` or ``entry`` is read, and kept.  The minimal polynomial is the lcm of
Krylov annihilators of standard basis vectors, run only from vectors
outside the invariant span of the earlier chains and only until that
span is the whole space (:func:`minimal_polynomial`).  It and the
fraction-free elimination behind rank, inverse and kernel accept
rational matrices only (FieldMismatch otherwise); the real-closed
verifiers and verify_fine certify a minimal polynomial by evaluation
instead (:func:`is_minimal_polynomial`).
Elimination pivots on the first nonzero entry of each column, so all
results are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count
from math import gcd, isqrt, lcm
from operator import add, matmul, mul, sub
from typing import Dict, List, Optional, Sequence, Tuple

from mindec import _kernel
from mindec.errors import FieldMismatch, SingularMatrix
from mindec.poly import Polynomial, binary_power, poly_gcd, poly_lcm
from mindec.scalar import MultiQuad, _label_mul

#: {squarefree label: integer rows} of a matrix over one denominator
Parts = Dict[int, tuple]


class MatrixAnalysis:
    """Results computed from one matrix, each at most once.

    The fields are filled on first use by the functions that compute
    them: the minimal polynomial and the covariant system by
    :func:`mindec.decompose.system_of` (the minimal polynomial also by
    :func:`mindec.decompose.sn_newton_oracle`), the projectors E_i(M)
    of that system by :func:`mindec.covariant.materialize_projectors`,
    the one function that evaluates them, after its m(M) = 0 check, for
    every command (cmjc, svd at the Gram matrix and unbreakable among
    them), and the powers (M^2, ..., M^b), the
    baby steps of every polynomial evaluated at M, by
    :func:`horner_eval`, which extends them as later polynomials need.
    Once min_poly is set, a polynomial of degree d <= deg m extends the
    powers to M^d, so they never pass M^(deg m), and its value is one
    combination of them.  The additive parts S and
    N are not kept: no command reads them twice, and every per-class
    part is a projector times them.  Every field is this matrix's
    own except the system, a function of the minimal polynomial alone,
    which system_of may hand to the next matrix of the same minimal
    polynomial as well.  A DenseMatrix is immutable, so each value
    stays valid for the matrix's lifetime.  No field refers back to the
    matrix (M^1 is not kept), so dropping the matrix frees its
    analysis, powers included, without waiting for the cycle collector.
    """

    __slots__ = ("min_poly", "system", "projectors", "powers")

    def __init__(self):
        self.min_poly = None
        self.system = None
        self.projectors = None
        self.powers = ()


class DenseMatrix:
    """A square matrix; immutable.

    Holds ``_parts`` ({label: integer rows}) over ``_den``; ``_rows``
    caches the entries once read.  Entries may be Fractions (or ints)
    and MultiQuads in any mix, each read as its ({label: integer}, den)
    pair and assembled by :func:`_parts_of_scalars`, the route of the
    JSON reader too; other entries raise FieldMismatch.
    """

    __slots__ = ("n", "_parts", "_den", "_rows", "_analysis")

    def __init__(self, rows: Sequence[Sequence]):
        scalars = [[_scalar_parts(e) for e in r] for r in rows]
        self.n = len(scalars)
        self._parts, self._den = _parts_of_scalars(scalars)
        self._rows = None

    @classmethod
    def _of_parts(cls, n: int, parts: Parts, den: int) -> "DenseMatrix":
        # sum(sqrt(label) * part) / den, already canonical (see _reduced)
        m = object.__new__(cls)
        m.n = n
        m._parts = parts
        m._den = den
        m._rows = None
        return m

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls._of_parts(n, {1: _int_identity(n)}, 1)

    @classmethod
    def zeros(cls, n: int) -> "DenseMatrix":
        return cls._of_parts(n, {}, 1)

    @classmethod
    def scaled_identity(cls, n: int, c) -> "DenseMatrix":
        """c times the identity, c rational or MultiQuad."""
        return linear_combination(n, (), c)

    @property
    def rows(self) -> Tuple[tuple, ...]:
        """The entries as a tuple of row tuples: reduced Fractions for a
        rational matrix, MultiQuads otherwise; built on first access
        and kept."""
        rows = self._rows
        if rows is None:
            n, d = self.n, self._den
            if not self.is_rational:
                rows = _rows_of_parts(n, self._parts, d)
            elif d == 1:
                rows = tuple(tuple(map(Fraction, r)) for r in self._parts.get(1) or _zeros(n))
            else:
                rows = tuple(tuple(Fraction(x, d) for x in r) for r in self._parts[1])
            self._rows = rows
        return rows

    @property
    def is_rational(self) -> bool:
        """Whether every entry is rational: the only label is 1."""
        return self._parts.keys() <= {1}

    @property
    def labels(self) -> Tuple[int, ...]:
        """Sorted squarefree labels of the nonzero parts; a rational
        matrix has (1,) or, if zero, ()."""
        return tuple(sorted(self._parts))

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
        return DenseMatrix._of_parts(self.n, parts, self._den)

    def trace(self):
        n = self.n
        sums = {lbl: sum(p[i][i] for i in range(n)) for lbl, p in self._parts.items()}
        t = MultiQuad._of_ints(sums, self._den)
        return t.rational_part if self.is_rational else t

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def __add__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return _combination(self.n, ((_ONE, self), (_ONE, other)))

    def __sub__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return _combination(self.n, ((_ONE, self), (_MINUS_ONE, other)))

    def __neg__(self):
        return _combination(self.n, ((_MINUS_ONE, self),))

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction, MultiQuad)):
            return NotImplemented
        return _combination(self.n, ((_scalar_parts(scalar), self),))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        n = self.n
        if n != other.n:
            raise ValueError("order mismatch")
        # one integer product per pair of nonzero parts, so none when a
        # factor is zero
        terms: Dict[int, list] = {}
        for la, A in self._parts.items():
            for lb, B in other._parts.items():
                coef, lbl = _label_mul(la, lb)
                terms.setdefault(lbl, []).append((coef, _kernel.mat_mul(A, B)))
        return _reduced(n, {lbl: _lincomb(t) for lbl, t in terms.items()}, self._den * other._den)

    def __pow__(self, k: int) -> "DenseMatrix":
        if k < 0:
            return inverse(self) ** (-k)
        return binary_power(self, k, matmul) if k else DenseMatrix.identity(self.n)

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        # the canonical form is unique
        return self.n == other.n and self._den == other._den and self._parts == other._parts

    def __repr__(self):
        return f"DenseMatrix({[[str(e) for e in row] for row in self.rows]})"


def _int_identity(n: int) -> Tuple[tuple, ...]:
    zero = (0,) * n
    return tuple(zero[:i] + (1,) + zero[i + 1 :] for i in range(n))


def _zeros(n: int) -> tuple:
    return ((0,) * n,) * n


def _scaled(P: tuple, c: int) -> tuple:
    return P if c == 1 else tuple(tuple([c * x for x in r]) for r in P)


def _reduced(n: int, parts: Parts, den: int) -> DenseMatrix:
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
            parts = {lbl: tuple(tuple([x // g for x in r]) for r in p) for lbl, p in parts.items()}
            den //= g
    return DenseMatrix._of_parts(n, parts, den)


def _parts_of_scalars(rows) -> Tuple[Parts, int]:
    """(parts, den) of a square matrix given as rows of ({label:
    integer}, den) scalars in lowest terms (see :func:`_scalar_parts`);
    ValueError if the rows are not square and nonempty.  den is the lcm
    of the entries' denominators, so no factor is common to den and
    every part, and only nonzero parts arise."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square and nonempty")
    den = lcm(*(e for r in rows for _, e in r))
    parts: Dict[int, list] = {}
    for i, r in enumerate(rows):
        for j, (c, e) in enumerate(r):
            for lbl, x in c.items():
                part = parts.get(lbl)
                if part is None:
                    part = parts[lbl] = [[0] * n for _ in range(n)]
                part[i][j] = x * (den // e)
    return {lbl: tuple(map(tuple, p)) for lbl, p in sorted(parts.items())}, den


def _rows_of_parts(n: int, parts: Parts, den: int) -> Tuple[tuple, ...]:
    # entry (i, j) is the MultiQuad sum(sqrt(label) * part[i][j]) / den
    items = sorted(parts.items())
    return tuple(
        tuple(
            MultiQuad._of_ints({lbl: p[i][j] for lbl, p in items if p[i][j]}, den)
            for j in range(n)
        )
        for i in range(n)
    )


def _scalar_parts(c) -> Tuple[Dict[int, int], int]:
    """({label: integer}, den) of a rational or MultiQuad scalar, in
    lowest terms: a MultiQuad's own integers, as they are held."""
    if isinstance(c, (int, Fraction)):
        return ({1: c.numerator} if c else {}), c.denominator
    if not isinstance(c, MultiQuad):
        raise FieldMismatch(f"scalars must be rational or MultiQuad, not {type(c).__name__}")
    return c._num, c._den


def _lincomb(terms) -> tuple:
    """sum(coef * P) over the (coef, P) in terms, P integer matrices;
    term by term over the rows, a coefficient of 1 or -1 by a plain add
    or sub."""
    (coef, P), *rest = terms
    acc = _scaled(P, coef)
    for c, Q in rest:
        if c in (1, -1):
            acc = [map(add if c == 1 else sub, a, q) for a, q in zip(acc, Q)]
        else:
            acc = [[s + c * x for s, x in zip(a, q)] for a, q in zip(acc, Q)]
    return tuple(map(tuple, acc)) if rest else acc


def linear_combination(n: int, terms, const=0) -> DenseMatrix:
    """const * I + sum(c * A) over the (c, A) in terms, A of order n, each
    scalar rational or MultiQuad (FieldMismatch otherwise): one
    :func:`_combination`, so one integer linear combination per label,
    reduced once.  Every sum over eigenvalue classes is one call."""
    return _combination(n, [(_scalar_parts(c), A) for c, A in terms], _scalar_parts(const))


#: the scalars 1 and -1 as ({label: integer}, den)
_ONE, _MINUS_ONE = ({1: 1}, 1), ({1: -1}, 1)


def _combination(n: int, terms, const=({}, 1)) -> DenseMatrix:
    """const * I + sum(c * A) over the (c, A) in terms, each scalar a
    ({label: integer}, den) pair of :func:`_scalar_parts`: one integer
    linear combination per label over the least common denominator,
    through sqrt(a) * sqrt(b) = coef * sqrt(label), the constant added
    on the diagonals only, then reduced once.  Every sum, difference,
    negation, scalar multiple and scaled identity is one call, and so
    is each Paterson-Stockmeyer chunk of :func:`horner_eval`."""
    c0, e0 = const
    used = [(c, e * A._den, A) for (c, e), A in terms if c]
    D = lcm(e0, *(de for _, de, _ in used))
    by_label: Dict[int, list] = {}
    for c, de, A in used:
        f = D // de
        for la, P in A._parts.items():
            for lc, x in c.items():
                coef, lbl = _label_mul(la, lc)
                by_label.setdefault(lbl, []).append((coef * x * f, P))
    parts = {lbl: _lincomb(t) for lbl, t in by_label.items()}
    f0 = D // e0
    for lc, x in c0.items():
        y = x * f0
        P = parts.get(lc) or _zeros(n)
        parts[lc] = tuple(r[:i] + (r[i] + y,) + r[i + 1 :] for i, r in enumerate(P))
    return _reduced(n, parts, D)


def _rational_ints(M: DenseMatrix, what: str) -> Tuple[tuple, int]:
    """(integer rows, denominator) of a rational matrix; FieldMismatch
    for one with an irrational entry."""
    if not M.is_rational:
        raise FieldMismatch(f"{what} expects a matrix with rational entries")
    return M._parts.get(1) or _zeros(M.n), M._den


def rank(M: DenseMatrix) -> int:
    return len(_kernel.rref(_rational_ints(M, "rank")[0])[2])


def inverse(M: DenseMatrix) -> DenseMatrix:
    """Exact inverse of a rational M = A/d: the integer [A | I] reduces
    to [den*I | R], and M^-1 = d*R/den."""
    num, d = _rational_ints(M, "inverse")
    n = M.n
    red, den, pivots = _kernel.rref([r + e for r, e in zip(num, _int_identity(n))])
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix has no inverse")
    return _reduced(n, {1: tuple(tuple(d * x for x in r[n:]) for r in red)}, den)


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


def horner_eval(f: Polynomial, M: DenseMatrix) -> DenseMatrix:
    """Evaluate a polynomial at a matrix by the Paterson-Stockmeyer
    scheme (SIAM J. Comput. 2, 1973; Higham, Functions of Matrices,
    2008, sec. 4.2).  The name is kept from the Horner loop it replaced.

    With d = deg f >= 1, b = isqrt(d) + 1 (about sqrt(d + 1)) for
    d >= 4 and b = 1 (Horner's rule itself, whose d - 1 products no b
    beats there) for d <= 3, f is cut into g + 1 chunks C_j of b
    coefficients, the top one holding the last d - g*b + 1 <= b + 1,
    g = ceil(d/b) - 1, and evaluated by Horner's rule in M^b:

        acc <- C_g(M);  acc <- acc @ M^b + C_j(M),  j = g-1, ..., 0.

    The baby steps M^2 ... M^b come from the table kept on M's
    analysis, which is extended to M^b when it is shorter and is shared
    by every polynomial later evaluated at M; a longer table raises b
    up to d, which saves giant steps.  So degrees up to 3 start no
    table, except at a matrix whose minimal polynomial m is on its
    analysis: there d <= deg m takes b = d, the table grows to M^d,
    never past M^(deg m), and f(M) is a single combination with no
    giant step; d > deg m keeps b = isqrt(d) + 1.  Each C_j(M), plus
    acc @ M^b, is one :func:`_combination`: one integer linear
    combination per label of the parts over their least common
    denominator, its constant term added on the diagonals only, then
    reduced once.  So f(M) costs about 2*sqrt(d) products instead of
    d.  Coefficients are rational or MultiQuad, at any matrix; others
    raise FieldMismatch.  No entry is built.
    """
    n = M.n
    d = f.degree
    if d < 1:
        return DenseMatrix.scaled_identity(n, f.coeffs[0]) if d == 0 else DenseMatrix.zeros(n)
    cs = _coefficient_parts(f)
    analysis = getattr(M, "_analysis", None)
    m = analysis and analysis.min_poly
    if m is not None and d <= m.degree:
        b = d
    else:
        b = isqrt(d) + 1 if d > 3 else 1
    powers = _baby_steps(M, b)
    b = min(len(powers), d)
    g = (d - 1) // b
    acc = _combination(n, zip(cs[g * b + 1 :], powers), cs[g * b])
    for j in range(g - 1, -1, -1):
        giant = (_ONE, acc @ powers[b - 1])
        acc = _combination(n, (giant, *zip(cs[j * b + 1 : j * b + b], powers)), cs[j * b])
    return acc


def is_minimal_polynomial(A: DenseMatrix, factors: Sequence[Polynomial]) -> bool:
    """Whether the product p of ``factors`` is the minimal polynomial of
    A, each factor r being irreducible over a field that holds A's
    entries and the coefficients: p(A) = 0 and (p / r)(A) != 0 for every
    listed r.  Then the minimal polynomial divides p and, for each
    irreducible r, has r to the full power it has in p, so it is p; a
    reducible r voids this.  The r(A) commute, so each (p / r)(A) is a
    prefix times a suffix product.  Any matrix, by evaluation alone."""
    at = [horner_eval(r, A) for r in factors]
    k = len(at)
    # before[j] = r_0(A)...r_{j-1}(A), after[j] = r_{j+1}(A)...r_{k-1}(A);
    # None stands for the empty product
    before, after = [None] * k, [None] * k
    for j in range(1, k):
        before[j] = _times(before[j - 1], at[j - 1])
        after[-1 - j] = _times(at[-j], after[-j])
    return (
        k > 0
        and _times(before[-1], at[-1]).is_zero
        and all(c is None or not c.is_zero for c in map(_times, before, after))
    )


def _times(A: Optional[DenseMatrix], B: Optional[DenseMatrix]) -> Optional[DenseMatrix]:
    return B if A is None else A if B is None else A @ B


def _coefficient_parts(f: Polynomial) -> List[Tuple[Dict[int, int], int]]:
    """({label: integer}, den) of each coefficient of a polynomial with
    rational or MultiQuad coefficients, low degree first, each over its
    own least denominator."""
    if not f.is_rational:
        return [_scalar_parts(c) for c in f.coeffs]
    e = f._den
    out = []
    for x in f._num:
        g = gcd(x, e)
        out.append(({1: x // g}, e // g) if x else ({}, 1))
    return out


def _baby_steps(M: DenseMatrix, b: int) -> tuple:
    """(M, M^2, ..., M^c) with c >= b: M and the powers kept on its
    analysis, first extended to M^b."""
    analysis = getattr(M, "_analysis", None)
    kept = () if analysis is None else analysis.powers
    if len(kept) < b - 1:
        steps = list(kept)
        last = steps[-1] if steps else M
        while len(steps) < b - 1:
            last = last @ M
            steps.append(last)
        kept = M.analysis.powers = tuple(steps)
    return (M,) + kept


def minimal_polynomial(M: DenseMatrix) -> Polynomial:
    """Monic minimal polynomial of a rational matrix, by Krylov
    annihilators of standard basis vectors over one shared invariant
    subspace.

    Over the integer matrix A = d*M, the chain v, Av, A^2 v, ... of
    v = e_j is run until its first linear dependence, found by ordered
    fraction-free elimination that carries the combination
    coefficients (:func:`_krylov_chain`); that dependence is the monic
    annihilator a_j of e_j.  m_A is the lcm of the annihilators of any
    set of vectors that generates Q^n as a Q[X]-module (Augot and
    Camion, Linear Algebra Appl. 260, 1997), so the loop keeps one
    fraction-free echelon basis of W, the A-invariant span of the
    chains run so far:

    - e_j is first reduced against W; if it reduces to 0 it lies in
      the submodule generated by e_1 ... e_(j-1), a_j divides the
      current m, and no chain is run;
    - otherwise the chain's vectors join W in order until the first
      one already in W, after which the whole chain is (W is
      invariant);
    - the loop stops once dim W = n.  The first chain's eliminated
      vectors are already an echelon basis of its span, so a cyclic
      matrix (one chain of length n) does no span bookkeeping at all;
    - the first annihilator is m; a later one costs one m % a_j, and an
      lcm only when a_j does not divide m.

    Then m_M(X) = d^-k * m_A(d*X).  An irrational entry raises
    FieldMismatch.
    """
    A, d = _rational_ints(M, "minimal_polynomial")
    n = M.n
    mp = span = None
    for j in range(n):
        e = [0] * n
        e[j] = 1
        if span is not None:
            e = _span_reduced(e, span)
            if e is None:
                continue
        a, steps = _krylov_chain(A, j)
        if span is None:
            mp = a
            span = [(pc, w) for pc, w, _ in steps]
        else:
            if a != mp and mp % a:
                mp = poly_lcm(mp, a)
            span.append(_pivoted(e))
            for _, w, _ in steps[1:]:
                w = _span_reduced(w, span)
                if w is None:
                    break
                span.append(_pivoted(w))
        if len(span) == n:
            break
    if d == 1:
        return mp
    k = mp.degree
    return Polynomial._of_ints([x * d**i for i, x in enumerate(mp._num)], mp._den * d**k)


def is_semisimple(A: DenseMatrix) -> bool:
    """Whether A is semisimple: its Krylov minimal polynomial is
    squarefree.  Rational A only (FieldMismatch otherwise)."""
    mp = minimal_polynomial(A)
    return poly_gcd(mp, mp.derivative()).degree == 0


def _krylov_chain(A: tuple, j: int):
    """(a, steps) for the Krylov chain of e_j under the integer matrix
    A: a is the monic annihilator of e_j and steps the kept
    (pivot_col, vector, tracker) triples, each vector the next power
    A^k e_j reduced by w <- p*w - w[pc]*v against the earlier (pc, v)
    with pivot p, its tracker alongside, and the pair divided by its
    content.  Each vector is zero at every earlier pivot, so the
    vectors are an echelon basis of the chain's span.  A e_j is read off
    as column j of A."""
    n = len(A)
    e = [0] * n
    e[j] = 1
    steps = [(j, e, [1])]
    cur = [row[j] for row in A]
    # at most n vectors are independent, so the loop ends by k = n
    for k in count(1):
        w = cur
        t = [0] * k + [1]
        for pc, pv, pt in steps:
            f = w[pc]
            if f:
                p = pv[pc]
                w = [p * x - f * y for x, y in zip(w, pv)]
                t = [p * x for x in t]
                for i, y in enumerate(pt):
                    if y:
                        t[i] -= f * y
        if not any(w):
            return Polynomial._of_ints(t, t[-1]), steps
        g = gcd(*w, *t)
        if g != 1:
            w = [x // g for x in w]
            t = [x // g for x in t]
        pc = next(i for i in range(n) if w[i])
        steps.append((pc, w, t))
        cur = [sum(map(mul, row, cur)) for row in A]


def _span_reduced(w: list, span: list):
    """w reduced against the echelon basis span of (pivot_col, vector)
    pairs, in order, and divided by its content; None when w lies in
    the span."""
    for pc, v in span:
        f = w[pc]
        if f:
            p = v[pc]
            g = gcd(p, f)
            if g != 1:
                p //= g
                f //= g
            w = [p * x - f * y for x, y in zip(w, v)]
    g = gcd(*w)
    if not g:
        return None
    return w if g == 1 else [x // g for x in w]


def _pivoted(w: list) -> tuple:
    # (first nonzero column, w) of a nonzero vector
    return next(i for i, x in enumerate(w) if x), w


def companion(p: Polynomial) -> DenseMatrix:
    """Companion matrix of a monic rational polynomial of degree >= 1."""
    if p.degree < 1 or p.lc != 1 or not p.is_rational:
        raise ValueError("companion needs a monic rational polynomial of degree >= 1")
    # over p's denominator d: d on the subdiagonal, -d*p_i in the last
    # column
    n, num, d = p.degree, p._num, p._den
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = d
    for i in range(n):
        rows[i][n - 1] = -num[i]
    return int_matrix(rows, d)


def int_matrix(rows, den: int = 1) -> DenseMatrix:
    """The rational matrix rows / den of square integer rows, den != 0."""
    return _reduced(len(rows), {1: tuple(map(tuple, rows))}, den)


def commute(A: DenseMatrix, B: DenseMatrix) -> bool:
    return A @ B == B @ A
