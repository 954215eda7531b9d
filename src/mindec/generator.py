"""Seeded families of exact test matrices.

Every generator takes a seed string and drives its own
``random.Random(f"...:{seed}")``, so a case is reproducible from the
seed alone, across processes and platforms.  Matrices are built from
companion blocks of small irreducible polynomials (or from explicit
diagonal/orthogonal pieces for the Gram-friendly and normal families)
and then conjugated by a unimodular integer matrix, so the interesting
invariants are known by construction while the entries look generic.
Each conjugator comes with its exact inverse, built from the same
elementary operations as it (:func:`_unimodular`), so no matrix is
inverted.  Every matrix is built as integer rows over one denominator,
with no Fraction entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Tuple

from mindec.factor import FactoredMinPoly, factor_rational
from mindec.matrix import DenseMatrix, _zeros, companion, int_matrix
from mindec.poly import Polynomial, X, poly_lcm
from mindec.scalar import MultiQuad, mq_sqrt_rational
from mindec.serialize import MatrixDocument

#: small irreducibles over Q, degree <= 3; none has 0 as a root
IRREDUCIBLE_POOL: Tuple[Polynomial, ...] = (
    Polynomial((-1, 1)),
    Polynomial((1, 1)),
    Polynomial((-2, 1)),
    Polynomial((2, 1)),
    Polynomial((-3, 1)),
    Polynomial((3, 1)),
    Polynomial((1, 0, 1)),
    Polynomial((2, 0, 1)),
    Polynomial((-2, 0, 1)),
    Polynomial((-3, 0, 1)),
    Polynomial((1, 1, 1)),
    Polynomial((-1, -1, 1)),
    Polynomial((-1, -2, 1)),
    Polynomial((-2, 0, 0, 1)),
    Polynomial((-1, -1, 0, 1)),
    Polynomial((-1, -3, 0, 1)),
)

QUADRATIC_POOL: Tuple[Polynomial, ...] = tuple(
    p for p in IRREDUCIBLE_POOL if p.degree <= 2
)


@dataclass(frozen=True)
class NormalCase:
    matrix: DenseMatrix
    #: distinct nonzero eigenvalue norms, strictly decreasing
    norms: Tuple[MultiQuad, ...]
    label: str


def block_diag(blocks: List[DenseMatrix]) -> DenseMatrix:
    """The block diagonal matrix of rational blocks, from their integer
    rows over the lcm of their denominators."""
    n = sum(b.n for b in blocks)
    den = lcm(*(b._den for b in blocks))
    rows = []
    for b in blocks:
        f, left = den // b._den, [0] * len(rows)
        for r in b._parts.get(1) or _zeros(b.n):
            rows.append(left + [f * x for x in r] + [0] * (n - len(left) - b.n))
    return int_matrix(rows, den)


def _poly_label(p: Polynomial) -> str:
    terms = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append("X" if c == 1 else f"{c}X")
        else:
            terms.append(f"X^{k}" if c == 1 else f"{c}X^{k}")
    return "+".join(terms).replace("+-", "-")


def _unimodular(n: int, rng: random.Random) -> Tuple[DenseMatrix, DenseMatrix]:
    """A determinant +-1 integer matrix T = E_k ... E_1, a product of
    elementary row operations, and T^-1 = E_1^-1 ... E_k^-1, built
    alongside as the inverse column operations: row i += c * row j
    undoes as column j -= c * column i, and a row swap or negation as
    the same swap or negation of columns."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    cols = [r[:] for r in rows]  # the columns of T^-1
    for _ in range(n + 2):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            cols[j] = [a - c * b for a, b in zip(cols[j], cols[i])]
        elif op == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
            cols[i], cols[j] = cols[j], cols[i]
        else:
            rows[i] = [-a for a in rows[i]]
            cols[i] = [-a for a in cols[i]]
    return int_matrix(rows), int_matrix(list(zip(*cols)))


def _conjugate(M: DenseMatrix, rng: random.Random) -> DenseMatrix:
    T, Ti = _unimodular(M.n, rng)
    return Ti @ M @ T


def _assemble(
    parts: List[Tuple[Polynomial, int]], rng: random.Random, seed: str
) -> MatrixDocument:
    """Companion blocks for each (factor, power), a factor possibly
    repeated at a lower power, shuffled and conjugated; the minimal
    polynomial takes each factor to its largest power."""
    blocks = [companion(m ** mu) for m, mu in parts]
    largest = {}
    for m, mu in parts:
        largest[m] = max(mu, largest.get(m, 0))
    min_poly = Polynomial((1,))
    for m, mu in largest.items():
        min_poly = min_poly * m ** mu
    rng.shuffle(blocks)
    M = _conjugate(block_diag(blocks), rng)
    label = "blocks " + ", ".join(
        f"({_poly_label(m)})^{mu}" if mu > 1 else _poly_label(m) for m, mu in parts
    )
    return MatrixDocument(matrix=M, label=label, seed=seed, min_poly=min_poly)


def _draw_parts(
    rng: random.Random, pool: Tuple[Polynomial, ...], budget: int, max_mu: int, twins: bool
) -> List[Tuple[Polynomial, int]]:
    """Distinct factors drawn from pool, each to a power up to max_mu,
    until their degrees times powers exhaust budget or no factor fits;
    with twins, a factor may repeat once at a lower power.  A budget of
    at least 2 always draws, since the pools hold linear factors."""
    parts: List[Tuple[Polynomial, int]] = []
    used: List[Polynomial] = []
    while budget > 0:
        candidates = [m for m in pool if m.degree <= budget and m not in used]
        if not candidates:
            break
        m = rng.choice(candidates)
        mu = rng.randint(1, min(budget // m.degree, max_mu))
        parts.append((m, mu))
        used.append(m)
        budget -= mu * m.degree
        # a lower-power twin block shrinks the geometric multiplicity gap
        if twins and rng.random() < 0.3 and budget >= m.degree:
            k = rng.randint(1, min(budget // m.degree, mu))
            parts.append((m, k))
            budget -= k * m.degree
    return parts


def random_matrix(seed: str, max_size: int = 6) -> MatrixDocument:
    """Random rational matrix (size 2..max_size) whose minimal polynomial
    is a known product of small irreducible powers, X among them."""
    rng = random.Random(f"gen:{seed}")
    budget = rng.randint(2, max_size)
    parts = _draw_parts(rng, IRREDUCIBLE_POOL + (X,), budget, max_mu=3, twins=True)
    return _assemble(parts, rng, seed)


def blocks_matrix(polys: List[Polynomial], seed: str = "") -> MatrixDocument:
    """One companion block per given monic polynomial, conjugated; the
    minimal polynomial is the lcm of the blocks."""
    if not polys:
        raise ValueError("at least one block polynomial is required")
    blocks = [companion(p) for p in polys]
    min_poly = polys[0].monic()
    for p in polys[1:]:
        min_poly = poly_lcm(min_poly, p)
    labels = [_poly_label(p) for p in polys]
    rng = random.Random(f"blocks:{seed}:{';'.join(labels)}")
    M = _conjugate(block_diag(blocks), rng)
    label = "blocks " + ", ".join(labels)
    return MatrixDocument(matrix=M, label=label, seed=seed, min_poly=min_poly)


def matrix_from_min_poly(p: Polynomial, seed: str = "") -> MatrixDocument:
    """A matrix whose minimal polynomial is exactly p (one companion
    block per factor power), conjugated deterministically from the seed."""
    factored: FactoredMinPoly = factor_rational(p)
    if factored.degree == 0:
        raise ValueError("constant polynomial cannot be a minimal polynomial")
    rng = random.Random(f"minpoly:{seed}:{','.join(str(c) for c in p.coeffs)}")
    return _assemble(list(factored.factors), rng, seed)


def random_invertible_quadratic(seed: str, max_size: int = 5) -> MatrixDocument:
    """Invertible, with every minimal polynomial factor of degree <= 2:
    the input family for the Delta Sigma U split."""
    rng = random.Random(f"mjc:{seed}")
    budget = rng.randint(2, max_size)
    parts = _draw_parts(rng, QUADRATIC_POOL, budget, max_mu=2, twins=False)
    return _assemble(parts, rng, seed)


def _signed_permutation(n: int, rng: random.Random) -> DenseMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice((-1, 1))
    return int_matrix(rows)


def _orthogonal_columns(n: int, rng: random.Random) -> DenseMatrix:
    """Integer matrix whose columns are pairwise orthogonal: a signed
    permutation with some 2x2 blocks replaced by [[1,1],[1,-1]] twists."""
    rows = [[0] * n for _ in range(n)]
    at = 0
    while at < n:
        if at <= n - 2 and rng.random() < 0.5:
            s = rng.choice((-1, 1))
            rows[at][at : at + 2] = [s, s]
            rows[at + 1][at : at + 2] = [s, -s]
            at += 2
        else:
            rows[at][at] = rng.choice((-1, 1))
            at += 1
    return int_matrix(rows) @ _signed_permutation(n, rng)


def random_gram_friendly(seed: str, max_size: int = 4) -> MatrixDocument:
    """Square matrices whose Gram matrix A^T A has rational eigenvalues:
    U D V^T with orthogonal-column integer U, V and a small diagonal D
    (zeros allowed), plus occasional plain nilpotent ladders."""
    rng = random.Random(f"svd:{seed}")
    n = rng.randint(2, max_size)
    if rng.random() < 0.15:
        rows = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            rows[i][i + 1] = rng.choice((0, 1, 2))
        rows[0][1] = rng.choice((1, 2))  # keep it nonzero
        return MatrixDocument(int_matrix(rows), "nilpotent ladder", seed)
    values = [0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2)]
    diag = [rng.choice(values) for _ in range(n)]
    if not any(diag):
        diag[0] = 1
    # diag over the denominator 2 of its halves
    D = int_matrix([[int(2 * d) if i == j else 0 for j in range(n)] for i, d in enumerate(diag)], 2)
    U = _orthogonal_columns(n, rng)
    V = _orthogonal_columns(n, rng)
    A = U @ D @ V.transpose()
    if A.is_zero:
        A = D
    return MatrixDocument(A, f"U diag{[str(d) for d in diag]} V^T", seed)


def random_normal_matrix(seed: str, max_size: int = 5) -> NormalCase:
    """Normal rational matrix with eigenvalue norms known by construction.

    Blocks: rational scalars, rotation-scalings [[a,-b],[b,a]], and
    symmetric twists [[a,b],[b,-a]]; conjugation is by a signed
    permutation, which preserves normality.
    """
    rng = random.Random(f"normal:{seed}")
    n = rng.randint(2, max_size)
    blocks = []
    norms = set()
    left = n
    while left > 0:
        if left >= 2 and rng.random() < 0.6:
            a = rng.choice((0, 1, 2, -1))
            b = rng.choice((1, 2, -1))
            if rng.random() < 0.5:
                blocks.append(DenseMatrix([[a, -b], [b, a]]))
            else:
                blocks.append(DenseMatrix([[a, b], [b, -a]]))
            norms.add(mq_sqrt_rational(Fraction(a * a + b * b)))
            left -= 2
        else:
            c = rng.choice((0, 1, 2, 3, -1, -2))
            blocks.append(DenseMatrix([[c]]))
            if c:
                norms.add(MultiQuad(abs(c)))
            left -= 1
    if not norms:  # all blocks were zero scalars; keep the matrix nonzero
        blocks[0] = DenseMatrix([[1]])
        norms.add(MultiQuad(1))
    rng.shuffle(blocks)
    A = block_diag(blocks)
    P = _signed_permutation(n, rng)
    A = P.transpose() @ A @ P
    ordered = tuple(sorted(norms, reverse=True))
    return NormalCase(matrix=A, norms=ordered, label="normal blocks")


def random_function_poly(seed: str, max_degree: int = 4) -> Polynomial:
    """Small rational polynomial to feed through matrix functions."""
    rng = random.Random(f"fn:{seed}")
    degree = rng.randint(0, max_degree)
    coeffs = [
        Fraction(rng.choice((0, 1, -1, 2, -2, 3, Fraction(1, 2))))
        for _ in range(degree + 1)
    ]
    return Polynomial(tuple(coeffs))
