"""Polar-style decompositions over real multi-quadratic extensions.

For a nonsingular rational M whose minimal polynomial factors into
pieces of degree at most 2, the semisimple part S splits further as
S = Delta * Sigma with Delta totally positive semisimple and Sigma
semisimple of norm 1, giving M = Delta * Sigma * U with all three
factors commuting.  Per eigenvalue class:

* rational gamma: contributes |gamma| to Delta and sign(gamma) to
  Sigma on the class projector;
* complex pair (X^2 + pX + q, negative discriminant): the norm is
  sqrt(q), so the class adds sqrt(q) * E_i to Delta and S_i / sqrt(q)
  to Sigma, no root splitting needed;
* real pair (X^2 + pX + q, discriminant t^2 > 0): the roots are
  lambda+- = (-p +- t)/2 in Q(sqrt(d)), and each contributes |root|,
  sign(root) on its own spectral projector.  On the range of E_i the
  rational S_i(M) has the squarefree minimal polynomial X^2 + pX + q,
  so Lagrange interpolation at the two roots gives the projectors

      P+ = (S_i(M) - lambda- E_i(M)) / t,   P- = (lambda+ E_i(M) - S_i(M)) / t,

  which are unique; no number field is built.

verify_cmjc certifies the spectra of Delta and Sigma by evaluation:
for p = prod r_j with every r_j irreducible over a field holding the
entries and the coefficients, the minimal polynomial is p exactly when
p(A) = 0 and (p / r_j)(A) != 0 for each j.  Linear factors are always
irreducible; a quadratic factor of Sigma is irreducible when Sigma's
entries and the coefficients are totally real (no negative radicand)
and its discriminant is negative.

The exact SVD writes a nonzero rational A as sum(sigma_i * A_i) with
strictly decreasing positive sigma_i and an orthogonal system of
partial isometries A_i, provided every nonzero eigenvalue of the Gram
matrix A^T A is rational; sigma_i are the square roots.

Delta, Sigma, U, the A_i and every product the verifiers form are
matrices over Q(sqrt(d1), ...) in the integer form of
:mod:`mindec.matrix`, sum(sqrt(label) * A_label) over one denominator;
a rational matrix enters as its label-1 part, so no product here runs
entry by entry.  Sigma's entries are real exactly when no nonzero part
of Sigma has a negative label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from mindec.covariant import quadratic_roots
from mindec.decompose import _min_poly_of, sn_decompose, system_of
from mindec.errors import (
    FactorDegreeTooHigh,
    FieldMismatch,
    InvariantViolation,
    SingularMatrix,
    SingularValuesNotRational,
    ZeroMatrix,
)
from mindec.matrix import (
    DenseMatrix,
    horner_eval,
    inverse,
    is_normal,
    is_symmetric,
    rank,
)
from mindec.poly import Polynomial, poly_gcd
from mindec.report import VerificationReport, attach_report
from mindec.scalar import MultiQuad, mq_sign, mq_sqrt_rational


def _mq(M: DenseMatrix) -> DenseMatrix:
    return M.as_multiquad() if M.is_rational else M


@dataclass(frozen=True)
class DeltaSigmaU:
    delta: DenseMatrix
    sigma: DenseMatrix
    unipotent: DenseMatrix
    radicands: Tuple[int, ...]  # squarefree radicands adjoined to Q
    delta_spectrum: Tuple[MultiQuad, ...]  # distinct eigenvalues of delta
    sigma_linear: Tuple[MultiQuad, ...]  # distinct rational eigenvalues of sigma
    sigma_quadratics: Tuple[Polynomial, ...]  # norm-1 quadratic factors of sigma
    #: verify_cmjc's report, set by complete_mjc; None on a copy made
    #: with dataclasses.replace and on a hand-built candidate
    report: Optional[VerificationReport] = field(
        default=None, init=False, compare=False, repr=False
    )


def complete_mjc(M: DenseMatrix) -> DeltaSigmaU:
    """Split M into Delta * Sigma * U, all commuting.

    Preconditions: M nonsingular (SingularMatrix) and every factor of
    its minimal polynomial of degree <= 2 (FactorDegreeTooHigh).  Delta
    and Sigma are assembled class by class.  verify_cmjc runs once on
    the result, which carries the report as ``report``; a failed check
    raises InvariantViolation.
    """
    sn = sn_decompose(M)
    system = sn.system
    if system.factored.zero_index is not None:
        raise SingularMatrix("matrix is singular")
    for factor, _ in system.factored.factors:
        if factor.degree > 2:
            raise FactorDegreeTooHigh(
                f"factor of degree {factor.degree}; eigenvalues leave quadratic extensions"
            )
    n = M.n
    delta = sigma = _mq(DenseMatrix.zeros(n))
    radicands = set()
    delta_eigen: List[MultiQuad] = []
    sigma_lin: List[MultiQuad] = []
    sigma_quad: List[Polynomial] = []
    for i, (factor, _) in enumerate(system.factored.factors):
        E_i = horner_eval(system.e_polys[i], M)
        p, q = factor.coefficient(1), factor.coefficient(0)
        if factor.degree == 1:
            pairs = ((MultiQuad(-q), _mq(E_i)),)
        elif p * p > 4 * q:
            d, pairs = split_real_pair(factor, E_i, horner_eval(system.s_polys[i], M))
            radicands.add(d)
        else:
            norm = mq_sqrt_rational(q)  # q = root * conjugate root > 0
            radicands.update(norm.radicands)
            S_i = horner_eval(system.s_polys[i], M)
            delta = delta + _mq(E_i) * norm
            sigma = sigma + _mq(S_i) * norm.inverse()
            _record(delta_eigen, norm)
            quad = Polynomial((MultiQuad(1), MultiQuad(p) * norm.inverse(), MultiQuad(1)))
            if quad not in sigma_quad:
                sigma_quad.append(quad)
            continue
        # a real eigenvalue adds |root| to Delta and sign(root) to Sigma
        for root, proj in pairs:
            sgn = root.sign()
            delta = delta + proj * (root * sgn)
            sigma = sigma + proj * sgn
            _record(delta_eigen, root * sgn)
            _record(sigma_lin, MultiQuad(sgn))
    U = DenseMatrix.identity(n) + inverse(sn.semisimple) @ sn.nilpotent
    dsu = DeltaSigmaU(
        delta=delta,
        sigma=sigma,
        unipotent=_mq(U),
        radicands=tuple(sorted(radicands)),
        # class listings run from the largest absolute eigenvalue down,
        # ties broken with the positive sign first
        delta_spectrum=tuple(sorted(delta_eigen, reverse=True)),
        sigma_linear=tuple(sorted(sigma_lin, reverse=True)),
        sigma_quadratics=tuple(sigma_quad),
    )
    return attach_report(dsu, verify_cmjc(M, dsu))


def split_real_pair(
    factor: Polynomial, E: DenseMatrix, S: DenseMatrix
) -> Tuple[int, Tuple[Tuple[MultiQuad, DenseMatrix], ...]]:
    """Spectral projectors of a real pair from its rational E_i(M), S_i(M).

    ``factor`` is X^2 + pX + q with a positive nonsquare discriminant,
    and E, S are its class projector and semisimple witness at M.
    Returns the squarefree d of :func:`mindec.covariant.quadratic_roots`
    and the pairs (lambda+, P+), (lambda-, P-), the +sqrt(d) branch first.
    """
    d, lam_plus, lam_minus = quadratic_roots(factor)
    inv_t = (lam_plus - lam_minus).inverse()
    E, S = _mq(E), _mq(S)
    return d, (
        (lam_plus, (S - E * lam_minus) * inv_t),
        (lam_minus, (E * lam_plus - S) * inv_t),
    )


def _record(values: List[MultiQuad], v: MultiQuad):
    if v not in values:
        values.append(v)


def _linear(v) -> Polynomial:
    return Polynomial((-v, MultiQuad(1)))


def _is_real(x) -> bool:
    return all(label > 0 for label in MultiQuad(x).radicands)


def _is_real_irreducible_quadratic(quad: Polynomial) -> bool:
    c = quad.coeffs
    return (
        len(c) == 3
        and all(map(_is_real, c))
        and mq_sign(MultiQuad(c[1] * c[1] - 4 * c[2] * c[0])) == -1
    )


def _is_minimal_polynomial(A: DenseMatrix, factors: List[Polynomial]) -> bool:
    """Whether the product p of ``factors`` is the minimal polynomial of
    A, each factor r being irreducible over a field that holds A's
    entries and the coefficients: p(A) = 0 and (p / r)(A) != 0 for every
    listed r.  The r(A) commute, so each (p / r)(A) is a prefix times a
    suffix product."""
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


def verify_cmjc(M: DenseMatrix, dsu: DeltaSigmaU) -> VerificationReport:
    """Full identity report for a Delta Sigma U decomposition."""
    report = VerificationReport("complete multiplicative decomposition")
    n = M.n
    M_mq = _mq(M)
    delta, sigma, U = dsu.delta, dsu.sigma, dsu.unipotent
    report.add("reassembly", "M = Delta Sigma U", delta @ sigma @ U == M_mq)
    report.add(
        "commutation",
        "Delta, Sigma, U pairwise commute",
        all(
            A @ B == B @ A
            for A, B in ((delta, sigma), (delta, U), (sigma, U))
        ),
    )
    ident = DenseMatrix.identity(n)
    report.add("unipotence", "(U - I)^n = 0", ((U - ident) ** n).is_zero)
    report.add(
        "delta-spectrum",
        "minimal polynomial of Delta is the product of (X - v) over the "
        "distinct class norms v",
        _is_minimal_polynomial(_mq(delta), [_linear(v) for v in dsu.delta_spectrum]),
    )
    report.add(
        "delta-positive",
        "every eigenvalue of Delta has sign +1",
        all(v.sign() == 1 for v in dsu.delta_spectrum),
    )
    # real entries and coefficients, and a negative discriminant for each
    # quadratic, make every listed factor irreducible over the entry field;
    # the entries are real when no nonzero part of Sigma has a negative label
    sigma = _mq(sigma)
    irreducible = (
        all(label > 0 for label in sigma.labels)
        and all(map(_is_real, dsu.sigma_linear))
        and all(map(_is_real_irreducible_quadratic, dsu.sigma_quadratics))
    )
    report.add(
        "sigma-spectrum",
        "minimal polynomial of Sigma is the product of its norm-1 factors",
        irreducible
        and _is_minimal_polynomial(
            sigma, [_linear(v) for v in dsu.sigma_linear] + list(dsu.sigma_quadratics)
        ),
    )
    report.add(
        "sigma-norm-one",
        "rational eigenvalues of Sigma are +-1; quadratic factors have "
        "constant term 1",
        all(v * v == MultiQuad(1) for v in dsu.sigma_linear)
        and all(quad.coefficient(0) == MultiQuad(1) for quad in dsu.sigma_quadratics),
    )
    return report


# -- exact singular value decomposition -------------------------------


@dataclass(frozen=True)
class SVDTerm:
    sigma: MultiQuad
    matrix: DenseMatrix


@dataclass(frozen=True)
class SVDResult:
    terms: Tuple[SVDTerm, ...]
    radicands: Tuple[int, ...]
    #: verify_svd_system's report, set by svd; None on a copy made with
    #: dataclasses.replace and on a hand-built candidate
    report: Optional[VerificationReport] = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def singular_values(self) -> Tuple[MultiQuad, ...]:
        return tuple(t.sigma for t in self.terms)


def svd(A: DenseMatrix) -> SVDResult:
    """Exact singular value system of a nonzero square rational matrix.

    Requires every nonzero eigenvalue of A^T A to be rational
    (SingularValuesNotRational otherwise).  The A_i are A P_i / sigma_i
    for the Gram projectors P_i.  verify_svd_system runs once on the
    result, which carries the report as ``report``; a failed axiom
    raises InvariantViolation.
    """
    result = _svd_terms(A)
    return attach_report(result, verify_svd_system(A, result))


def _svd_terms(A: DenseMatrix) -> SVDResult:
    # the system of svd(A), not yet verified
    if A.is_zero:
        raise ZeroMatrix("the zero matrix has no singular value system")
    if not A.is_rational:
        raise FieldMismatch("svd expects rational entries")
    gram = A.transpose() @ A
    system = system_of(gram)
    eigen: List[Tuple[Fraction, int]] = []
    for i, (factor, mult) in enumerate(system.factored.factors):
        if factor.degree > 1:
            raise SingularValuesNotRational(
                f"Gram matrix has irrational eigenvalues (factor {factor})"
            )
        if mult != 1:
            raise InvariantViolation(
                "Gram matrix of a rational matrix must be semisimple"
            )
        value = -factor.coefficient(0)
        if value < 0:
            raise InvariantViolation("Gram matrix must be positive semidefinite")
        if value > 0:
            eigen.append((value, i))
    eigen.sort(key=lambda t: -t[0])
    if not eigen:
        # A nonzero with A^T A = 0 cannot happen over the rationals
        raise InvariantViolation("nonzero matrix with zero Gram spectrum")
    terms = []
    radicands = set()
    for value, i in eigen:
        sigma_i = mq_sqrt_rational(value)
        radicands.update(sigma_i.radicands)
        P_i = horner_eval(system.e_polys[i], gram)
        terms.append(SVDTerm(sigma=sigma_i, matrix=_mq(A @ P_i) * sigma_i.inverse()))
    return SVDResult(terms=tuple(terms), radicands=tuple(sorted(radicands)))


def _as_terms(candidate) -> List[Tuple[MultiQuad, DenseMatrix]]:
    if isinstance(candidate, SVDResult):
        return [(t.sigma, t.matrix) for t in candidate.terms]
    out = []
    for sigma, matrix in candidate:
        if isinstance(sigma, (int, Fraction)):
            sigma = MultiQuad(sigma)
        out.append((sigma, _mq(matrix)))
    return out


def verify_svd_system(A: DenseMatrix, candidate) -> VerificationReport:
    """Check the singular value system axioms for a candidate."""
    report = VerificationReport("singular value system")
    terms = _as_terms(candidate)
    n = A.n
    A_mq = _mq(A)
    report.add("nonzero", "every A_i is nonzero", all(not B.is_zero for _, B in terms))
    order_ok = all(t.sign() == 1 for t, _ in terms) and all(
        (terms[i][0] - terms[i + 1][0]).sign() == 1 for i in range(len(terms) - 1)
    )
    report.add(
        "ordering", "singular values strictly decreasing and positive", order_ok
    )
    ortho_ok = True
    witness = ""
    for i, (_, Bi) in enumerate(terms):
        for j, (_, Bj) in enumerate(terms):
            if i == j:
                continue
            if not (Bi.transpose() @ Bj).is_zero or not (Bi @ Bj.transpose()).is_zero:
                ortho_ok = False
                witness = f"terms {i}, {j} not orthogonal"
    report.add(
        "orthogonality", "A_i^T A_j = 0 and A_i A_j^T = 0 for i != j", ortho_ok, witness
    )
    isometry_ok = all(B @ B.transpose() @ B == B for _, B in terms)
    report.add("partial-isometry", "A_i A_i^T A_i = A_i", isometry_ok)
    acc = _mq(DenseMatrix.zeros(n))
    for t, B in terms:
        acc = acc + B * t
    report.add("reassembly", "sum(sigma_i A_i) = A", acc == A_mq)
    report.add(
        "kernel-sanity",
        "Ker(A^T A) = Ker(A)",
        rank(A.transpose() @ A) == rank(A),
    )
    return report


def verify_svd_uniqueness(A: DenseMatrix, candidate) -> VerificationReport:
    """Axioms plus exact comparison against the canonical system.

    Any candidate satisfying the axioms must coincide with svd(A) term
    by term; the comparison is part of the report.  The canonical terms
    are built as svd builds them, without verifying them a second time:
    the candidate's axioms are checked here, and equality with the
    canonical terms is exact.
    """
    report = verify_svd_system(A, candidate)
    terms = _as_terms(candidate)
    canonical = _svd_terms(A)
    same = len(terms) == len(canonical.terms) and all(
        t == ct.sigma and B == ct.matrix
        for (t, B), ct in zip(terms, canonical.terms)
    )
    report.add(
        "canonical-equality",
        "candidate coincides with the recomputed system term by term",
        same,
    )
    return report


def symmetric_spectral_check(A: DenseMatrix) -> VerificationReport:
    """Spectral sanity for symmetric (or normal) rational matrices:
    squarefree minimal polynomial and symmetric class projectors.
    Other matrices get a report noting the checks were skipped."""
    report = VerificationReport("spectral projector check")
    if is_symmetric(A):
        shape = "symmetric"
    elif is_normal(A):
        shape = "normal"
    else:
        report.add(
            "normality",
            "matrix is neither symmetric nor normal; spectral checks skipped",
            True,
            "skipped",
        )
        return report
    mp = _min_poly_of(A)  # kept in A's analysis for system_of below
    sf = poly_gcd(mp, mp.derivative()).degree == 0
    report.add("squarefree", f"{shape} matrix has squarefree minimal polynomial", sf)
    if sf:
        system = system_of(A)
        projectors = [horner_eval(e, A) for e in system.e_polys]
        report.add(
            "projectors-symmetric",
            "every spectral projector is symmetric",
            all(is_symmetric(P) for P in projectors),
        )
    return report
