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
a rational matrix is the label-1 case, so rational and MultiQuad
operands mix freely and no product here runs entry by entry.  Delta,
Sigma, each of P+ and P-, U = I + S^-1 N, the U - I of verify_cmjc and
the sum(sigma_i A_i) of verify_svd_system are each one
:func:`mindec.matrix.linear_combination` of their (scalar, matrix)
terms.  Sigma's entries are real exactly when no nonzero part of Sigma
has a negative label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from mindec.covariant import materialize_projectors, quadratic_roots
from mindec.decompose import _min_poly_of, _nilpotency_index, sn_decompose, system_of
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
    inverse,
    is_minimal_polynomial,
    is_normal,
    is_symmetric,
    linear_combination,
    rank,
)
from mindec.poly import Polynomial, poly_gcd
from mindec.report import VerificationReport, attach_report
from mindec.scalar import MultiQuad, mq_sqrt_rational


@dataclass(frozen=True)
class DeltaSigmaU:
    """Delta, Sigma and U with the spectra verify_cmjc certifies;
    radicands is derived from delta_spectrum."""

    delta: DenseMatrix
    sigma: DenseMatrix
    unipotent: DenseMatrix
    delta_spectrum: Tuple[MultiQuad, ...]  # distinct eigenvalues of delta
    sigma_linear: Tuple[MultiQuad, ...]  # distinct rational eigenvalues of sigma
    sigma_quadratics: Tuple[Polynomial, ...]  # norm-1 quadratic factors of sigma
    #: verify_cmjc's report, set by complete_mjc; None on a copy made
    #: with dataclasses.replace and on a hand-built candidate
    report: Optional[VerificationReport] = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def radicands(self) -> Tuple[int, ...]:
        """The squarefree radicands adjoined to Q, sorted: those of the
        class norms |lambda|.  A real pair's |lambda+-| carries its
        sqrt(d), a complex pair's norm sqrt(q) its own radicands, and a
        rational eigenvalue none."""
        return tuple(sorted({d for v in self.delta_spectrum for d in v.radicands}))


def complete_mjc(M: DenseMatrix) -> DeltaSigmaU:
    """Split M into Delta * Sigma * U, all commuting.

    Preconditions: M nonsingular (SingularMatrix) and every factor of
    its minimal polynomial of degree <= 2 (FactorDegreeTooHigh).  Delta
    and Sigma are assembled class by class from the class projector
    E_i(M) and, for a real or complex pair, S_i(M) = E_i(M) S, S the
    semisimple part of M.  The E_i(M) come from
    :func:`mindec.covariant.materialize_projectors`, which checks
    m(M) = 0 and keeps them on M's analysis.  verify_cmjc runs once on
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
    # (scalar, matrix) terms; Sigma's are kept in two lists because
    # sigma_linear reads the real eigenvalues' alone
    delta_terms: List[Tuple[MultiQuad, DenseMatrix]] = []
    sigma_real: List[Tuple[MultiQuad, DenseMatrix]] = []
    sigma_pairs: List[Tuple[MultiQuad, DenseMatrix]] = []
    sigma_quad: List[Polynomial] = []
    projectors = materialize_projectors(system, M)
    for (factor, _), E_i in zip(system.factored.factors, projectors):
        p, q = factor.coefficient(1), factor.coefficient(0)
        if factor.degree == 1:
            pairs = ((MultiQuad(-q), E_i),)
        elif p * p > 4 * q:
            _, pairs = split_real_pair(factor, E_i, E_i @ sn.semisimple)
        else:
            norm = mq_sqrt_rational(q)  # q = root * conjugate root > 0
            delta_terms.append((norm, E_i))
            sigma_pairs.append((norm.inverse(), E_i @ sn.semisimple))
            quad = Polynomial((MultiQuad(1), MultiQuad(p) * norm.inverse(), MultiQuad(1)))
            if quad not in sigma_quad:
                sigma_quad.append(quad)
            continue
        # a real eigenvalue adds |root| to Delta and sign(root) to Sigma
        for root, proj in pairs:
            sgn = MultiQuad(root.sign())
            delta_terms.append((root * sgn, proj))
            sigma_real.append((sgn, proj))
    U = linear_combination(n, [(1, inverse(sn.semisimple) @ sn.nilpotent)], 1)
    dsu = DeltaSigmaU(
        delta=linear_combination(n, delta_terms),
        sigma=linear_combination(n, sigma_real + sigma_pairs),
        unipotent=U,
        # class listings run from the largest absolute eigenvalue down,
        # ties broken with the positive sign first
        delta_spectrum=tuple(sorted({v for v, _ in delta_terms}, reverse=True)),
        sigma_linear=tuple(sorted({v for v, _ in sigma_real}, reverse=True)),
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
    return d, (
        (lam_plus, linear_combination(E.n, [(inv_t, S), (-lam_minus * inv_t, E)])),
        (lam_minus, linear_combination(E.n, [(lam_plus * inv_t, E), (-inv_t, S)])),
    )


def _linear(v) -> Polynomial:
    return Polynomial((-v, MultiQuad(1)))


def _is_real(x) -> bool:
    return all(label > 0 for label in MultiQuad(x).radicands)


def _is_real_irreducible_quadratic(quad: Polynomial) -> bool:
    c = quad.coeffs
    return (
        len(c) == 3
        and all(map(_is_real, c))
        and MultiQuad(c[1] * c[1] - 4 * c[2] * c[0]).sign() == -1
    )


def verify_cmjc(M: DenseMatrix, dsu: DeltaSigmaU) -> VerificationReport:
    """Full identity report for a Delta Sigma U decomposition.

    The "unipotence" check computes (U - I)^mu, mu <= n the largest
    multiplicity of a factor of M's own minimal polynomial, as verify_sn
    and verify_mjc do.  (U - I)^mu = 0 implies the stated
    (U - I)^n = 0.  Conversely, let a candidate pass reassembly,
    commutation and both spectrum checks, so that Delta Sigma is
    semisimple and commutes with U.  If also (U - I)^n = 0, U is
    unipotent and (Delta Sigma, U) is the unique multiplicative
    decomposition of M, so U - I = S^-1 N has N's index mu and
    (U - I)^mu = 0.  The two exponents thus agree whenever the other
    checks pass, and the report's verdict is the same on every input."""
    report = VerificationReport("complete multiplicative decomposition")
    n = M.n
    delta, sigma, U = dsu.delta, dsu.sigma, dsu.unipotent
    delta_sigma = delta @ sigma
    report.add("reassembly", "M = Delta Sigma U", delta_sigma @ U == M)
    report.add(
        "commutation",
        "Delta, Sigma, U pairwise commute",
        delta_sigma == sigma @ delta
        and all(A @ B == B @ A for A, B in ((delta, U), (sigma, U))),
    )
    mu = _nilpotency_index(M)
    report.add(
        "unipotence", "(U - I)^n = 0", (linear_combination(n, [(1, U)], -1) ** mu).is_zero
    )
    report.add(
        "delta-spectrum",
        "minimal polynomial of Delta is the product of (X - v) over the "
        "distinct class norms v",
        is_minimal_polynomial(delta, [_linear(v) for v in dsu.delta_spectrum]),
    )
    report.add(
        "delta-positive",
        "every eigenvalue of Delta has sign +1",
        all(v.sign() == 1 for v in dsu.delta_spectrum),
    )
    # real entries and coefficients, and a negative discriminant for each
    # quadratic, make every listed factor irreducible over the entry field;
    # the entries are real when no nonzero part of Sigma has a negative label
    irreducible = (
        all(label > 0 for label in sigma.labels)
        and all(map(_is_real, dsu.sigma_linear))
        and all(map(_is_real_irreducible_quadratic, dsu.sigma_quadratics))
    )
    report.add(
        "sigma-spectrum",
        "minimal polynomial of Sigma is the product of its norm-1 factors",
        irreducible
        and is_minimal_polynomial(
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
    """The terms sigma_i A_i; radicands is derived from the sigma_i."""

    terms: Tuple[SVDTerm, ...]
    #: verify_svd_system's report, set by svd; None on a copy made with
    #: dataclasses.replace and on a hand-built candidate
    report: Optional[VerificationReport] = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def singular_values(self) -> Tuple[MultiQuad, ...]:
        return tuple(t.sigma for t in self.terms)

    @property
    def radicands(self) -> Tuple[int, ...]:
        """The squarefree radicands of the sigma_i, sorted."""
        return tuple(sorted({d for t in self.terms for d in t.sigma.radicands}))


def svd(A: DenseMatrix) -> SVDResult:
    """Exact singular value system of a nonzero square rational matrix.

    Requires every nonzero eigenvalue of A^T A to be rational
    (SingularValuesNotRational otherwise).  The A_i are A P_i / sigma_i
    for the Gram projectors P_i, all of which come from
    :func:`mindec.covariant.materialize_projectors` after its
    m(A^T A) = 0 check.  verify_svd_system runs once on the
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
    projectors = materialize_projectors(system, gram)
    terms = []
    for value, i in eigen:
        sigma_i = mq_sqrt_rational(value)
        terms.append(SVDTerm(sigma=sigma_i, matrix=(A @ projectors[i]) * sigma_i.inverse()))
    return SVDResult(terms=tuple(terms))


def _as_terms(candidate) -> List[Tuple[MultiQuad, DenseMatrix]]:
    if isinstance(candidate, SVDResult):
        return [(t.sigma, t.matrix) for t in candidate.terms]
    out = []
    for sigma, matrix in candidate:
        if isinstance(sigma, (int, Fraction)):
            sigma = MultiQuad(sigma)
        out.append((sigma, matrix))
    return out


def verify_svd_system(A: DenseMatrix, candidate) -> VerificationReport:
    """Check the singular value system axioms for a candidate."""
    report = VerificationReport("singular value system")
    terms = _as_terms(candidate)
    n = A.n
    report.add("nonzero", "every A_i is nonzero", all(not B.is_zero for _, B in terms))
    order_ok = all(t.sign() == 1 for t, _ in terms) and all(
        (terms[i][0] - terms[i + 1][0]).sign() == 1 for i in range(len(terms) - 1)
    )
    report.add(
        "ordering", "singular values strictly decreasing and positive", order_ok
    )
    ortho_ok = True
    witness = ""
    # (A_i^T A_j)^T = A_j^T A_i and (A_i A_j^T)^T = A_j A_i^T, so the pairs
    # i < j decide every ordered pair; the witness names the last failing
    # ordered pair (j, i), j > i, as the loop over all of them did
    for j, (_, Bj) in enumerate(terms):
        for i, (_, Bi) in enumerate(terms[:j]):
            if not (Bj.transpose() @ Bi).is_zero or not (Bj @ Bi.transpose()).is_zero:
                ortho_ok = False
                witness = f"terms {j}, {i} not orthogonal"
    report.add(
        "orthogonality", "A_i^T A_j = 0 and A_i A_j^T = 0 for i != j", ortho_ok, witness
    )
    isometry_ok = all(B @ B.transpose() @ B == B for _, B in terms)
    report.add("partial-isometry", "A_i A_i^T A_i = A_i", isometry_ok)
    report.add("reassembly", "sum(sigma_i A_i) = A", linear_combination(n, terms) == A)
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
    squarefree minimal polynomial and symmetric class projectors, the
    latter from :func:`mindec.covariant.materialize_projectors` (m(A) = 0
    checked, kept on A's analysis).  Other matrices get a report noting
    the checks were skipped."""
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
        projectors = materialize_projectors(system_of(A), A)
        report.add(
            "projectors-symmetric",
            "every spectral projector is symmetric",
            all(is_symmetric(P) for P in projectors),
        )
    return report
