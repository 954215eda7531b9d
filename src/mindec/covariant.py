"""Frobenius covariants from a factored minimal polynomial.

The construction never names an eigenvalue.  For each irreducible
factor m_i of multiplicity mu_i it works in R_i = Q[Y]/(m_i) with the
generic root Y and builds

    h_i = m_i / (X - Y)                      (synthetic division),
    G_i = h_i^mu_i * prod_{j != i} m_j^mu_j,
    B_i * G_i + L_i * (X - Y)^mu_i = 1       (extended gcd in R_i[X]),
    C_i = B_i * G_i,

so C_i is the generic covariant attached to the factor: substituting a
concrete root for Y gives the classical Frobenius covariant of that
root.  Summing over all conjugate roots is a coefficient-wise field
trace, which yields rational witness polynomials

    E_i = Tr(C_i),   S_i = Tr(Y * C_i),   N_i = X * E_i - S_i,

with sum(E_i) = 1; evaluated at a matrix annihilated by the product,
the E_i(M) are the spectral projectors, sum(S_i(M)) the semisimple
part and sum(N_i(M)) restricted to each block the nilpotent part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from mindec.errors import DoesNotSplit, PartitionOfUnityFailure, SystemMatrixMismatch
from mindec.factor import FactoredMinPoly
from mindec.matrix import DenseMatrix, horner_eval, rank
from mindec.poly import Polynomial, X, ext_gcd, trace_coeffwise
from mindec.report import VerificationReport
from mindec.scalar import MultiQuad, NumberField, square_split


@dataclass(frozen=True)
class GenericCovariant:
    """Per-factor data over the generic root ring R_i = Q[Y]/(m_i)."""

    index: int
    modulus: Polynomial
    multiplicity: int
    ring: NumberField
    cofactor: Polynomial  # h_i, over R_i
    complement: Polynomial  # G_i, over R_i
    bezout: Polynomial  # B_i, over R_i, degree < mu_i
    bezout_other: Polynomial  # L_i, over R_i
    covariant: Polynomial  # C_i = B_i * G_i, over R_i, degree < deg m


@dataclass(frozen=True)
class CovariantSystem:
    """Covariant data for a full factored minimal polynomial."""

    factored: FactoredMinPoly
    generics: Tuple[GenericCovariant, ...]
    e_polys: Tuple[Polynomial, ...]  # rational: partition of unity
    s_polys: Tuple[Polynomial, ...]  # rational: semisimple witnesses
    n_polys: Tuple[Polynomial, ...]  # rational: nilpotent witnesses

    @property
    def min_poly(self) -> Polynomial:
        return self.factored.product()

    @property
    def r(self) -> int:
        return len(self.generics)


def build_covariant_system(factored: FactoredMinPoly) -> CovariantSystem:
    """Construct generic covariants and their rational traces.

    Raises PartitionOfUnityFailure if the E_i do not sum to 1, which
    would mean the factorization was not into distinct irreducibles.
    """
    factors = factored.factors
    if not factors:
        raise ValueError("empty factorization")
    generics: List[GenericCovariant] = []
    e_polys: List[Polynomial] = []
    s_polys: List[Polynomial] = []
    n_polys: List[Polynomial] = []
    for i, (m_i, mu_i) in enumerate(factors):
        ring = NumberField(m_i.coeffs)
        y = ring.gen()
        one = ring.one()
        lift = lambda q: q.map_coefficients(ring.embed)  # noqa: E731
        x_minus_y = Polynomial((-y, one))
        h_i, rem = divmod(lift(m_i), x_minus_y)
        if not rem.is_zero:
            raise PartitionOfUnityFailure("generic root does not satisfy its modulus")
        complement = h_i**mu_i
        for j, (m_j, mu_j) in enumerate(factors):
            if j != i:
                complement = complement * lift(m_j) ** mu_j
        g, bez, other = ext_gcd(complement, x_minus_y**mu_i)
        if g != Polynomial((one,)):
            raise PartitionOfUnityFailure(
                f"factor {i} shares a root with its complement"
            )
        cov = bez * complement
        generics.append(
            GenericCovariant(
                index=i,
                modulus=m_i,
                multiplicity=mu_i,
                ring=ring,
                cofactor=h_i,
                complement=complement,
                bezout=bez,
                bezout_other=other,
                covariant=cov,
            )
        )
        e_polys.append(trace_coeffwise(cov))
        s_polys.append(trace_coeffwise(y * cov))
        n_polys.append(X * e_polys[-1] - s_polys[-1])
    total = Polynomial()
    for e in e_polys:
        total = total + e
    if total != Polynomial((1,)):
        raise PartitionOfUnityFailure(f"sum of trace covariants is {total}")
    return CovariantSystem(
        factored=factored,
        generics=tuple(generics),
        e_polys=tuple(e_polys),
        s_polys=tuple(s_polys),
        n_polys=tuple(n_polys),
    )


def materialize_projectors(system: CovariantSystem, M: DenseMatrix) -> List[DenseMatrix]:
    """Evaluate the partition polynomials at M.

    M must be annihilated by the system's minimal polynomial
    (SystemMatrixMismatch otherwise); the results are then idempotents
    summing to the identity, pairwise annihilating.  When the system is
    the one kept in M's analysis, the projectors are evaluated once and
    kept there too.
    """
    analysis = M.analysis
    own = system is analysis.system
    if own and analysis.projectors is not None:
        return list(analysis.projectors)
    if not horner_eval(system.min_poly, M).is_zero:
        raise SystemMatrixMismatch("matrix is not annihilated by the system's polynomial")
    projectors = [horner_eval(e, M) for e in system.e_polys]
    if own:
        analysis.projectors = tuple(projectors)
    return projectors


def verify_system(system: CovariantSystem, M: DenseMatrix) -> VerificationReport:
    """Projector axioms of a covariant system at a concrete matrix."""
    report = VerificationReport("covariant system")
    total = Polynomial()
    for e in system.e_polys:
        total = total + e
    report.add("partition-of-unity", "sum(E_i) = 1 as polynomials", total == Polynomial((1,)))
    projectors = materialize_projectors(system, M)
    prod_ok = True
    witness = ""
    for i, P in enumerate(projectors):
        for j, Q in enumerate(projectors):
            expect = P if i == j else DenseMatrix.zeros(M.n)
            if P @ Q != expect:
                prod_ok = False
                witness = f"E_{i}(M) E_{j}(M) wrong"
    report.add(
        "idempotent-orthogonal", "E_i(M) E_j(M) = delta_ij E_i(M)", prod_ok, witness
    )
    report.add(
        "rank-sum",
        "ranks of the projectors sum to n",
        sum(rank(P) for P in projectors) == M.n,
    )
    return report


def split_covariants_over_extension(
    system: CovariantSystem, index: int, d: int
) -> List[Tuple[MultiQuad, Polynomial]]:
    """Split one quadratic factor's generic covariant over Q(sqrt(d)).

    Only degree-2 factors are accepted.  Returns the two
    (eigenvalue, covariant polynomial) pairs with MultiQuad
    coefficients, the +sqrt(d) branch first; their covariants sum to
    E_i.  Raises DoesNotSplit if the factor's roots are not in
    Q(sqrt(d)).
    """
    gen = system.generics[index]
    if gen.modulus.degree != 2:
        raise DoesNotSplit(
            f"factor of degree {gen.modulus.degree}; only quadratics split here"
        )
    p = gen.modulus.coefficient(1)
    q = gen.modulus.coefficient(0)
    disc = p * p - 4 * q
    s0, d0 = square_split(disc.numerator * disc.denominator)
    if d0 != d:
        raise DoesNotSplit(f"discriminant {disc} needs sqrt({d0}), not sqrt({d})")
    t = MultiQuad({d: Fraction(s0, disc.denominator)})
    half = Fraction(1, 2)
    lam_plus = MultiQuad(-p * half) + t * half
    lam_minus = MultiQuad(-p * half) - t * half
    out = []
    for lam in (lam_plus, lam_minus):
        cov = gen.covariant.map_coefficients(
            lambda c: _eval_residue(c, lam)
        )
        out.append((lam, cov))
    return out


def _eval_residue(c, lam: MultiQuad) -> MultiQuad:
    # substitute a concrete root for the generic one
    if isinstance(c, MultiQuad):
        return c
    if hasattr(c, "residue"):
        return c.residue(lam)
    return MultiQuad(c)
