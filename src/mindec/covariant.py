"""Frobenius covariants from a factored minimal polynomial.

The rational witnesses are built in Q[X] alone.  With the minimal
polynomial m = prod m_j^mu_j, let q_i = m_i^mu_i and G_i = m / q_i.
Then

    u_i = (G_i mod q_i)^-1 in Q[X]/(q_i),    E_i = u_i * G_i,

with G_i reduced mod q_i once.  The inverse u_i of degree < deg q_i is
unique: for q_i = X - a it is the reciprocal of the constant G_i(a),
and otherwise one extended gcd below degree deg q_i gives it.  E_i is
the Chinese-remainder idempotent: E_i = 1 mod q_i, E_i = 0 mod q_j for
j != i and deg E_i < deg m, so sum(E_i) = 1.  Newton's iteration on
the squarefree factor m_i in Q[X]/(q_i), started at X,

    z <- z - m_i(z) * m_i'(z)^-1 mod q_i     (z_i = X when mu_i = 1),

lifts the root class of X to the unique z_i with m_i(z_i) = 0 mod q_i
and z_i = X mod m_i (Couty, Esterle and Zarouf, "Decomposition
effective de Jordan-Chevalley", 2011); each step reads m_i(z) and
m_i'(z) off one table of the powers of z mod q_i.  Hence

    S_i = E_i * z_i mod m,   N_i = X * E_i - S_i,

and s = sum(S_i), summed once per system as ``s_poly``, is the
semisimple witness that sn_decompose and matfun read.  Evaluated at a
matrix annihilated by m, the E_i(M) are the spectral projectors and
s(M) is the semisimple part S; then S_i(M) = E_i(M) S and
N_i(M) = E_i(M) (M - S), so the per-factor S_i and N_i are never
evaluated at a matrix: ``mindec covariants`` prints them, and s_poly
is their sum.

The generic-root construction never names an eigenvalue either.  It
works in R_i = Q[Y]/(m_i) with the generic root Y and builds

    h_i = m_i / (X - Y)                      (synthetic division),
    G_i = h_i^mu_i * prod_{j != i} m_j^mu_j,
    B_i * G_i + L_i * (X - Y)^mu_i = 1       (extended gcd in R_i[X]),
    C_i = B_i * G_i,

so C_i is the generic covariant of the factor: substituting a concrete
root for Y gives the classical Frobenius covariant of that root, and
the coefficient-wise field traces Tr(C_i) and Tr(Y * C_i) are E_i and
S_i again.  build_generic_covariant builds it for one factor on each
call, and nothing keeps it: it serves only as an independent oracle,
its traces for the rational witnesses and its split over Q(sqrt(d))
for the real-pair projectors that complete_mjc forms from E_i(M) and
E_i(M) S.  No command builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from mindec.errors import DoesNotSplit, PartitionOfUnityFailure, SystemMatrixMismatch
from mindec.factor import FactoredMinPoly
from mindec.matrix import DenseMatrix, horner_eval, rank
from mindec.poly import ONE, Polynomial, X, ext_gcd, on_powers, power_table, trace_coeffwise
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
    """Covariant data for a full factored minimal polynomial: the
    rational witnesses E_i and S_i, computed at construction; the
    nilpotent witnesses N_i are derived from them.  The generic
    covariant of a factor is built apart, by build_generic_covariant.
    """

    factored: FactoredMinPoly
    min_poly: Polynomial  # the product of the factored powers
    e_polys: Tuple[Polynomial, ...]  # rational: partition of unity
    s_polys: Tuple[Polynomial, ...]  # rational: semisimple witnesses
    s_poly: Polynomial  # s = sum(S_i), the semisimple witness of X

    @property
    def r(self) -> int:
        return len(self.factored.factors)

    @cached_property
    def n_polys(self) -> Tuple[Polynomial, ...]:
        """The nilpotent witnesses N_i = X * E_i - S_i, formed on first read."""
        return tuple(X * e_i - s_i for e_i, s_i in zip(self.e_polys, self.s_polys))


def build_covariant_system(factored: FactoredMinPoly) -> CovariantSystem:
    """Construct the rational witnesses E_i and S_i in Q[X].

    Each u_i = G_i^-1 mod q_i comes from G_i mod q_i alone (see
    inverse_mod), and a linear q_i = X - a gives S_i = a * E_i.  Raises
    PartitionOfUnityFailure if a factor shares a root with its
    complement or the E_i do not sum to 1, which would mean the
    factorization was not into distinct irreducibles.
    """
    factors = factored.factors
    if not factors:
        raise ValueError("empty factorization")
    powers = [m_i**mu_i for m_i, mu_i in factors]
    m = powers[0]
    for q_i in powers[1:]:
        m = m * q_i
    e_polys: List[Polynomial] = []
    s_polys: List[Polynomial] = []
    for i, ((m_i, mu_i), q_i) in enumerate(zip(factors, powers)):
        complement = m // q_i
        u_i = inverse_mod(complement % q_i, q_i)
        if u_i is None:
            raise PartitionOfUnityFailure(
                f"factor {i} shares a root with its complement"
            )
        e_i = u_i * complement
        if q_i.degree == 1:
            # e_i * (X - a) = u_i * m = 0 mod m and deg e_i < deg m, so
            # X * e_i mod m is a * e_i
            s_i = e_i * -q_i.coefficient(0)
        else:
            s_i = (e_i * root_lift(m_i, mu_i)) % m
        e_polys.append(e_i)
        s_polys.append(s_i)
    total = s_poly = Polynomial()
    for e_i, s_i in zip(e_polys, s_polys):
        total = total + e_i
        s_poly = s_poly + s_i  # each reduced mod m, and so the sum
    if total != ONE:
        raise PartitionOfUnityFailure(f"sum of covariants is {total}")
    return CovariantSystem(
        factored=factored,
        min_poly=m,
        e_polys=tuple(e_polys),
        s_polys=tuple(s_polys),
        s_poly=s_poly,
    )


def inverse_mod(g: Polynomial, q: Polynomial) -> Optional[Polynomial]:
    """The u of degree < deg q with u * g = 1 mod q, for rational g
    reduced mod q, or None when g and q share a root.

    The inverse is unique, so it is read off directly where that is
    cheaper: for a linear q = X - a, g is the constant g(a) and u its
    reciprocal.  Otherwise one extended gcd at degree below deg q.
    """
    if q.degree == 1:
        return Polynomial._of_ints((g._den,), g._num[0]) if g else None
    d, u, _ = ext_gcd(g, q)
    return u if d == ONE else None


def root_lift(m_i: Polynomial, mu_i: int) -> Polynomial:
    """The z in Q[X]/(m_i^mu_i) with m_i(z) = 0 and z = X mod m_i.

    Newton's iteration from X; each step doubles the power of m_i that
    divides m_i(z), so ceil(log2 mu_i) steps suffice.  m_i must be
    squarefree (PartitionOfUnityFailure otherwise).  m_i(z) and
    m_i'(z) are read off one table z^0 ... z^deg(m_i) mod m_i^mu_i per
    step.
    """
    z = X
    if mu_i == 1:
        return z
    q_i = m_i**mu_i
    dm = m_i.derivative()
    for _ in range((mu_i - 1).bit_length()):
        table = power_table(z, q_i, m_i.degree)
        g, inv, _ = ext_gcd(on_powers(dm, table), q_i)
        if g != ONE:
            raise PartitionOfUnityFailure(f"factor {m_i} is not squarefree")
        z = (z - on_powers(m_i, table) * inv) % q_i
    return z


def build_generic_covariant(factored: FactoredMinPoly, index: int) -> GenericCovariant:
    """Generic covariant C_i of one factor over R_i = Q[Y]/(m_i)."""
    factors = factored.factors
    m_i, mu_i = factors[index]
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
        if j != index:
            complement = complement * lift(m_j) ** mu_j
    g, bez, other = ext_gcd(complement, x_minus_y**mu_i)
    if g != Polynomial((one,)):
        raise PartitionOfUnityFailure(f"factor {index} shares a root with its complement")
    return GenericCovariant(
        index=index,
        modulus=m_i,
        multiplicity=mu_i,
        ring=ring,
        cofactor=h_i,
        complement=complement,
        bezout=bez,
        bezout_other=other,
        covariant=bez * complement,
    )


def trace_witnesses(gen: GenericCovariant) -> Tuple[Polynomial, Polynomial]:
    """(Tr(C_i), Tr(Y * C_i)): E_i and S_i by the generic-root route."""
    return (
        trace_coeffwise(gen.covariant),
        trace_coeffwise(gen.ring.gen() * gen.covariant),
    )


def materialize_projectors(system: CovariantSystem, M: DenseMatrix) -> List[DenseMatrix]:
    """The projectors E_i(M), in the order of the system's factors.

    This is the one place a partition polynomial E_i meets a matrix:
    every command and verifier takes its class projectors from here.
    M must be annihilated by the system's minimal polynomial, which is
    checked first, also for M's own system (SystemMatrixMismatch
    otherwise); the results are then idempotents summing to the
    identity, pairwise annihilating.  When the system is the one kept
    in M's analysis, the projectors are evaluated once and kept there
    too, so a later call makes no product.
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
    """Projector axioms of a covariant system at a concrete matrix.

    "idempotent-orthogonal" is certified by the k products P_i^2 = P_i,
    P_i = E_i(M), when the E_i sum to 1, so that the P_i sum to I.
    Every x is then sum(P_i x), so the images span Q^n; the rank of an
    idempotent is its trace, so their dimensions sum to tr I = n, and
    the sum is direct.  For x in im P_j, x = P_j x leaves the sum over
    i != j of P_i x = 0, hence P_i x = 0 and P_i P_j = 0.  When either
    premise fails, all k^2 products are compared, so the check has the
    same value on every input.
    """
    report = VerificationReport("covariant system")
    total = Polynomial()
    for e in system.e_polys:
        total = total + e
    unity = total == ONE
    report.add("partition-of-unity", "sum(E_i) = 1 as polynomials", unity)
    projectors = materialize_projectors(system, M)
    witness = ""
    if not (unity and all(P @ P == P for P in projectors)):
        witness = _delta_witness(projectors, "E_{i}(M) E_{j}(M) wrong")
    report.add(
        "idempotent-orthogonal", "E_i(M) E_j(M) = delta_ij E_i(M)", not witness, witness
    )
    report.add(
        "rank-sum",
        "ranks of the projectors sum to n",
        sum(rank(P) for P in projectors) == M.n,
    )
    return report


def _delta_witness(matrices: Sequence[DenseMatrix], witness: str) -> str:
    """``witness`` formatted with the last pair (i, j) whose product
    A_i A_j is not delta_ij A_i, or "" when the whole table holds."""
    zero = DenseMatrix.zeros(matrices[0].n)
    found = ""
    for i, A in enumerate(matrices):
        for j, B in enumerate(matrices):
            if A @ B != (A if i == j else zero):
                found = witness.format(i=i, j=j)
    return found


def split_covariants_over_extension(
    system: CovariantSystem, index: int, d: int
) -> List[Tuple[MultiQuad, Polynomial]]:
    """Split one quadratic factor's generic covariant over Q(sqrt(d)).

    Only degree-2 factors are accepted.  Returns the two
    (eigenvalue, covariant polynomial) pairs with MultiQuad
    coefficients, the +sqrt(d) branch first; their covariants sum to
    E_i.  Raises DoesNotSplit if the factor's roots are not in
    Q(sqrt(d)).  This is the generic-root oracle for
    :func:`mindec.realclosed.split_real_pair`, which complete_mjc uses.
    """
    gen = build_generic_covariant(system.factored, index)
    if gen.modulus.degree != 2:
        raise DoesNotSplit(
            f"factor of degree {gen.modulus.degree}; only quadratics split here"
        )
    d0, lam_plus, lam_minus = quadratic_roots(gen.modulus)
    if d0 != d:
        raise DoesNotSplit(f"roots of {gen.modulus} need sqrt({d0}), not sqrt({d})")
    return [
        (lam, gen.covariant.map_coefficients(lambda c: c.residue(lam)))
        for lam in (lam_plus, lam_minus)
    ]


def quadratic_roots(m: Polynomial) -> Tuple[int, MultiQuad, MultiQuad]:
    """(d, lambda+, lambda-) for a monic rational X^2 + pX + q whose
    discriminant is not a square: lambda+- = (-p +- s sqrt(d)) / 2 with
    d squarefree and s > 0 rational."""
    p = m.coefficient(1)
    disc = p * p - 4 * m.coefficient(0)
    s, d = square_split(disc.numerator * disc.denominator)
    # sqrt(disc) = s * sqrt(d) / disc.den, so over den = 2 * p.den * disc.den
    # the coordinates of lambda+- are -p.num * disc.den and +-s * p.den
    c0, c1 = -p.numerator * disc.denominator, s * p.denominator
    den = 2 * p.denominator * disc.denominator
    return d, MultiQuad._of_ints({1: c0, d: c1}, den), MultiQuad._of_ints({1: c0, d: -c1}, den)
