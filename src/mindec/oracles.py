"""Independent oracles: the constructions the command path is compared against.

``mindec selftest`` and the tests compare the command path against the
code here; :mod:`mindec.cli` and every module it imports leave this one
unimported, so a request never pays for it.  Each item names what
compares the program against it.

* :class:`NumberField` and :class:`NumberFieldElement`: residues modulo
  one fixed irreducible monic polynomial, for computing with a generic
  root of an irreducible factor without naming any particular root.  A
  residue is a rational :class:`~mindec.poly.Polynomial`, so it is held
  in the one rational format of the library, integers over one
  denominator, and it divides through ``.inverse()`` as a
  :class:`~mindec.scalar.MultiQuad` does: ring operations and
  ``inverse()`` are all that ``Polynomial`` asks of a coefficient.
  :func:`trace_coeffwise` takes a polynomial over Q[Y]/(m) down to Q,
  and :func:`hasse_derivative` gives the Taylor coefficients of a
  polynomial at a generic root.  Criterion 8 checks the trace and
  inverse laws that criterion 2's traces rest on, and
  ``tests/test_covariant.py`` compares the slices of f(M) with the
  generic-root slices built from :func:`hasse_derivative` and
  :func:`trace_coeffwise`.

* The generic-root covariant.  In R_i = Q[Y]/(m_i), with the generic
  root Y, :func:`build_generic_covariant` builds

      h_i = m_i / (X - Y)                      (synthetic division),
      G_i = h_i^mu_i * prod_{j != i} m_j^mu_j,
      B_i * G_i + L_i * (X - Y)^mu_i = 1       (extended gcd in R_i[X]),
      C_i = B_i * G_i,

  so C_i is the generic covariant of the factor: substituting a
  concrete root for Y gives the classical Frobenius covariant of that
  root, and the coefficient-wise field traces Tr(C_i) and Tr(Y * C_i)
  are the rational witnesses E_i and S_i of
  :func:`mindec.covariant.build_covariant_system` again
  (:func:`trace_witnesses`, compared in criterion 2).  Its split over
  Q(sqrt(d)), :func:`split_covariants_over_extension`, is the oracle
  for the real-pair projectors that complete_mjc forms from E_i(M) and
  E_i(M) S (criterion 5).  Each call builds it for one factor, and
  nothing keeps it.

* :func:`fine_of_image`, the fine decomposition of f(M) assembled from
  the classes of M, which criterion 4 compares with the fine
  decomposition of f(M) itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul
from typing import List, Sequence, Tuple

from mindec.covariant import CovariantSystem, materialize_projectors, quadratic_roots
from mindec.decompose import FineComponent, FineDecomposition, system_of
from mindec.errors import (
    DoesNotSplit,
    FieldMismatch,
    InvariantViolation,
    MixedModuli,
    NotInvertible,
    PartitionOfUnityFailure,
)
from mindec.factor import FactoredMinPoly
from mindec.matfun import schwerdtfeger_eval
from mindec.matrix import DenseMatrix, linear_combination
from mindec.poly import ONE, Polynomial, binary_power, ext_gcd, ratio_to_string
from mindec.scalar import MultiQuad, RationalLike

# -- number fields ----------------------------------------------------


class NumberField:
    """Q[Y]/(m) for one monic irreducible m over Q.

    Irreducibility is the caller's responsibility (factors of a
    factored minimal polynomial are irreducible by construction); the
    arithmetic here only requires m to be monic of degree >= 1.
    Power sums of the roots of m are computed once per field by
    Newton's identities and cached for trace computations.
    """

    __slots__ = ("modulus", "_m", "_psums")

    def __init__(self, modulus: Sequence[RationalLike]):
        coeffs = tuple(Fraction(c) for c in modulus)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.modulus = coeffs
        self._m = Polynomial(coeffs)
        self._psums = None

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    @property
    def power_sums(self) -> Tuple[Fraction, ...]:
        """p_0 .. p_(d-1) where p_k is the sum of k-th powers of the
        roots of the modulus (Newton's identities)."""
        if self._psums is None:
            d = self.degree
            e = [Fraction(0)] * (d + 1)  # elementary symmetric functions
            for i in range(1, d + 1):
                e[i] = (-1) ** i * self.modulus[d - i]
            p = [Fraction(d)]
            for k in range(1, d):
                acc = (-1) ** (k - 1) * k * e[k]
                for i in range(1, k):
                    acc += (-1) ** (i - 1) * e[i] * p[k - i]
                p.append(acc)
            self._psums = tuple(p)
        return self._psums

    def element(self, coeffs: Sequence[RationalLike]) -> "NumberFieldElement":
        return NumberFieldElement(self, Polynomial(map(Fraction, coeffs)) % self._m)

    def embed(self, q: RationalLike) -> "NumberFieldElement":
        return NumberFieldElement(self, Polynomial((Fraction(q),)))

    def gen(self) -> "NumberFieldElement":
        """The generic root Y of the modulus."""
        return self.element((0, 1))

    def zero(self) -> "NumberFieldElement":
        return NumberFieldElement(self, Polynomial())

    def one(self) -> "NumberFieldElement":
        return NumberFieldElement(self, ONE)

    def __repr__(self):
        return f"NumberField({[str(c) for c in self.modulus]})"


class NumberFieldElement:
    """Residue in Q[Y]/(m), stored as a rational Polynomial of degree
    below deg m; sums, products and inverses are computed on it."""

    __slots__ = ("field", "residue")

    def __init__(self, field: NumberField, residue: Polynomial):
        self.field = field
        self.residue = residue

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return self.residue.coeffs

    @property
    def is_rational(self) -> bool:
        return self.residue.degree <= 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.residue.coefficient(0)

    def _check(self, other) -> "NumberFieldElement":
        if isinstance(other, (int, Fraction)):
            return self.field.embed(other)
        if isinstance(other, NumberFieldElement):
            if other.field.modulus != self.field.modulus:
                raise MixedModuli("elements of different number fields")
            return other
        return None

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return NumberFieldElement(self.field, self.residue + other.residue)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return NumberFieldElement(self.field, self.residue - other.residue)

    def __neg__(self):
        return NumberFieldElement(self.field, -self.residue)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return NumberFieldElement(
            self.field, (self.residue * other.residue) % self.field._m
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return binary_power(self, n, mul) if n else self.field.one()

    def __bool__(self):
        return bool(self.residue)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.embed(other)
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        if other.field.modulus != self.field.modulus:
            return False
        return self.residue == other.residue

    def inverse(self) -> "NumberFieldElement":
        """Extended Euclid against the modulus: s*x + t*m = 1, with
        deg s < deg m."""
        if not self.residue:
            raise NotInvertible("zero has no inverse")
        g, s, _ = ext_gcd(self.residue, self.field._m)
        if g.degree != 0:
            # cannot happen over an irreducible modulus
            raise NotInvertible(f"{self} shares a factor with the modulus")
        return NumberFieldElement(self.field, s)

    def trace(self) -> Fraction:
        """Trace to Q: sum of the element over all embeddings, via the
        cached power sums of the modulus."""
        sums = self.field.power_sums
        acc = Fraction(0)
        for i, c in enumerate(self.coeffs):
            acc += c * sums[i]
        return acc

    def __repr__(self):
        return f"<{self} mod {[str(c) for c in self.field.modulus]}>"

    def __str__(self):
        if not self.residue:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            c = ratio_to_string(c.numerator, c.denominator)
            parts.append(c if i == 0 else (f"{c}*Y" if i == 1 else f"{c}*Y^{i}"))
        return " + ".join(parts)


#: NumberFieldElement.inverse under the name perfbench/tracer.py wraps
nf_invert = NumberFieldElement.inverse


def hasse_derivative(f: Polynomial, k: int) -> Polynomial:
    """k-th Hasse derivative: sum of C(m, k) * a_m * X^(m-k).

    Equals the k-th formal derivative divided by k! in characteristic
    zero; the zeroth Hasse derivative is f itself.
    """
    if k < 0:
        raise ValueError("Hasse derivative order must be nonnegative")
    if k == 0:
        return f
    return Polynomial(
        tuple(comb(m, k) * f.coeffs[m] for m in range(k, len(f.coeffs)))
    )


def trace_coeffwise(p: Polynomial) -> Polynomial:
    """Coefficient-wise number field trace down to the rationals.

    Coefficients must be elements of one number field (plain rationals
    are read as embedded rationals, whose trace is degree * value).
    """
    if not p.coeffs:
        return Polynomial()
    field = None
    for c in p.coeffs:
        f = getattr(c, "field", None)
        if f is None:
            continue
        if field is None:
            field = f
        elif f.modulus != field.modulus:
            raise MixedModuli("coefficients from different number fields")
    if field is None:
        raise FieldMismatch("no number field coefficient to take the trace of")
    d = field.degree
    out = []
    for c in p.coeffs:
        if isinstance(c, Fraction):
            out.append(d * c)
        else:
            out.append(c.trace())
    return Polynomial(tuple(out))


# -- the generic-root covariant ---------------------------------------


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


# -- the fine decomposition of an image -----------------------------


def fine_of_image(f: Polynomial, M: DenseMatrix) -> FineDecomposition:
    """Fine decomposition of f(M) assembled classwise from the source
    covariants, without decomposing f(M) itself.

    The parts and classes come from one
    :func:`mindec.matfun.schwerdtfeger_eval`; the class parts are
    P_c sem and P_c nil, P_c the sum of the projectors E_i(M) over the
    class.  Component multiplicities are the nilpotency orders of the
    class nilpotents, which match the factor multiplicities in the
    minimal polynomial of f(M).
    """
    result = schwerdtfeger_eval(f, M)
    projectors = materialize_projectors(system_of(M), M)
    components = []
    for cls in result.classes:
        P_c = linear_combination(M.n, [(1, projectors[i]) for i in cls.indices])
        S_c = P_c @ result.semisimple_part
        N_c = P_c @ result.nilpotent_part
        mult = 1
        power = N_c
        while not power.is_zero:
            mult += 1
            if mult > M.n:
                raise InvariantViolation("class nilpotent is not nilpotent")
            power = power @ N_c
        components.append(
            FineComponent(
                factor=cls.image,
                multiplicity=mult,
                semisimple=S_c,
                nilpotent=N_c,
            )
        )
    return FineDecomposition(tuple(components))
