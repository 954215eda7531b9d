"""Semisimple + nilpotent decompositions of rational matrices.

The additive decomposition M = S + N is assembled from the covariant
system of the minimal polynomial: S is the image of the rational
witness polynomial sum(S_i) at M, so S and N are themselves rational
polynomials in M.  A Newton iteration on the squarefree part of the
minimal polynomial m, run in Q[X]/(m) and evaluated once at M,
provides an independent oracle for S; the two must agree exactly.

The fine decomposition refines S + N into one (S_i, N_i) pair per
irreducible factor, S_i = E_i(M) S and N_i = E_i(M) N for the class
projector E_i(M), with the zero eigenvalue class (factor X) carrying
S_i = 0 and ordered last.  Every per-class part in the library is
formed this way: a projector times S or N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, List, Optional, Sequence, Tuple

from mindec.covariant import CovariantSystem, build_covariant_system, materialize_projectors
from mindec.errors import InvariantViolation, NotSemisimple, SingularMatrix, ZeroMatrix
from mindec.factor import factor_rational
from mindec.matrix import (
    DenseMatrix,
    commute,
    horner_eval,
    inverse,
    is_minimal_polynomial,
    is_semisimple,
    kernel_basis,
    linear_combination,
    minimal_polynomial,
    rank,
)
from mindec.poly import Polynomial, X, ext_gcd, on_powers, power_table, squarefree_part
from mindec.report import VerificationReport, attach_report


@dataclass(frozen=True)
class SNDecomposition:
    """S + N with the witness s_poly that sn_decompose chose; n_poly is
    derived from it, so "newton-agreement", which certifies s_poly,
    certifies n_poly too."""

    semisimple: DenseMatrix
    nilpotent: DenseMatrix
    s_poly: Polynomial  # S = s_poly(M), degree < deg of the minimal polynomial
    system: CovariantSystem

    @property
    def n_poly(self) -> Polynomial:
        """N = n_poly(M) = M - S."""
        return X - self.s_poly


@dataclass(frozen=True)
class FineComponent:
    factor: Polynomial
    multiplicity: int
    semisimple: DenseMatrix
    nilpotent: DenseMatrix


@dataclass(frozen=True)
class FineDecomposition:
    """The components alone; zero_index is derived from them."""

    components: Tuple[FineComponent, ...]

    @property
    def zero_index(self) -> Optional[int]:
        """Index of the component whose factor is X (the zero class), or
        None; the rule of :attr:`mindec.factor.FactoredMinPoly.zero_index`."""
        return next((i for i, c in enumerate(self.components) if c.factor == X), None)

    def total_semisimple(self) -> DenseMatrix:
        n = self.components[0].semisimple.n
        return linear_combination(n, [(1, c.semisimple) for c in self.components])

    def total_nilpotent(self) -> DenseMatrix:
        n = self.components[0].nilpotent.n
        return linear_combination(n, [(1, c.nilpotent) for c in self.components])


@dataclass(frozen=True)
class MultiplicativeJC:
    semisimple: DenseMatrix
    unipotent: DenseMatrix
    #: verify_mjc's report, set by multiplicative_jc; None on a copy
    #: made with dataclasses.replace and on a hand-built candidate
    report: Optional[VerificationReport] = field(
        default=None, init=False, compare=False, repr=False
    )


def _min_poly_of(M: DenseMatrix) -> Polynomial:
    # computed once per matrix and kept in its analysis
    analysis = M.analysis
    if analysis.min_poly is None:
        analysis.min_poly = minimal_polynomial(M)
    return analysis.min_poly


@lru_cache(maxsize=1)
def _system_of_min_poly(m: Polynomial) -> CovariantSystem:
    # the last system built, keyed by its monic minimal polynomial;
    # an exception (RecombinationBudgetExceeded, ...) is not cached
    return build_covariant_system(factor_rational(m))


def system_of(M: DenseMatrix) -> CovariantSystem:
    """Covariant system of the minimal polynomial of M, kept in M's
    analysis; FieldMismatch for a matrix that is not rational.

    The system depends on the minimal polynomial m alone, so the last
    one built is kept in a one-entry memo keyed by m: a matrix whose m
    equals that of the matrix before it (the same matrix read again, or
    a conjugate) shares its system and skips factoring and building.
    Everything else kept from M (the minimal polynomial itself, the
    projectors, the power table) stays on M's own analysis.
    """
    analysis = M.analysis
    if analysis.system is None:
        analysis.system = _system_of_min_poly(_min_poly_of(M))
    return analysis.system


def sn_decompose(M: DenseMatrix) -> SNDecomposition:
    """Additive decomposition M = S + N.

    Total on square rational matrices; the zero matrix yields S = N = 0
    through the single factor X of its minimal polynomial.  S = s(M),
    s the system's semisimple witness, and N = M - S.
    """
    system = system_of(M)
    S = horner_eval(system.s_poly, M)
    return SNDecomposition(semisimple=S, nilpotent=M - S, s_poly=system.s_poly, system=system)


def _nilpotency_index(M: DenseMatrix) -> int:
    """mu, the largest multiplicity of a factor of M's own minimal
    polynomial (its factorization kept on M's analysis), at most n.
    The nilpotent part of M has index exactly mu: the size of its
    largest Jordan block."""
    return min(M.n, max(k for _, k in system_of(M).factored.factors))


def sn_newton_oracle(M: DenseMatrix, z: Optional[Polynomial] = None) -> DenseMatrix:
    """Independent construction of the semisimple part: the polynomial
    z of :func:`_newton_poly`, Newton's iteration in Q[X]/(m) on the
    minimal polynomial m of M (read from M's analysis), evaluated once
    at M; a caller that already holds z passes it.  z(M) is the unique
    semisimple S with M - S nilpotent, commuting with M.

    It shares nothing with the covariant construction but basic
    polynomial arithmetic, m and the final :func:`horner_eval` at M: no
    factorization, no CRT and no covariant system.  The power-table
    composition it reads g(z) and g'(z) from (power_table, on_powers)
    is shared with the covariant route's root lift, but it is part of
    that basic arithmetic: f(z) mod m for given f, z and m, with no
    knowledge of a factor or a covariant.  So verify_sn's
    "newton-agreement" still fails when the covariant route builds a
    wrong s_poly, and so a wrong S = s_poly(M), and when S is corrupted
    after it was built: either way S no longer equals z(M).
    """
    return horner_eval(_newton_poly(_min_poly_of(M)) if z is None else z, M)


def _newton_poly(m: Polynomial) -> Polynomial:
    """The semisimple part of X in Q[X]/(m), reduced mod m: Newton's
    iteration z <- z - g(z) * w mod m from z = X, g the squarefree part
    of m (Yun's algorithm), with w an approximation of g'(z)^-1.

    w_0 = g'^-1 mod g comes from one extended gcd at degree deg g, and
    every later step applies one Schulz update w <- w * (2 - g'(z) * w)
    mod m.  g(z) and g'(z) are read off one table z^0 ... z^deg(g) mod
    m per step.  Convergence stays quadratic: with (h) the ideal of h
    in Q[X]/(m), g(z_k) and 1 - g'(z_k) * w_k lie in (g^(2^k)).  For
    k = 0, z_0 = X and w_0 inverts g' mod g.  z_(k+1) - z_k is a
    multiple of g(z_k), so g'(z_(k+1)) = g'(z_k) mod g^(2^k), and the
    Schulz step squares the residual 1 - g'(z_(k+1)) * w_k, which puts
    it in (g^(2^(k+1))); Taylor's formula gives
    g(z_(k+1)) = g(z_k) * (1 - g'(z_k) * w_k) mod g(z_k)^2, also in
    (g^(2^(k+1))).  With mu the largest multiplicity of a factor of m,
    g^mu = 0 mod m, so g(z_k) = 0 once 2^k >= mu and ceil(log2 mu) + 1
    evaluations of g suffice; InvariantViolation if they do not.  w_0 is
    computed only after a first g(z) != 0, so a squarefree m (g = m)
    returns X mod m at once, with no extended gcd.
    """
    g, profile = squarefree_part(m)
    mu = max((k for _, k in profile), default=1)
    dg = g.derivative()
    z, w = X % m, None
    for _ in range((mu - 1).bit_length() + 1):
        table = power_table(z, m, g.degree)
        value = on_powers(g, table)
        if value.is_zero:
            return z
        if w is None:
            w = ext_gcd(dg, g)[1]
        else:
            w = _schulz(w, on_powers(dg, table), m)
        z = (z - value * w) % m
    raise InvariantViolation("Newton iteration did not stabilize")


def _schulz(w: Polynomial, a: Polynomial, m: Polynomial) -> Polynomial:
    # w * (2 - a * w) mod m: squares the residual 1 - a * w
    return w * (2 - a * w % m) % m


def verify_sn(M: DenseMatrix, sn: SNDecomposition) -> VerificationReport:
    """Identity report for an additive decomposition, including exact
    agreement with the independent Newton construction
    (:func:`sn_newton_oracle`, which shares only basic polynomial
    arithmetic, the minimal polynomial and the final evaluation at M
    with the covariant route, so an S from a wrong s_poly or a
    corrupted S fails "newton-agreement").  The same check compares the
    printed s_poly with the Newton polynomial z itself, a polynomial
    comparison: the witness of X in Q[X]/(m) is unique, so a wrong
    s_poly, and with it the derived n_poly, fails even beside a true S.

    The "nilpotent" check computes N^mu, mu <= n the largest
    multiplicity in the factorization of M's own minimal polynomial,
    never the candidate's system: the true N has index exactly mu, and
    N^mu = 0 implies the stated N^n = 0.

    "commutation" is implied by "reassembly" and "newton-agreement"
    unless the oracle itself is wrong: with S = z(M) and S + N = M, S and
    N = M - z(M) are both polynomials in M, so they commute."""
    report = VerificationReport("additive decomposition")
    report.add("reassembly", "S + N = M", sn.semisimple + sn.nilpotent == M)
    report.add("commutation", "SN = NS", commute(sn.semisimple, sn.nilpotent))
    report.add(
        "semisimple", "minimal polynomial of S is squarefree", is_semisimple(sn.semisimple)
    )
    mu = _nilpotency_index(M)
    report.add("nilpotent", "N^n = 0", (sn.nilpotent**mu).is_zero)
    z = _newton_poly(_min_poly_of(M))
    report.add(
        "newton-agreement",
        "S equals the Newton iteration limit bit for bit",
        sn.s_poly == z and sn.semisimple == sn_newton_oracle(M, z),
    )
    return report


def fine_decompose(M: DenseMatrix) -> FineDecomposition:
    """One (S_i, N_i) pair per irreducible factor of the minimal
    polynomial, the zero eigenvalue class last with S_i = 0.

    S_i = E_i(M) S and N_i = E_i(M) N, from the projectors kept on M's
    analysis and one additive decomposition: E_i * s = S_i and
    X * E_i - S_i = E_i * (X - s) modulo m, and m(M) = 0, which
    materialize_projectors checks.
    """
    system = system_of(M)
    sn = sn_decompose(M)
    projectors = materialize_projectors(system, M)
    components = tuple(
        FineComponent(
            factor=factor,
            multiplicity=mult,
            semisimple=E_i @ sn.semisimple,
            nilpotent=E_i @ sn.nilpotent,
        )
        for (factor, mult), E_i in zip(system.factored.factors, projectors)
    )
    return FineDecomposition(components)


def _class_parts_witness(
    M: DenseMatrix, parts: Sequence[Tuple[str, Any]], fits: Callable[[Any, Polynomial], bool]
) -> str:
    """The empty string when ``parts`` match the irreducible factors
    m_i != X of M's own minimal polynomial one to one; else a witness.
    Each part is (name, part), and fits(part, m_i) is the caller's test
    that the part is the class part of m_i.

    Each part takes the first factor it fits that no earlier part took.
    A fits test that holds for at most one m_i, such as a minimal
    polynomial decided by evaluation, makes the order of the parts free.
    A candidate that merges two classes, splits one or takes a factor
    that is not M's fails.
    """
    free = [f for f, _ in system_of(M).factored.factors if f != X]
    if len(parts) != len(free):
        return f"{len(parts)} parts for the {len(free)} nonzero classes of M"
    for name, part in parts:
        f = next((f for f in free if fits(part, f)), None)
        if f is None:
            return f"{name} is not the class part of a factor of M that no earlier part took"
        free.remove(f)
    return ""


def verify_fine(M: DenseMatrix, fd: FineDecomposition) -> VerificationReport:
    """Check the defining conditions of a fine decomposition of M.

    The checks are chosen so that any swap or corruption of the
    nilpotent parts between components is detected:

    * the components sum back to M;
    * cross products between different components vanish;
    * each nonzero-class nilpotent kills the kernel of M^e, where e is
      the multiplicity of the factor X (e = 0 for nonsingular M);
    * the kernel of the summed semisimple part is exactly Ker(M^e);
    * with r >= 2, r the number of irreducible factors of M's own
      minimal polynomial, or with two or more components, the nonzero
      S_i are one per factor m_i != X, each with minimal polynomial
      X * m_i for its own m_i and the multiplicity of m_i in M's
      minimal polynomial.

    The zero class is the component whose factor is X, and e its
    multiplicity; when M's minimal polynomial has the factor X,
    "kernel-equality" also asks e to be its multiplicity there.  With
    r = 1 and one component, no check reads a nonzero class's factor
    or multiplicity, so one that is not M's raises InvariantViolation.

    The two kernel checks are integer matrix products: the basis of
    Ker(M^e) fills the first columns of an n x n matrix K, zeros the
    rest, and A v = 0 for every basis vector v exactly when A K = 0.
    With e = 0 the kernel is 0, both checks hold and no product is made.

    The last check is :func:`_class_parts_witness`, which verify_unbreakable
    runs too.  It counts the nonzero S_i against M's factors and decides
    each by evaluation, (X m_i)(S_i) = 0, m_i(S_i) != 0 and S_i != 0
    (:func:`mindec.matrix.is_minimal_polynomial`), with m_i the factor
    S_i claims.  The minimal polynomial of S_i then divides X m_i, and
    with X and m_i irreducible it keeps each of them, so it is X m_i; it
    is X m_i only if those three hold.  r is read from M, not from the
    candidate, so a candidate that merges all of M's classes into one
    component, merges two under a reducible m_i, or splits one class
    between two components, fails.  A true decomposition has exactly r
    components, so the check runs on every candidate with more.
    """
    report = VerificationReport("fine decomposition")
    n = M.n
    comps = fd.components
    total_s = fd.total_semisimple()
    total_n = fd.total_nilpotent()
    report.add(
        "component-sums",
        "sum(S_i) + sum(N_i) = M",
        total_s + total_n == M,
    )
    cross_ok = True
    witness = ""
    for h, ch in enumerate(comps):
        for l, cl in enumerate(comps):
            if h == l:
                continue
            if not (ch.nilpotent @ cl.semisimple).is_zero:
                cross_ok = False
                witness = f"N_{h} * S_{l} != 0"
            if h < l and not (ch.semisimple @ cl.semisimple).is_zero:
                cross_ok = False
                witness = f"S_{h} * S_{l} != 0"
            if h < l and not (ch.nilpotent @ cl.nilpotent).is_zero:
                cross_ok = False
                witness = f"N_{h} * N_{l} != 0"
    report.add(
        "cross-annihilation",
        "N_h S_l = 0, S_h S_l = 0, N_h N_l = 0 for h != l",
        cross_ok,
        witness,
    )
    factored = system_of(M).factored
    z, own = fd.zero_index, dict(factored.factors)
    e = comps[z].multiplicity if z is not None else 0
    ker = kernel_basis(M**e) if e else []
    K = DenseMatrix(ker + [(0,) * n] * (n - len(ker))).transpose() if e else None
    kills = lambda A: K is None or (A @ K).is_zero  # noqa: E731
    containment_ok = True
    witness = ""
    for h, ch in enumerate(comps):
        if h != z and not kills(ch.nilpotent):
            containment_ok = False
            witness = f"Ker(M^{e}) not inside Ker(N_{h})"
    report.add(
        "kernel-containment",
        "Ker(M^e) contained in Ker(N_h) for every nonzero class h",
        containment_ok,
        witness,
    )
    # dim Ker(M^e) is the length of its basis, 0 for e = 0
    # and e is the multiplicity of X in M's minimal polynomial, if it has X
    equality_ok = n - rank(total_s) == len(ker) and kills(total_s) and own.get(X, e) == e
    report.add(
        "kernel-equality",
        "Ker(sum S_i) = Ker(M^e)",
        equality_ok,
    )
    if len(factored.factors) >= 2 or len(comps) >= 2:
        nonzero = [(f"S_{i}", c) for i, c in enumerate(comps) if not c.semisimple.is_zero]
        witness = _class_parts_witness(
            M,
            nonzero,
            lambda c, f: f == c.factor
            and c.multiplicity == own[f]
            and is_minimal_polynomial(c.semisimple, (X, f)),
        )
        report.add(
            "component-min-poly",
            "minimal polynomial of each nonzero S_i is X * m_i (r >= 2)",
            not witness,
            witness,
        )
    elif X not in own and (comps[0].factor, comps[0].multiplicity) != factored.factors[0]:
        raise InvariantViolation("component 0 is not the one class of M's minimal polynomial")
    return report


def unbreakable_components(S: DenseMatrix) -> List[DenseMatrix]:
    """Decompose a nonzero semisimple matrix into its unbreakable
    semisimple summands, one per nonzero eigenvalue class.

    These are the S_i = E_i(S) S of :func:`fine_decompose` for the
    nonzero classes (S's N is 0), in its factor order.  None of them can
    be written as a sum of two nonzero commuting semisimple matrices
    with the same one-factor structure.  Raises NotSemisimple when the
    minimal polynomial is not squarefree and ZeroMatrix for S = 0.
    """
    system = system_of(S)
    if S.is_zero:
        raise ZeroMatrix("the zero matrix has no unbreakable components")
    if not system.factored.is_squarefree:
        raise NotSemisimple("matrix is not semisimple")
    fd = fine_decompose(S)
    return [c.semisimple for c in fd.components if c.factor != X]


def multiplicative_jc(M: DenseMatrix) -> MultiplicativeJC:
    """Multiplicative decomposition M = S * U = U * S.

    S is the semisimple part, U = I + S^-1 N is unipotent; M must be
    nonsingular (SingularMatrix otherwise).  verify_mjc runs once on
    the result, which carries the report as ``report``; a failed check
    raises InvariantViolation.
    """
    sn = sn_decompose(M)
    if sn.system.factored.zero_index is not None:
        raise SingularMatrix("matrix is singular; no multiplicative decomposition")
    S = sn.semisimple
    U = linear_combination(M.n, [(1, inverse(S) @ sn.nilpotent)], 1)
    jc = MultiplicativeJC(semisimple=S, unipotent=U)
    return attach_report(jc, verify_mjc(M, jc))


def verify_unbreakable(M: DenseMatrix, components: Sequence[DenseMatrix]) -> VerificationReport:
    """Check an unbreakable-component list against its semisimple source.

    "single-class" asks for one component per nonzero class of M, each
    the class part of a distinct irreducible factor of M's own minimal
    polynomial, in any order (:func:`_class_parts_witness`, the
    certificate of verify_fine's "component-min-poly"): with two or
    more factors each component has minimal polynomial X m_i, decided
    by evaluation; with one factor the one component is M, which
    "reassembly" checks.  No matrix but M has its minimal polynomial
    computed or factored."""
    report = VerificationReport("unbreakable components")
    total = linear_combination(M.n, [(1, c) for c in components])
    report.add("reassembly", "components sum to M", total == M)
    report.add(
        "pairwise-products",
        "U_h U_l = 0 for h != l",
        all(
            (components[h] @ components[l]).is_zero
            for h in range(len(components))
            for l in range(len(components))
            if h != l
        ),
    )
    # with one factor the one component is M, which "reassembly" checks
    one = len(system_of(M).factored.factors) == 1
    witness = _class_parts_witness(
        M,
        [(f"component {i}", c) for i, c in enumerate(components)],
        lambda c, f: one or is_minimal_polynomial(c, (X, f)),
    )
    report.add(
        "single-class",
        "each component's nonzero spectrum is one conjugacy class",
        not witness,
        witness,
    )
    return report


def verify_mjc(M: DenseMatrix, jc: MultiplicativeJC) -> VerificationReport:
    """Identity report for a multiplicative decomposition M = S U.

    The "unipotent" check computes (U - I)^mu, mu as in verify_sn: for
    the true pair U - I = S^-1 N with S^-1 and N commuting, so its
    index is N's, and (U - I)^mu = 0 implies the stated (U - I)^n = 0."""
    report = VerificationReport("multiplicative decomposition")
    report.add(
        "reassembly", "S U = U S = M", jc.semisimple @ jc.unipotent == M
        and jc.unipotent @ jc.semisimple == M
    )
    report.add(
        "semisimple", "minimal polynomial of S is squarefree", is_semisimple(jc.semisimple)
    )
    mu = _nilpotency_index(M)
    report.add(
        "unipotent",
        "(U - I)^n = 0",
        (linear_combination(M.n, [(1, jc.unipotent)], -1) ** mu).is_zero,
    )
    return report
