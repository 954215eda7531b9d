"""Polynomial functions of a matrix through its covariant system.

The value of f at M is read off the rational witnesses of the
covariant system: with E_i the partition of unity and s = sum(S_i) the
semisimple witness, both modulo the minimal polynomial m,

    f(M) = f(s)(M) + (f - f(s))(M),   f(s) and f - f(s) reduced mod m.

f(s) is the semisimple part of f(M) and simultaneously the image of
the semisimple part of M under f; f - f(s) is the nilpotent part.
f(s) mod m is one composition (:func:`mindec.poly.compose_mod`, a
table of the powers of s mod m and one integer combination), so no
number field is built.  On a factor of multiplicity one s = X mod m_i,
so there E_i * (f - f(s)) = 0 mod m, and only the classical
interpolation formula on eigenvalues remains.

The part of a class of factors is a projector times a part: with
P = E_i(M) summed over the class, P f(s)(M) and P (f - f(s))(M)
(:func:`fine_of_image`).  (E_i * g mod m)(M) = E_i(M) g(M) because
m(M) = 0, so no per-factor polynomial is formed.

Factors whose roots map to conjugate values under f merge in the
image; the equivalence classes are computed from the minimal
polynomial of the multiplication-by-f(Y) operator on each
Q[Y]/(m_i), which is f(C) for C = companion(m_i), the multiplication
by Y in the basis 1, Y, ..., Y^(d-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from mindec.covariant import CovariantSystem, materialize_projectors
from mindec.decompose import (
    FineComponent,
    FineDecomposition,
    _nilpotency_index,
    sn_decompose,
    system_of,
)
from mindec.errors import InvariantViolation, NotSemisimple
from mindec.factor import FactoredMinPoly, factor_order
from mindec.matrix import (
    DenseMatrix,
    commute,
    companion,
    horner_eval,
    is_semisimple,
    linear_combination,
    minimal_polynomial,
)
from mindec.poly import Polynomial, compose_mod
from mindec.report import VerificationReport


@dataclass(frozen=True)
class EquivalenceClass:
    """Factors of the source minimal polynomial whose roots become
    conjugates of each other in the image."""

    image: Polynomial  # minimal polynomial of f(Y), irreducible over Q
    indices: Tuple[int, ...]


@dataclass(frozen=True)
class MatFunResult:
    value: DenseMatrix
    semisimple_part: DenseMatrix
    nilpotent_part: DenseMatrix
    sem_poly: Polynomial
    nil_poly: Polynomial
    classes: Tuple[EquivalenceClass, ...]


def _parts_of(system: CovariantSystem, f: Polynomial) -> Tuple[Polynomial, Polynomial]:
    """(f_m, f(s) mod m) for f_m = f mod m and s the semisimple
    witness; f(s) = f_m(s) mod m, since m(s) = 0 mod m (s(M) has the
    squarefree part of m as its minimal polynomial)."""
    m = system.min_poly
    f_m = f % m
    return f_m, compose_mod(f_m, system.s_poly, m)


def schwerdtfeger_eval(f: Polynomial, M: DenseMatrix) -> MatFunResult:
    """Evaluate a rational polynomial at M covariant by covariant.

    Returns the value together with its split into semisimple and
    nilpotent parts and the factor equivalence classes of the image.
    The value equals direct evaluation by horner_eval; the parts equal
    the additive decomposition of the value.  f must be rational
    (FieldMismatch otherwise).
    """
    system = system_of(M)
    f_m, sem_poly = _parts_of(system, f)
    nil_poly = f_m - sem_poly
    sem = horner_eval(sem_poly, M)
    nil = horner_eval(nil_poly, M)
    return MatFunResult(
        value=sem + nil,
        semisimple_part=sem,
        nilpotent_part=nil,
        sem_poly=sem_poly,
        nil_poly=nil_poly,
        classes=tuple(f_equivalence_classes(f, system.factored)),
    )


def sylvester_eval(f: Polynomial, M: DenseMatrix) -> DenseMatrix:
    """Eigenvalue interpolation for a matrix with squarefree minimal
    polynomial: f(s) mod m at M, with no nilpotent correction.

    Raises NotSemisimple when nilpotent corrections would be needed.
    """
    system = system_of(M)
    if not system.factored.is_squarefree:
        raise NotSemisimple("matrix has a repeated factor; interpolation insufficient")
    return horner_eval(_parts_of(system, f)[1], M)


def _image_min_poly(f: Polynomial, factor: Polynomial) -> Polynomial:
    """Minimal polynomial over Q of f(Y) in Q[Y]/(factor): the minimal
    polynomial of the multiplication-by-f(Y) operator, which is f(C)
    for C = companion(factor), the multiplication by Y in the basis
    1, Y, ..., Y^(d-1).  factor(C) = 0, so f(C) is the same for every
    f of one residue; the residue f mod factor costs the least."""
    return minimal_polynomial(horner_eval(f, companion(factor)))


def f_equivalence_classes(
    f: Polynomial, factored: FactoredMinPoly
) -> List[EquivalenceClass]:
    """Group factors by the minimal polynomial of the image of their
    generic root; classes are ordered by their image as factorizations
    order their factors (:func:`mindec.factor.factor_order`).

    Each image q is certified where it is built, with no matrix and
    without reusing the Krylov run: q(f mod p) = 0 in Q[Y]/(p), p the
    factor, so q is a multiple of the minimal polynomial of f(Y) there;
    InvariantViolation if not."""
    images = {}
    for i, (factor, _) in enumerate(factored.factors):
        residue = f % factor
        q = _image_min_poly(residue, factor)
        if not compose_mod(q, residue, factor).is_zero:
            raise InvariantViolation(f"image {q} does not vanish at f(Y) mod {factor}")
        images.setdefault(q.coeffs, []).append((i, q))
    classes = [
        EquivalenceClass(image=entries[0][1], indices=tuple(i for i, _ in entries))
        for entries in images.values()
    ]
    classes.sort(key=lambda c: factor_order(c.image))
    return classes


def fine_of_image(f: Polynomial, M: DenseMatrix) -> FineDecomposition:
    """Fine decomposition of f(M) assembled classwise from the source
    covariants, without decomposing f(M) itself.

    The parts and classes come from one :func:`schwerdtfeger_eval`;
    the class parts are P_c sem and P_c nil, P_c the sum of the
    projectors E_i(M) over the class.  Component multiplicities are the
    nilpotency orders of the class nilpotents, which match the factor
    multiplicities in the minimal polynomial of f(M).
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


def verify_matfun(f: Polynomial, M: DenseMatrix, result: MatFunResult) -> VerificationReport:
    """Cross-check a covariant evaluation against direct evaluation
    (horner_eval, whose name the "value" check's statement keeps) and
    the additive decomposition of the image.

    The "parts-exact" check certifies the parts by the uniqueness of
    the additive (Jordan-Chevalley) decomposition, not by decomposing
    f(M) again: if A = S' + N' with S' semisimple, N' nilpotent and
    S'N' = N'S', then (S', N') is the decomposition of A (Humphreys,
    Introduction to Lie Algebras and Representation Theory, sec. 4.2).
    So it passes when the parts sum to direct = f(M), commute, the
    minimal polynomial of the semisimple part is squarefree, and
    nil^mu = 0 with mu <= n the nilpotency index of M's own nilpotent
    part N.  Any mu >= 1 proves nil nilpotent, so a wrong mu can only
    fail a correct nil, never pass a wrong one.  The true parts pass:
    with M = S + N, f(M) - f(S) = N * q(M, S) for a polynomial q, which
    commutes with N, so its mu-th power is N^mu * q^mu = 0.
    """
    report = VerificationReport("matrix function")
    direct = horner_eval(f, M)
    report.add("value", "covariant evaluation equals Horner evaluation", result.value == direct)
    sem, nil = result.semisimple_part, result.nilpotent_part
    total = sem + nil
    report.add("parts-sum", "semisimple + nilpotent parts = value", total == result.value)
    # is_semisimple takes rational matrices only, and the true
    # parts are rational: polynomials in f(M) over Q
    exact = (
        total == direct
        and sem.is_rational
        and commute(sem, nil)
        and is_semisimple(sem)
        and (nil ** _nilpotency_index(M)).is_zero
    )
    report.add(
        "parts-exact", "the parts are the additive decomposition of the value", exact
    )
    sn_source = sn_decompose(M)
    report.add(
        "functoriality",
        "semisimple part of f(M) equals f(semisimple part of M)",
        sem == horner_eval(f, sn_source.semisimple),
    )
    return report
