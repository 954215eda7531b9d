"""Self-contained verification suite.

Eight criteria cover the whole stack: additive decompositions against
the independent Newton construction, projector axioms together with
agreement of the rational witnesses with the generic-root traces, fine
decompositions plus corruption detection, matrix functions, the
Delta Sigma U split, singular value systems, a table of small
worked examples with frozen expected values, and randomized scalar
field/sign/trace/conjugation properties.  Everything is exact; a
criterion fails on the first wrong bit.

The same functions back `mindec selftest` and the test suite, so the
command line and continuous testing cannot drift apart.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from time import perf_counter
from typing import Callable, List, Tuple

from mindec.covariant import build_covariant_system, materialize_projectors, verify_system
from mindec.decompose import (
    FineDecomposition,
    fine_decompose,
    multiplicative_jc,
    sn_decompose,
    sn_newton_oracle,
    system_of,
    unbreakable_components,
    verify_fine,
    verify_sn,
)
from mindec.errors import DoesNotSplit
from mindec.factor import factor_rational
from mindec.generator import (
    block_diag,
    random_function_poly,
    random_gram_friendly,
    random_invertible_quadratic,
    random_matrix,
    random_normal_matrix,
)
from mindec.matfun import f_equivalence_classes, schwerdtfeger_eval
from mindec.matrix import (
    DenseMatrix,
    companion,
    horner_eval,
    inverse,
    kernel_basis,
    minimal_polynomial,
)
from mindec.oracles import (
    NumberField,
    build_generic_covariant,
    fine_of_image,
    hasse_derivative,
    split_covariants_over_extension,
    trace_coeffwise,
    trace_witnesses,
)
from mindec.poly import Polynomial, X, ext_gcd, squarefree_part
from mindec.realclosed import complete_mjc, split_real_pair, svd, verify_svd_system
from mindec.scalar import MultiQuad, mq_sqrt_rational


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(index, name, t0, failures, extra="") -> CriterionResult:
    elapsed = perf_counter() - t0
    detail = extra or f"{elapsed:.1f}s"
    if failures:
        detail += f"; failed: {failures[:6]}"
    return CriterionResult(index, name, not failures, detail, elapsed)


# -- criterion 1: additive decomposition ------------------------------


def criterion_sn(count: int = 200, budget: float = 60.0) -> CriterionResult:
    t0 = perf_counter()
    failures = []
    for k in range(count):
        M = random_matrix(f"sn-{k}").matrix
        if not verify_sn(M, sn_decompose(M)).passed:
            failures.append(f"sn-{k}")
    elapsed = perf_counter() - t0
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.1f}s over the {budget:.0f}s budget")
    return _result(
        1,
        "additive decomposition agrees with the Newton construction",
        t0,
        failures,
        f"{count} matrices in {elapsed:.1f}s",
    )


# -- criterion 2: projector axioms and the generic-root oracle --------


def generic_root_agreement(system) -> bool:
    """The rational E_i and S_i equal the traces Tr(C_i), Tr(Y C_i) of
    the generic covariants, built here for the comparison."""
    return all(
        trace_witnesses(build_generic_covariant(system.factored, i))
        == (system.e_polys[i], system.s_polys[i])
        for i in range(system.r)
    )


def criterion_covariants(count: int = 200) -> CriterionResult:
    t0 = perf_counter()
    failures = []
    for k in range(count):
        M = random_matrix(f"sn-{k}").matrix
        system = system_of(M)
        if not verify_system(system, M).passed:
            failures.append(f"sn-{k}")
        elif not generic_root_agreement(system):
            failures.append(f"sn-{k} (generic root)")
    return _result(
        2,
        "covariant projector axioms; rational witnesses equal generic-root traces",
        t0,
        failures,
        f"{count} systems",
    )


# -- criterion 3: fine decomposition + corruption detection -----------


def _swapped_nilpotents(fd: FineDecomposition):
    comps = fd.components
    for h in range(len(comps)):
        for l in range(h + 1, len(comps)):
            if comps[h].nilpotent != comps[l].nilpotent:
                out = list(comps)
                out[h] = replace(comps[h], nilpotent=comps[l].nilpotent)
                out[l] = replace(comps[l], nilpotent=comps[h].nilpotent)
                return FineDecomposition(tuple(out))
    return None


def criterion_fine(count: int = 200, mutations: int = 50) -> CriterionResult:
    t0 = perf_counter()
    failures = []
    for k in range(count):
        M = random_matrix(f"sn-{k}").matrix
        if not verify_fine(M, fine_decompose(M)).passed:
            failures.append(f"sn-{k}")
    detected = 0
    tried = 0
    k = 0
    while tried < mutations and k < mutations * 50:
        M = random_matrix(f"mut-{k}").matrix
        k += 1
        corrupted = _swapped_nilpotents(fine_decompose(M))
        if corrupted is None:
            continue
        tried += 1
        if not verify_fine(M, corrupted).passed:
            detected += 1
        else:
            failures.append(f"mutation mut-{k - 1} undetected")
    if tried < mutations:
        failures.append(f"only {tried} of {mutations} mutation cases found")
    return _result(
        3,
        "fine decomposition conditions and corruption detection",
        t0,
        failures,
        f"{count} matrices, {detected}/{tried} corruptions detected",
    )


# -- criterion 4: matrix functions ------------------------------------


def criterion_matfun(count: int = 100) -> CriterionResult:
    t0 = perf_counter()
    failures = []
    for k in range(count):
        M = random_matrix(f"fn-{k}").matrix
        f = random_function_poly(f"fn-{k}", max_degree=10)
        result = schwerdtfeger_eval(f, M)
        ok = result.value == horner_eval(f, M)
        sn_image = sn_decompose(result.value)
        ok = ok and result.semisimple_part == sn_image.semisimple
        ok = ok and result.nilpotent_part == sn_image.nilpotent
        ok = ok and result.semisimple_part == horner_eval(
            f, sn_decompose(M).semisimple
        )
        image_fine = fine_of_image(f, M)
        direct_fine = fine_decompose(result.value)
        ok = ok and image_fine.components == direct_fine.components
        if not ok:
            failures.append(f"fn-{k}")
    return _result(4, "matrix functions through covariants", t0, failures, f"{count} pairs")


# -- criterion 5: Delta Sigma U ---------------------------------------


def real_pair_splits(M: DenseMatrix):
    """For every real-pair class of M, the projectors of split_real_pair
    (from E_i(M) and S_i(M) = E_i(M) S, as complete_mjc forms them) and
    the generic-root split of the class evaluated at M."""
    sn = sn_decompose(M)
    system = sn.system
    projectors = materialize_projectors(system, M)
    for i, ((factor, _), E_i) in enumerate(zip(system.factored.factors, projectors)):
        p, q = factor.coefficient(1), factor.coefficient(0)
        if factor.degree == 2 and p * p > 4 * q:
            d, pairs = split_real_pair(factor, E_i, E_i @ sn.semisimple)
            split = split_covariants_over_extension(system, i, d)
            yield pairs, tuple((lam, horner_eval(cov, M)) for lam, cov in split)


def criterion_cmjc(count: int = 50) -> CriterionResult:
    t0 = perf_counter()
    failures = []
    pairs = 0
    for k in range(count):
        M = random_invertible_quadratic(f"mjc-{k}").matrix
        dsu = complete_mjc(M)  # raises on any failed identity
        again = complete_mjc(M)
        ok = (
            again.delta == dsu.delta
            and again.sigma == dsu.sigma
            and again.unipotent == dsu.unipotent
        )
        if not ok:
            failures.append(f"mjc-{k}")
        for ours, oracle in real_pair_splits(M):
            pairs += 1
            if ours != oracle:
                failures.append(f"mjc-{k} real pair (generic split)")
    return _result(
        5,
        "complete multiplicative decomposition",
        t0,
        failures,
        f"{count} matrices, {pairs} real pairs against the generic split",
    )


# -- criterion 6: singular value systems ------------------------------


def _gram_eigenvalues(A: DenseMatrix) -> List[Fraction]:
    gram = A.transpose() @ A
    factored = factor_rational(minimal_polynomial(gram))
    values = [-f.coefficient(0) for f, _ in factored.factors if f != X]
    return sorted(values, reverse=True)


def _corruption_cases():
    diag = DenseMatrix([[3, 0], [0, -2]])
    base = svd(diag)
    swapped = [
        (base.terms[1].sigma, base.terms[1].matrix),
        (base.terms[0].sigma, base.terms[0].matrix),
    ]
    ones = DenseMatrix([[1, 1], [1, 1]])
    single = svd(ones)
    scaled = [
        (
            single.terms[0].sigma * MultiQuad(Fraction(1, 2)),
            single.terms[0].matrix * MultiQuad(2),
        )
    ]
    dropped = [(base.terms[0].sigma, base.terms[0].matrix)]
    return (
        (diag, swapped, "ordering"),
        (ones, scaled, "partial-isometry"),
        (diag, dropped, "reassembly"),
    )


def criterion_svd(count: int = 50, normal_count: int = 20) -> CriterionResult:
    t0 = perf_counter()
    failures = []
    for k in range(count):
        A = random_gram_friendly(f"svd-{k}").matrix
        result = svd(A)  # raises on any failed axiom
        expected = [MultiQuad(v) for v in _gram_eigenvalues(A)]
        squares = [t.sigma * t.sigma for t in result.terms]
        if squares != expected:
            failures.append(f"svd-{k} sigma^2 mismatch")
    for A, candidate, check_name in _corruption_cases():
        report = verify_svd_system(A, candidate)
        fired = {c.name for c in report.failed_checks()}
        if report.passed or check_name not in fired:
            failures.append(f"corruption not caught by {check_name}")
    for k in range(normal_count):
        case = random_normal_matrix(f"normal-{k}")
        if svd(case.matrix).singular_values != case.norms:
            failures.append(f"normal-{k} norms mismatch")
    return _result(
        6,
        "singular value systems",
        t0,
        failures,
        f"{count} matrices, 3 corruptions, {normal_count} normal",
    )


# -- criterion 7: worked-example table --------------------------------

_TRIVIAL: List[Tuple[str, Callable[[], None]]] = []


def _case(name: str):
    def register(fn):
        _TRIVIAL.append((name, fn))
        return fn

    return register


def trivial_cases() -> List[Tuple[str, Callable[[], None]]]:
    """Small worked examples with frozen expected values; each callable
    asserts its expectation."""
    return list(_TRIVIAL)


def criterion_trivial() -> CriterionResult:
    t0 = perf_counter()
    failures = []
    for name, fn in trivial_cases():
        try:
            fn()
        except Exception:  # noqa: BLE001 - any failure marks the case
            failures.append(name)
    return _result(7, "worked-example table", t0, failures, f"{len(_TRIVIAL)} cases")


# -- criterion 8: scalar layer ----------------------------------------

_REAL_LABELS = (1, 2, 3, 5, 6, 10)
_ALL_LABELS = (1, 2, 3, 5, 6, 10, -1, -2, -5)
_MODULI = (
    (-2, 0, 1),  # Y^2 - 2
    (1, 0, 1),  # Y^2 + 1
    (-1, -1, 1),  # Y^2 - Y - 1
    (-2, 0, 0, 1),  # Y^3 - 2
    (-1, -1, 0, 1),  # Y^3 - Y - 1
)


def _random_mq(rng: random.Random, real: bool = False) -> MultiQuad:
    labels = _REAL_LABELS if real else _ALL_LABELS
    coords = {}
    for label in rng.sample(labels, rng.randint(1, 3)):
        coords[label] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return MultiQuad(coords)


def criterion_scalar(count: int = 1000) -> CriterionResult:
    t0 = perf_counter()
    rng = random.Random("scalar-props")
    failures = []
    fields = [NumberField(m) for m in _MODULI]
    one = MultiQuad(1)
    for k in range(count):
        a, b, c = (_random_mq(rng) for _ in range(3))
        ok = (a + b) * c == a * c + b * c
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * b == b * a and a + b == b + a
        ok = ok and a + (b - b) == a
        if a != MultiQuad(0):
            ok = ok and a * a.inverse() == one
        ok = ok and (a * b).conjugate() == a.conjugate() * b.conjugate()
        ok = ok and (a + b).conjugate() == a.conjugate() + b.conjugate()
        ok = ok and a.conjugate().conjugate() == a
        x = _random_mq(rng, real=True)
        y = _random_mq(rng, real=True)
        ok = ok and (x * y).sign() == x.sign() * y.sign()
        ok = ok and (-x).sign() == -x.sign()
        ok = ok and (x * x).sign() in (0, 1)
        if x.sign() == 1 and y.sign() == 1:
            ok = ok and (x + y).sign() == 1
        field = rng.choice(fields)
        u = field.element(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(field.degree))
        )
        v = field.element(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(field.degree))
        )
        alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        ok = ok and (u * alpha + v).trace() == u.trace() * alpha + v.trace()
        if u:
            ok = ok and u * u.inverse() == field.one()
        if not ok:
            failures.append(k)
    return _result(8, "scalar field, sign, trace, conjugation properties", t0, failures, f"{count} cases")


def run_all(quick: bool = False) -> List[CriterionResult]:
    if quick:
        return [
            criterion_sn(20),
            criterion_covariants(20),
            criterion_fine(20, 6),
            criterion_matfun(12),
            criterion_cmjc(6),
            criterion_svd(8, 4),
            criterion_trivial(),
            criterion_scalar(120),
        ]
    return [
        criterion_sn(),
        criterion_covariants(),
        criterion_fine(),
        criterion_matfun(),
        criterion_cmjc(),
        criterion_svd(),
        criterion_trivial(),
        criterion_scalar(),
    ]


# -- the worked-example table -----------------------------------------

_HALF = Fraction(1, 2)


@_case("invert-rational")
def _t_invert_rational():
    assert MultiQuad(2).inverse() == MultiQuad(_HALF)


@_case("invert-sqrt2")
def _t_invert_sqrt2():
    assert MultiQuad({2: 1}).inverse() == MultiQuad({2: _HALF})


@_case("sign-zero")
def _t_sign_zero():
    assert MultiQuad(0).sign() == 0


@_case("sign-sqrt2-minus-one")
def _t_sign_sqrt2_minus_one():
    assert MultiQuad({2: 1, 1: -1}).sign() == 1


@_case("conjugate-rational")
def _t_conjugate_rational():
    assert MultiQuad(3).conjugate() == MultiQuad(3)


@_case("conjugate-imaginary")
def _t_conjugate_imaginary():
    assert MultiQuad({-1: 1}).conjugate() == MultiQuad({-1: -1})


@_case("conjugate-mixed")
def _t_conjugate_mixed():
    value = MultiQuad({1: 1, -1: 2, 2: 1})
    assert value.conjugate() == MultiQuad({1: 1, -1: -2, 2: 1})


@_case("sqrt-perfect-square")
def _t_sqrt_perfect_square():
    assert mq_sqrt_rational(4) == MultiQuad(2)


@_case("sqrt-two")
def _t_sqrt_two():
    assert mq_sqrt_rational(2) == MultiQuad({2: 1})


@_case("sqrt-with-square-part")
def _t_sqrt_with_square_part():
    assert mq_sqrt_rational(Fraction(8, 9)) == MultiQuad({2: Fraction(2, 3)})


@_case("nf-invert-generator")
def _t_nf_inverse_generator():
    field = NumberField((-2, 0, 1))
    assert field.gen().inverse() == field.element((0, _HALF))


@_case("nf-invert-rational-element")
def _t_nf_inverse_rational():
    field = NumberField((1, 0, 1))
    assert field.embed(3).inverse() == field.embed(Fraction(1, 3))


@_case("nf-trace-generator")
def _t_trace_generator():
    field = NumberField((-2, 0, 1))
    assert field.gen().trace() == 0


@_case("nf-trace-rational")
def _t_trace_rational():
    field = NumberField((-2, 0, 1))
    assert field.embed(3).trace() == 6


@_case("nf-trace-square")
def _t_trace_square():
    field = NumberField((-2, 0, 1))
    y = field.gen()
    assert (y * y).trace() == 4


@_case("ext-gcd-coprime-linears")
def _t_ext_gcd_coprime():
    g, s, t = ext_gcd(X, X - Polynomial((1,)))
    assert g == Polynomial((1,))
    assert s == Polynomial((1,))
    assert t == Polynomial((-1,))


@_case("ext-gcd-equal-arguments")
def _t_ext_gcd_equal():
    square = X * X
    g, s, t = ext_gcd(square, square)
    assert g == square and s == Polynomial((1,)) and t == Polynomial()


@_case("squarefree-profile")
def _t_squarefree_profile():
    x_minus_1 = Polynomial((-1, 1))
    radical, profile = squarefree_part(X * X * x_minus_1)
    assert radical == (X * x_minus_1).monic()
    assert dict(profile) == {X: 2, x_minus_1: 1}


@_case("squarefree-already")
def _t_squarefree_already():
    p = Polynomial((-2, 0, 1))
    radical, profile = squarefree_part(p)
    assert radical == p and dict(profile) == {p: 1}


@_case("squarefree-mixed")
def _t_squarefree_mixed():
    p = Polynomial((-2, 0, 1))
    q = Polynomial((1, 1))
    radical, _ = squarefree_part(p * p * q)
    assert radical == (p * q).monic()


@_case("factor-difference-of-squares")
def _t_factor_diff_squares():
    factored = factor_rational(Polynomial((-1, 0, 1)))
    assert factored.factors == ((Polynomial((-1, 1)), 1), (Polynomial((1, 1)), 1))


@_case("factor-x4-minus-4")
def _t_factor_x4_minus_4():
    factored = factor_rational(Polynomial((-4, 0, 0, 0, 1)))
    assert factored.factors == (
        (Polynomial((-2, 0, 1)), 1),
        (Polynomial((2, 0, 1)), 1),
    )


@_case("factor-irreducible-quadratic")
def _t_factor_irreducible():
    p = Polynomial((1, 0, 1))
    assert factor_rational(p).factors == ((p, 1),)


@_case("hasse-third-power")
def _t_hasse_third_power():
    assert hasse_derivative(X ** 3, 2) == Polynomial((0, 3))


@_case("hasse-zero-order")
def _t_hasse_zero_order():
    f = Polynomial((1, -2, 0, 1))
    assert hasse_derivative(f, 0) == f


@_case("hasse-first-derivative")
def _t_hasse_first():
    assert hasse_derivative(Polynomial((1, 1, 1)), 1) == Polynomial((1, 2))


@_case("trace-coeffwise-linear")
def _t_trace_coeffwise_linear():
    field = NumberField((-2, 0, 1))
    p = Polynomial((field.embed(3), field.gen()))
    assert trace_coeffwise(p) == Polynomial((6,))


@_case("trace-coeffwise-half-square")
def _t_trace_coeffwise_half_square():
    field = NumberField((-2, 0, 1))
    y = field.gen()
    p = Polynomial((field.embed(0), y * y * _HALF))
    assert trace_coeffwise(p) == Polynomial((0, 2))


@_case("minpoly-identity")
def _t_minpoly_identity():
    assert minimal_polynomial(DenseMatrix.identity(2)) == Polynomial((-1, 1))


@_case("minpoly-nilpotent")
def _t_minpoly_nilpotent():
    assert minimal_polynomial(DenseMatrix([[0, 1], [0, 0]])) == X * X


@_case("minpoly-companion")
def _t_minpoly_companion():
    p = (Polynomial((-2, 0, 1)) * Polynomial((-1, 1))).monic()
    assert minimal_polynomial(companion(p)) == p


@_case("kernel-identity")
def _t_kernel_identity():
    assert kernel_basis(DenseMatrix.identity(2)) == []


@_case("kernel-zero-matrix")
def _t_kernel_zero():
    assert len(kernel_basis(DenseMatrix.zeros(2))) == 2


@_case("kernel-rank-one")
def _t_kernel_rank_one():
    basis = kernel_basis(DenseMatrix([[1, 1], [1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] and v[0]


@_case("horner-square-jordan")
def _t_horner_square_jordan():
    M = DenseMatrix([[1, 1], [0, 1]])
    assert horner_eval(X * X, M) == DenseMatrix([[1, 2], [0, 1]])


@_case("horner-at-identity")
def _t_horner_at_identity():
    assert horner_eval(Polynomial((-1, 1)), DenseMatrix.identity(2)).is_zero


@_case("horner-annihilates-companion")
def _t_horner_annihilates():
    p = Polynomial((-2, 0, 1))
    assert horner_eval(p, companion(p)).is_zero


@_case("inverse-identity")
def _t_inverse_identity():
    assert inverse(DenseMatrix.identity(3)) == DenseMatrix.identity(3)


@_case("inverse-scaled-identity")
def _t_inverse_scaled():
    M = DenseMatrix.scaled_identity(2, Fraction(2))
    assert inverse(M) == DenseMatrix.scaled_identity(2, _HALF)


@_case("inverse-unitriangular")
def _t_inverse_unitriangular():
    M = DenseMatrix([[1, 1], [0, 1]])
    assert inverse(M) == DenseMatrix([[1, -1], [0, 1]])


@_case("system-linear-pair")
def _t_system_linear_pair():
    system = build_covariant_system(factor_rational(X * Polynomial((-1, 1))))
    assert [f for f, _ in system.factored.factors] == [Polynomial((-1, 1)), X]
    assert system.e_polys == (X, Polynomial((1, -1)))
    assert system.s_polys == (X, Polynomial())
    root_gen = build_generic_covariant(system.factored, 0)
    assert [c.as_fraction() for c in root_gen.complement.coeffs] == [0, 1]
    assert [c.as_fraction() for c in root_gen.bezout.coeffs] == [1]
    assert [c.as_fraction() for c in root_gen.covariant.coeffs] == [0, 1]
    zero_gen = build_generic_covariant(system.factored, 1)
    assert [c.as_fraction() for c in zero_gen.complement.coeffs] == [-1, 1]
    assert [c.as_fraction() for c in zero_gen.bezout.coeffs] == [-1]
    assert [c.as_fraction() for c in zero_gen.covariant.coeffs] == [1, -1]


@_case("system-repeated-linear")
def _t_system_repeated_linear():
    m = Polynomial((-2, 1))
    system = build_covariant_system(factor_rational(m * m))
    assert system.r == 1
    covariant = build_generic_covariant(system.factored, 0).covariant
    assert [c.as_fraction() for c in covariant.coeffs] == [1]
    assert system.e_polys == (Polynomial((1,)),)
    assert system.s_polys == (Polynomial((2,)),)
    assert system.n_polys == (Polynomial((-2, 1)),)


@_case("split-conjugate-covariants")
def _t_split_conjugate():
    system = build_covariant_system(factor_rational(Polynomial((1, 0, 1))))
    (lam_p, cov_p), (lam_m, cov_m) = split_covariants_over_extension(system, 0, -1)
    assert lam_m == lam_p.conjugate()
    assert [c.conjugate() for c in cov_p.coeffs] == list(cov_m.coeffs)
    total = cov_p + cov_m
    assert total == Polynomial((MultiQuad(1),))


@_case("split-rejects-linear")
def _t_split_rejects_linear():
    system = build_covariant_system(factor_rational(Polynomial((-3, 1))))
    try:
        split_covariants_over_extension(system, 0, 1)
    except DoesNotSplit:
        return
    raise AssertionError("degree-1 factor must not split")


@_case("projectors-diagonal")
def _t_projectors_diagonal():
    M = DenseMatrix([[1, 0], [0, 0]])
    projectors = materialize_projectors(system_of(M), M)
    assert projectors == [DenseMatrix([[1, 0], [0, 0]]), DenseMatrix([[0, 0], [0, 1]])]


@_case("projector-identity")
def _t_projector_identity():
    M = DenseMatrix.identity(2)
    assert materialize_projectors(system_of(M), M) == [M]


@_case("sn-jordan-block")
def _t_sn_jordan():
    sn = sn_decompose(DenseMatrix([[1, 1], [0, 1]]))
    assert sn.semisimple == DenseMatrix.identity(2)
    assert sn.nilpotent == DenseMatrix([[0, 1], [0, 0]])


@_case("sn-nilpotent-input")
def _t_sn_nilpotent():
    M = DenseMatrix([[0, 1], [0, 0]])
    sn = sn_decompose(M)
    assert sn.semisimple.is_zero and sn.nilpotent == M


@_case("newton-semisimple-fixed-point")
def _t_newton_semisimple():
    M = DenseMatrix([[1, 0], [0, 2]])
    assert sn_newton_oracle(M) == M


@_case("newton-one-step")
def _t_newton_one_step():
    assert sn_newton_oracle(DenseMatrix([[1, 1], [0, 1]])) == DenseMatrix.identity(2)


@_case("fine-block-diagonal")
def _t_fine_block_diagonal():
    C = companion(Polynomial((-2, 0, 1)))
    J = DenseMatrix([[1, 1], [0, 1]])
    M = block_diag([C, J])
    fd = fine_decompose(M)
    assert [c.factor for c in fd.components] == [Polynomial((-1, 1)), Polynomial((-2, 0, 1))]
    assert fd.zero_index is None
    linear, quadratic = fd.components
    assert linear.semisimple == block_diag([DenseMatrix.zeros(2), DenseMatrix.identity(2)])
    assert linear.nilpotent == block_diag(
        [DenseMatrix.zeros(2), DenseMatrix([[0, 1], [0, 0]])]
    )
    assert quadratic.semisimple == block_diag([C, DenseMatrix.zeros(2)])
    assert quadratic.nilpotent.is_zero


@_case("fine-nilpotent-input")
def _t_fine_nilpotent():
    M = DenseMatrix([[0, 1], [0, 0]])
    fd = fine_decompose(M)
    assert len(fd.components) == 1 and fd.zero_index == 0
    only = fd.components[0]
    assert only.factor == X and only.semisimple.is_zero and only.nilpotent == M


@_case("verify-fine-passes")
def _t_verify_fine_passes():
    for M in (
        block_diag([companion(Polynomial((-2, 0, 1))), DenseMatrix([[1, 1], [0, 1]])]),
        DenseMatrix([[1, 0], [0, 2]]),
    ):
        assert verify_fine(M, fine_decompose(M)).passed


@_case("verify-fine-nilpotent")
def _t_verify_fine_nilpotent():
    M = DenseMatrix([[0, 1], [0, 0]])
    assert verify_fine(M, fine_decompose(M)).passed


@_case("unbreakable-two-classes")
def _t_unbreakable_two_classes():
    components = unbreakable_components(DenseMatrix([[1, 0], [0, -1]]))
    assert components == [DenseMatrix([[1, 0], [0, 0]]), DenseMatrix([[0, 0], [0, -1]])]


@_case("unbreakable-irreducible")
def _t_unbreakable_irreducible():
    M = companion(Polynomial((-2, 0, 1)))
    assert unbreakable_components(M) == [M]


@_case("unbreakable-skips-kernel")
def _t_unbreakable_skips_kernel():
    # factor order is by ascending coefficients, so X-2 precedes X-1
    M = DenseMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 0]])
    two_part = DenseMatrix([[0, 0, 0], [0, 2, 0], [0, 0, 0]])
    one_part = DenseMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert unbreakable_components(M) == [two_part, one_part]


@_case("mjc-scaled-jordan")
def _t_mjc_scaled_jordan():
    jc = multiplicative_jc(DenseMatrix([[2, 2], [0, 2]]))
    assert jc.semisimple == DenseMatrix.scaled_identity(2, Fraction(2))
    assert jc.unipotent == DenseMatrix([[1, 1], [0, 1]])


@_case("mjc-semisimple-input")
def _t_mjc_semisimple():
    jc = multiplicative_jc(DenseMatrix([[1, 0], [0, 2]]))
    assert jc.unipotent == DenseMatrix.identity(2)


@_case("matfun-jordan-square")
def _t_matfun_jordan_square():
    result = schwerdtfeger_eval(X * X, DenseMatrix([[1, 1], [0, 1]]))
    assert result.value == DenseMatrix([[1, 2], [0, 1]])
    assert result.semisimple_part == DenseMatrix.identity(2)
    assert result.nilpotent_part == DenseMatrix([[0, 2], [0, 0]])


@_case("matfun-companion-square")
def _t_matfun_companion_square():
    result = schwerdtfeger_eval(X * X, companion(Polynomial((-2, 0, 1))))
    expected = DenseMatrix.scaled_identity(2, Fraction(2))
    assert result.value == expected
    assert result.semisimple_part == expected
    assert result.nilpotent_part.is_zero


@_case("classes-square-merges-signs")
def _t_classes_square():
    factored = factor_rational(Polynomial((-1, 0, 1)))
    classes = f_equivalence_classes(X * X, factored)
    assert len(classes) == 1
    assert classes[0].image == Polynomial((-1, 1))
    assert classes[0].indices == (0, 1)


@_case("classes-identity-discrete")
def _t_classes_identity():
    factored = factor_rational(Polynomial((-2, 0, 1)) * Polynomial((-1, 1)))
    classes = f_equivalence_classes(X, factored)
    assert [c.indices for c in classes] == [(0,), (1,)]
    assert [c.image for c in classes] == [f for f, _ in factored.factors]


@_case("image-class-of-quadratic")
def _t_image_class_quadratic():
    factored = factor_rational(Polynomial((-2, 0, 1)))
    classes = f_equivalence_classes(X * X, factored)
    assert [c.image for c in classes] == [Polynomial((-2, 1))]


@_case("image-fine-merges")
def _t_image_fine_merges():
    fd = fine_of_image(X * X, DenseMatrix([[1, 0], [0, -1]]))
    assert len(fd.components) == 1 and fd.zero_index is None
    only = fd.components[0]
    assert only.factor == Polynomial((-1, 1))
    assert only.semisimple == DenseMatrix.identity(2)
    assert only.nilpotent.is_zero


@_case("image-fine-identity-function")
def _t_image_fine_identity():
    M = companion((Polynomial((-2, 0, 1)) * Polynomial((-1, 1))).monic())
    assert fine_of_image(X, M) == fine_decompose(M)


@_case("cmjc-rotation")
def _t_cmjc_rotation():
    M = DenseMatrix([[0, -1], [1, 0]])
    dsu = complete_mjc(M)
    assert dsu.delta == DenseMatrix.identity(2)
    assert dsu.sigma == M
    assert dsu.unipotent == DenseMatrix.identity(2)


@_case("cmjc-scaled-jordan")
def _t_cmjc_scaled_jordan():
    dsu = complete_mjc(DenseMatrix([[2, 2], [0, 2]]))
    assert dsu.delta == DenseMatrix.scaled_identity(2, Fraction(2))
    assert dsu.sigma == DenseMatrix.identity(2)
    assert dsu.unipotent == DenseMatrix([[1, 1], [0, 1]])


@_case("svd-diagonal")
def _t_svd_diagonal():
    result = svd(DenseMatrix([[3, 0], [0, -2]]))
    assert result.singular_values == (MultiQuad(3), MultiQuad(2))
    assert result.terms[0].matrix == DenseMatrix([[1, 0], [0, 0]])
    assert result.terms[1].matrix == DenseMatrix([[0, 0], [0, -1]])


@_case("svd-nilpotent")
def _t_svd_nilpotent():
    A = DenseMatrix([[0, 1], [0, 0]])
    result = svd(A)
    assert result.singular_values == (MultiQuad(1),)
    assert result.terms[0].matrix == A


@_case("cli-sn-identity")
def _t_cli_sn_identity():
    import json
    import tempfile

    doc = {"n": 2, "entries": [["1", "0"], ["0", "1"]]}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
        json.dump(doc, handle)
        path = handle.name
    code, out, _ = run_cli(["sn", "--input", path, "--check"])
    assert code == 0
    payload = json.loads(out)
    assert payload["semisimple"]["entries"] == [["1", "0"], ["0", "1"]]
    assert payload["nilpotent"]["entries"] == [["0", "0"], ["0", "0"]]
    assert payload["report"]["pass"] is True


@_case("cli-svd-nilpotent")
def _t_cli_svd_nilpotent():
    import json

    doc = json.dumps({"n": 2, "entries": [["0", "1"], ["0", "0"]]})
    code, out, _ = run_cli(["svd"], input_text=doc)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["terms"]) == 1
    assert payload["terms"][0]["sigma"] == "1"
    assert payload["terms"][0]["matrix"]["entries"] == [["0", "1"], ["0", "0"]]


def run_cli(argv, input_text: str = ""):
    """Run the command line driver in-process, capturing its streams."""
    import io
    import sys
    from contextlib import redirect_stderr, redirect_stdout

    from mindec import cli

    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(input_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()
