"""Polynomial matrix functions routed through covariant systems."""

import dataclasses
import json
from fractions import Fraction

import pytest
from oracles import frac_slice_sums

import mindec.covariant as covariant_mod
import mindec.decompose as decompose_mod
import mindec.matfun as matfun_mod
import mindec.matrix as matrix_mod
from mindec.decompose import fine_decompose, sn_decompose, system_of
from mindec.errors import NotSemisimple
from mindec.factor import factor_rational
from mindec.generator import (
    IRREDUCIBLE_POOL,
    blocks_matrix,
    random_function_poly,
    random_matrix,
)
from mindec.matfun import (
    f_equivalence_classes,
    fine_of_image,
    schwerdtfeger_eval,
    sylvester_eval,
    verify_matfun,
)
from mindec.matrix import DenseMatrix, companion, horner_eval
from mindec.poly import Polynomial, X
from mindec.scalar import MultiQuad
from mindec.selftest import run_cli
from mindec.serialize import MatrixDocument, document_to_json, parse_poly_expression


def _parts_exact(f, M, sem, nil):
    """Whether verify_matfun's "parts-exact" check passes when the
    covariant evaluation of f at M is handed with the parts sem, nil."""
    result = dataclasses.replace(
        schwerdtfeger_eval(f, M), semisimple_part=sem, nilpotent_part=nil
    )
    report = verify_matfun(f, M, result)
    (check,) = [c for c in report.checks if c.name == "parts-exact"]
    return check.passed


class TestSchwerdtfegerEval:
    def test_cube_minus_x_on_defective_block(self):
        # independent route: Horner for the value, additive split of the
        # image for the parts
        f = X**3 - X
        M = companion(((X - Polynomial((1,))) ** 2).monic())
        result = schwerdtfeger_eval(f, M)
        direct = horner_eval(f, M)
        assert result.value == direct
        sn_image = sn_decompose(direct)
        assert result.semisimple_part == sn_image.semisimple
        assert result.nilpotent_part == sn_image.nilpotent
        # the image of a semisimple part is the semisimple part of the image
        assert result.semisimple_part == horner_eval(f, sn_decompose(M).semisimple)

    def test_random_pairs_match_horner(self):
        for k in range(20):
            M = random_matrix(f"mf-{k}").matrix
            f = random_function_poly(f"mf-{k}", max_degree=7)
            result = schwerdtfeger_eval(f, M)
            assert result.value == horner_eval(f, M)
            assert result.value == result.semisimple_part + result.nilpotent_part
            assert verify_matfun(f, M, result).passed

    def test_constant_function(self):
        M = companion(Polynomial((-2, 0, 1)))
        result = schwerdtfeger_eval(Polynomial((5,)), M)
        assert result.value == DenseMatrix.scaled_identity(2, Fraction(5))
        assert result.nilpotent_part.is_zero

    def test_verifier_rejects_transplanted_parts(self):
        M = DenseMatrix([[1, 1], [0, 1]])
        f = X * X
        result = schwerdtfeger_eval(f, M)
        # the sum, commutation and semisimplicity still hold; only the
        # nilpotent part fails, so "parts-exact" must see nil^mu != 0
        sem = result.semisimple_part + DenseMatrix.identity(2)
        nil = result.nilpotent_part - DenseMatrix.identity(2)
        assert not _parts_exact(f, M, sem, nil)


class TestPartsExact:
    """verify_matfun's "parts-exact" check certifies the parts by the
    uniqueness of the additive decomposition: they must sum to f(M),
    commute, and be semisimple (squarefree minimal polynomial) and
    nilpotent.  Each mutant here, with the nilpotent one in
    TestSchwerdtfegerEval.test_verifier_rejects_transplanted_parts,
    breaks exactly one of those clauses, so dropping any clause lets
    one of them through."""

    JORDAN = DenseMatrix([[1, 1], [0, 1]])  # f = X^2 gives [[1, 2], [0, 1]]

    def test_true_parts_pass_when_classes_merge(self):
        # X^2 merges the classes of 1 and -1, and keeps a nilpotent part
        M = blocks_matrix([(X - 1) ** 2, X + 1, X**2 - 2], seed="0").matrix
        f = X**2
        result = schwerdtfeger_eval(f, M)
        assert not result.nilpotent_part.is_zero
        assert len(f_equivalence_classes(f, sn_decompose(M).system.factored)) == 2
        assert verify_matfun(f, M, result).passed
        assert _parts_exact(f, M, result.semisimple_part, result.nilpotent_part)

    def test_wrong_sum(self):
        f, M = X**2, self.JORDAN
        result = schwerdtfeger_eval(f, M)
        sem = result.semisimple_part + DenseMatrix.identity(2)
        assert not _parts_exact(f, M, sem, result.nilpotent_part)

    def test_parts_that_do_not_commute(self):
        # the split [[1, -1], [0, 2]] + [[0, 1], [0, 0]] of diag(1, 2),
        # next to a Jordan block of M so that nil^mu = 0 (mu = 2) holds
        M = DenseMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
        f = X**2 - 2 * X + 2  # f(1) = 1, f'(1) = 0, f(2) = 2
        sem = DenseMatrix([[1, 0, 0], [0, 1, -1], [0, 0, 2]])
        nil = DenseMatrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        assert sem + nil == horner_eval(f, M) == DenseMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        assert not _parts_exact(f, M, sem, nil)

    def test_semisimple_part_that_is_not_semisimple(self):
        f, M = X**2, self.JORDAN
        direct = horner_eval(f, M)
        assert not _parts_exact(f, M, direct, DenseMatrix.zeros(2))

    def test_irrational_parts_fail_without_raising(self):
        f, M = X**2, self.JORDAN
        result = schwerdtfeger_eval(f, M)
        shift = DenseMatrix.scaled_identity(2, MultiQuad({2: 1}))
        sem = result.semisimple_part + shift
        nil = result.nilpotent_part - shift
        assert not _parts_exact(f, M, sem, nil)


class TestSylvesterEval:
    def test_agrees_with_horner_on_semisimple(self):
        M = companion((Polynomial((-2, 0, 1)) * (X - Polynomial((3,)))).monic())
        f = X**4 + Polynomial((1,))
        assert sylvester_eval(f, M) == horner_eval(f, M)

    def test_defective_rejected(self):
        with pytest.raises(NotSemisimple):
            sylvester_eval(X, DenseMatrix([[2, 1], [0, 2]]))


class TestEquivalenceClasses:
    def test_square_on_quadratic_surd_factor(self):
        # squaring maps both roots +-sqrt(2) to 2, so the class image is
        # the minimal polynomial of 2
        factored = factor_rational(Polynomial((-2, 0, 1)))
        classes = f_equivalence_classes(X * X, factored)
        assert len(classes) == 1
        assert classes[0].image == X - Polynomial((2,))

    def test_collapse_to_single_class(self):
        # f = X^2 merges (X-1), (X+1), and the pair +-sqrt(2) with X^2-2
        # staying separate at image X-2
        m = (
            (X - Polynomial((1,))) * (X + Polynomial((1,))) * Polynomial((-2, 0, 1))
        ).monic()
        classes = f_equivalence_classes(X * X, factor_rational(m))
        images = sorted(str(c.image) for c in classes)
        assert len(classes) == 2
        assert {str(c.image) for c in classes} == {
            str(X - Polynomial((1,))),
            str(X - Polynomial((2,))),
        }, images

    def test_class_indices_partition_factors(self):
        m = ((X - Polynomial((1,))) * (X + Polynomial((1,))) * X).monic()
        factored = factor_rational(m)
        classes = f_equivalence_classes(X**2, factored)
        covered = sorted(i for c in classes for i in c.indices)
        assert covered == list(range(len(factored.factors)))

    def test_an_image_that_does_not_vanish_at_f_is_refused(self, monkeypatch):
        # the mutant adds 1 to every image: X - 1 and X - 4 become X and
        # X - 3, which the Krylov route alone would print
        honest = matfun_mod._image_min_poly
        monkeypatch.setattr(matfun_mod, "_image_min_poly", lambda f, p: honest(f, p) + 1)
        doc = '{"entries": [["1", "1"], ["0", "2"]]}'
        code, out, err = run_cli(["apply", "--poly", "X^2"], input_text=doc)
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == "InvariantViolation"


class TestFineOfImage:
    def test_square_plus_x_matches_direct_fine(self):
        f = X * X + X
        M = companion((Polynomial((-2, 0, 1)) * (X - Polynomial((1,)))).monic())
        through_classes = fine_of_image(f, M)
        direct = fine_decompose(horner_eval(f, M))
        assert through_classes.components == direct.components
        assert through_classes.zero_index == direct.zero_index

    def test_random_structural_agreement(self):
        for k in range(15):
            M = random_matrix(f"foi-{k}").matrix
            f = random_function_poly(f"foi-{k}", max_degree=6)
            through_classes = fine_of_image(f, M)
            direct = fine_decompose(horner_eval(f, M))
            assert through_classes == direct

    def test_merging_function_on_sign_pair(self):
        fd = fine_of_image(X * X, DenseMatrix([[1, 0], [0, -1]]))
        assert len(fd.components) == 1
        assert fd.components[0].semisimple == DenseMatrix.identity(2)


#: blocks of ladder-like matrices: repeated quadratic, linear and cubic
#: factors, one factor of multiplicity one among them
LADDER_BLOCKS = (
    "X^2-2;(X-3)^2",
    "(X^2-2)^2;(X-3)^3;X^3-2;X^2+X+1;(X-3)^2",
    "(X^2-2)^3;(X-3)^3;X^3-2;X^2+X+1;X^3-2",
)


def _ladder_matrix(spec, seed):
    return blocks_matrix([parse_poly_expression(b) for b in spec.split(";")], seed).matrix


class TestPartsWithoutSlices:
    """apply's parts are f(s) and f - f(s) mod m, one composition; the
    per-factor slices of the reference (oracles.frac_slice_sums) sum to
    them because sum(E_i) = 1, and a factor of multiplicity one has no
    nilpotent slice."""

    def _check(self, f, M):
        result = schwerdtfeger_eval(f, M)
        factors = [(list(p.coeffs), mu) for p, mu in system_of(M).factored.factors]
        want = frac_slice_sums(factors, list(f.coeffs))
        assert (list(result.sem_poly.coeffs), list(result.nil_poly.coeffs)) == want

    def test_ladder_inputs(self):
        fs = [
            parse_poly_expression("1-X+2X^3"),
            parse_poly_expression("X^40+X^3-1"),
            Polynomial(),
            Polynomial((Fraction(-7, 3),)),
        ]
        for k, spec in enumerate(LADDER_BLOCKS):
            M = _ladder_matrix(spec, f"slices-{k}")
            for f in fs + [random_function_poly(f"slices-{k}", max_degree=20)]:
                self._check(f, M)

    def test_session_inputs(self):
        for k in range(15):
            key = f"session:slices:{k}"
            self._check(random_function_poly(key, max_degree=10), random_matrix(key, 6).matrix)

    def test_property_on_random_factorizations(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        small_rational = st.fractions(min_value=-3, max_value=3, max_denominator=7)

        @st.composite
        def minimal_polynomials(draw):
            picks = draw(
                st.lists(st.sampled_from(IRREDUCIBLE_POOL + (X,)), min_size=1, max_size=3, unique=True)
            )
            m = Polynomial((1,))
            for p in picks:
                m = m * p ** draw(st.integers(1, 3))
            return m.monic()

        @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
        @hypothesis.given(minimal_polynomials(), st.lists(small_rational, max_size=12))
        def check(m, coeffs):
            self._check(Polynomial(coeffs), companion(m))

        check()

    def test_no_per_factor_witness_evaluated_at_a_matrix(self, monkeypatch):
        # every per-class part is a projector times S or N: no command
        # evaluates a system's S_i or N_i polynomial at a matrix
        systems = []
        honest_build = decompose_mod.build_covariant_system

        def recording_build(factored):
            systems.append(honest_build(factored))
            return systems[-1]

        evaluations = []
        honest_eval = matrix_mod.horner_eval

        def counting_eval(f, A):
            witness = any(f is w for sys in systems for w in sys.s_polys + sys.n_polys)
            evaluations.append(witness)
            return honest_eval(f, A)

        monkeypatch.setattr(decompose_mod, "build_covariant_system", recording_build)
        for module in (decompose_mod, covariant_mod, matfun_mod):
            monkeypatch.setattr(module, "horner_eval", counting_eval)
        for command, blocks in (
            ("fine", LADDER_BLOCKS[1]),
            ("cmjc", "X^2-2;(X^2+1)^2;X-3;X^2-3"),
            ("unbreakable", "X^2-2;X-3;X^2+1;X"),
        ):
            doc = json.dumps(document_to_json(MatrixDocument(matrix=_ladder_matrix(blocks, "count"))))
            code, _, err = run_cli([command, "--check"], input_text=doc)
            assert code == 0, (command, err)
        fine_of_image(X**2, _ladder_matrix(LADDER_BLOCKS[1], "count"))
        assert len(systems) >= 3 and len(evaluations) > 0
        assert sum(evaluations) == 0
