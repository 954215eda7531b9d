"""Polynomial matrix functions routed through covariant systems."""

import dataclasses
from fractions import Fraction

import pytest

from mindec.decompose import fine_decompose, sn_decompose
from mindec.errors import NotSemisimple
from mindec.factor import factor_rational
from mindec.generator import blocks_matrix, random_function_poly, random_matrix
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
