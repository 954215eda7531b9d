"""Polynomial matrix functions routed through covariant systems."""

from fractions import Fraction

import pytest

from mindec.decompose import fine_decompose, sn_decompose
from mindec.errors import NotSemisimple
from mindec.factor import factor_rational
from mindec.generator import random_function_poly, random_matrix
from mindec.matfun import (
    f_equivalence_classes,
    fine_of_image,
    schwerdtfeger_eval,
    sylvester_eval,
    verify_matfun,
)
from mindec.matrix import DenseMatrix, companion, horner_eval
from mindec.poly import Polynomial, X


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
        import dataclasses

        bad = dataclasses.replace(
            result,
            semisimple_part=result.semisimple_part + DenseMatrix.identity(2),
            nilpotent_part=result.nilpotent_part - DenseMatrix.identity(2),
        )
        assert not verify_matfun(f, M, bad).passed


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
