"""Dense exact matrices: arithmetic, elimination, minimal polynomials."""

import random
from fractions import Fraction

import pytest
from oracles import frac_matmul, fraction_rank, plain_poly_at

from mindec.errors import SingularMatrix
from mindec.matrix import (
    DenseMatrix,
    commute,
    companion,
    horner_eval,
    inverse,
    kernel_basis,
    mat_vec,
    minimal_polynomial,
    rank,
)
from mindec.poly import Polynomial, X
from mindec.scalar import MultiQuad, NumberField


def rand_matrix(rng, n):
    return DenseMatrix(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    )


class TestArithmetic:
    def test_matmul_matches_fraction_oracle(self):
        rng = random.Random("matmul")
        for _ in range(25):
            n = rng.randint(1, 5)
            A, B = rand_matrix(rng, n), rand_matrix(rng, n)
            product = A @ B
            expected = frac_matmul(
                [list(r) for r in A.rows],
                [list(r) for r in B.rows],
            )
            assert [list(r) for r in product.rows] == expected

    def test_scalar_multiplication_and_sum(self):
        A = DenseMatrix([[1, 2], [3, 4]])
        assert A * Fraction(1, 2) + A * Fraction(1, 2) == A

    def test_transpose_involution(self):
        A = DenseMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert A.transpose().transpose() == A

    def test_commute_predicate(self):
        A = DenseMatrix([[1, 1], [0, 1]])
        assert commute(A, A @ A)
        assert not commute(A, DenseMatrix([[0, 0], [1, 0]]))


class TestRankAndKernel:
    def test_rank_matches_fraction_oracle(self):
        rng = random.Random("rank")
        for _ in range(30):
            n = rng.randint(1, 5)
            A = rand_matrix(rng, n)
            if rng.random() < 0.5:  # force some singular inputs
                rows = [list(r) for r in A.rows]
                rows[-1] = rows[0]
                A = DenseMatrix(rows)
            assert rank(A) == fraction_rank(
                [list(r) for r in A.rows]
            )

    def test_kernel_vectors_annihilate(self):
        rng = random.Random("kernel")
        for _ in range(30):
            n = rng.randint(2, 5)
            A = rand_matrix(rng, n)
            rows = [list(r) for r in A.rows]
            rows[0] = [Fraction(2) * x for x in rows[1]]
            A = DenseMatrix(rows)
            basis = kernel_basis(A)
            assert len(basis) == n - rank(A)
            for v in basis:
                assert all(x == 0 for x in mat_vec(A, v))

    def test_rank_surd_matrix(self):
        A = DenseMatrix(
            [[MultiQuad({2: 1}), MultiQuad(2)], [MultiQuad(1), MultiQuad({2: 1})]]
        )
        assert rank(A) == 1  # second row is first divided by sqrt(2)


class TestInverse:
    def test_random_inverse_round_trip(self):
        rng = random.Random("inverse")
        done = 0
        while done < 25:
            n = rng.randint(1, 5)
            A = rand_matrix(rng, n)
            try:
                B = inverse(A)
            except SingularMatrix:
                continue
            assert A @ B == DenseMatrix.identity(n)
            assert B @ A == DenseMatrix.identity(n)
            done += 1

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            inverse(DenseMatrix([[1, 2], [2, 4]]))

    def test_surd_inverse(self):
        A = DenseMatrix([[MultiQuad({2: 1}), MultiQuad(0)], [MultiQuad(0), MultiQuad(1)]])
        B = inverse(A)
        assert A @ B == DenseMatrix.identity(2).map_entries(MultiQuad)


class TestMinimalPolynomial:
    def test_annihilates_and_is_minimal(self):
        rng = random.Random("minpoly")
        for _ in range(20):
            n = rng.randint(1, 5)
            A = rand_matrix(rng, n)
            m = minimal_polynomial(A)
            assert m.coefficient(m.degree) == 1
            assert horner_eval(m, A).is_zero
            assert m.degree <= n

    def test_diagonal_repeated_eigenvalues(self):
        A = DenseMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 3]])
        assert minimal_polynomial(A) == (
            (X - Polynomial((2,))) * (X - Polynomial((3,)))
        ).monic()

    def test_companion_realizes_its_polynomial(self):
        p = (Polynomial((-2, 0, 1)) * Polynomial((1, 1)) ** 2).monic()
        assert minimal_polynomial(companion(p)) == p


class TestCompanion:
    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            companion(Polynomial((1, 2)))

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            companion(Polynomial((1,)))

    def test_structure(self):
        p = Polynomial((-2, 3, -1, 1))
        C = companion(p)
        assert C.entry(1, 0) == 1 and C.entry(2, 1) == 1
        assert [C.entry(i, 2) for i in range(3)] == [2, -3, 1]


class TestHornerEval:
    def test_matches_power_expansion(self):
        rng = random.Random("horner")
        for _ in range(20):
            n = rng.randint(1, 4)
            A = rand_matrix(rng, n)
            f = Polynomial(tuple(Fraction(rng.randint(-4, 4)) for _ in range(5)))
            expected = DenseMatrix.zeros(n)
            power = DenseMatrix.identity(n)
            for c in f.coeffs:
                expected = expected + power * c
                power = power @ A
            assert horner_eval(f, A) == expected

    def test_empty_polynomial_gives_zero(self):
        assert horner_eval(Polynomial(), DenseMatrix.identity(3)).is_zero


class TestHornerDiagonal:
    """horner_eval adds each constant on the diagonal only; the oracle
    adds full identity multiples to explicit powers."""

    @staticmethod
    def _polys(rng, coeff):
        # the zero polynomial, a constant, then random degrees up to 5
        yield Polynomial()
        yield Polynomial((coeff(),))
        for _ in range(6):
            yield Polynomial(tuple(coeff() for _ in range(rng.randint(2, 6))))

    def _check(self, M, polys):
        for f in polys:
            assert horner_eval(f, M).rows == tuple(
                tuple(r) for r in plain_poly_at(f.coeffs, M.rows)
            ), f

    def test_rational(self):
        rng = random.Random("horner-diagonal-q")
        for _ in range(6):
            M = rand_matrix(rng, rng.randint(1, 5))
            self._check(
                M, self._polys(rng, lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            )

    def test_multiquad(self):
        rng = random.Random("horner-diagonal-mq")

        def mq():
            return MultiQuad(
                {1: Fraction(rng.randint(-3, 3)), 2: Fraction(rng.randint(-3, 3), 2),
                 -3: Fraction(rng.randint(-2, 2))}
            )

        for _ in range(4):
            n = rng.randint(1, 4)
            M = DenseMatrix([[mq() for _ in range(n)] for _ in range(n)])
            self._check(M, self._polys(rng, mq))
            self._check(M, self._polys(rng, lambda: Fraction(rng.randint(-4, 4))))

    def test_number_field(self):
        rng = random.Random("horner-diagonal-nf")
        field = NumberField((Fraction(-2), Fraction(-1), Fraction(0), Fraction(1)))

        def nf():
            return field.element([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)])

        for _ in range(4):
            n = rng.randint(1, 4)
            M = DenseMatrix([[nf() for _ in range(n)] for _ in range(n)])
            self._check(M, self._polys(rng, nf))
            self._check(M, self._polys(rng, lambda: Fraction(rng.randint(-4, 4))))
