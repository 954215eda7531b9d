"""Dense exact matrices: arithmetic, elimination, minimal polynomials."""

import random
from fractions import Fraction
from math import gcd

import pytest
from oracles import (
    entrywise_matmul,
    frac_matmul,
    fraction_inverse,
    fraction_minimal_polynomial,
    fraction_null_space,
    fraction_rank,
    invert_a_plus_b_sqrt2,
    plain_poly_at,
)

from mindec import _kernel
from mindec.errors import FieldMismatch, SingularMatrix
from mindec.matrix import (
    DenseMatrix,
    commute,
    companion,
    horner_eval,
    inverse,
    is_semisimple,
    kernel_basis,
    linear_combination,
    minimal_polynomial,
    rank,
)
from mindec.poly import Polynomial, X
from mindec.oracles import NumberField
from mindec.scalar import MultiQuad


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
        assert repr(A * Fraction(1, 2)) == "DenseMatrix([['1/2', '1'], ['3/2', '2']])"
        assert repr(A * MultiQuad({2: 1})) == "DenseMatrix([['1*sqrt(2)', '2*sqrt(2)'], ['3*sqrt(2)', '4*sqrt(2)']])"

    def test_transpose_involution(self):
        A = DenseMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert A.transpose().transpose() == A

    def test_commute_predicate(self):
        A = DenseMatrix([[1, 1], [0, 1]])
        assert commute(A, A @ A)
        assert not commute(A, DenseMatrix([[0, 0], [1, 0]]))

    def test_powers_cost_no_product_for_the_identity(self, monkeypatch):
        import mindec._kernel as kernel

        M = DenseMatrix([[1, Fraction(1, 2), 0], [0, 2, 1], [3, 0, -1]])
        plain = {k: plain_poly_at([0] * k + [1], M.rows) for k in (0, 1, 2, 3, 8)}
        products = []
        real = kernel.mat_mul

        def counting(A, B):
            products.append(1)
            return real(A, B)

        monkeypatch.setattr(kernel, "mat_mul", counting)
        for k, cost in ((0, 0), (1, 0), (2, 1), (3, 2), (8, 3)):
            products.clear()
            assert [list(r) for r in (M**k).rows] == plain[k]
            assert len(products) == cost, k
        # negative powers are powers of the inverse
        inv = inverse(M)
        assert M**-1 == inv and M**-2 == inv @ inv and M**-3 @ M**3 == DenseMatrix.identity(3)


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
                assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A.rows)

    def test_rank_surd_matrix(self):
        # elimination runs over Q only; no command ranks a MultiQuad matrix
        A = DenseMatrix(
            [[MultiQuad({2: 1}), MultiQuad(2)], [MultiQuad(1), MultiQuad({2: 1})]]
        )
        with pytest.raises(FieldMismatch):
            rank(A)
        with pytest.raises(FieldMismatch):
            kernel_basis(A)
        # MultiQuad entries with rational values make a rational matrix
        B = DenseMatrix([[MultiQuad({4: 1}), MultiQuad(2)], [MultiQuad(1), MultiQuad(1)]])
        assert rank(B) == 1 and kernel_basis(B) == [(Fraction(-1), Fraction(1))]


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
        with pytest.raises(FieldMismatch):
            inverse(A)
        with pytest.raises(FieldMismatch):
            A ** -1


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

    def test_other_entry_fields_are_refused(self):
        sqrt2 = MultiQuad({2: 1})
        A = DenseMatrix([[sqrt2, MultiQuad(1)], [MultiQuad(0), sqrt2]])
        with pytest.raises(FieldMismatch):
            minimal_polynomial(A)
        # MultiQuad entries with rational values make a rational matrix
        B = DenseMatrix([[MultiQuad({4: 1}), MultiQuad(1)], [MultiQuad(0), MultiQuad(2)]])
        assert minimal_polynomial(B) == (X - Polynomial((2,))) ** 2


class TestIsSemisimple:
    """The one semisimple certificate: a squarefree Krylov minimal
    polynomial."""

    @pytest.mark.parametrize(
        "m, semisimple",
        [
            (X, True),
            (X * X, False),
            (Polynomial((-2, 0, 1)), True),
            (Polynomial((-2, 0, 1)) ** 2, False),
            (Polynomial((-2, 0, 1)) * (X - Polynomial((3,))) * X, True),
            ((X - Polynomial((3,))) ** 2 * Polynomial((1, 0, 1)), False),
        ],
    )
    def test_companions(self, m, semisimple):
        assert is_semisimple(companion(m.monic())) is semisimple

    def test_derogatory_matrices(self):
        assert is_semisimple(DenseMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 3]]))
        assert not is_semisimple(DenseMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 2]]))
        assert is_semisimple(DenseMatrix.zeros(3))

    def test_other_entry_fields_are_refused(self):
        sqrt2 = MultiQuad({2: 1})
        with pytest.raises(FieldMismatch):
            is_semisimple(DenseMatrix([[sqrt2, MultiQuad(0)], [MultiQuad(0), sqrt2]]))


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
        # matrices hold rational or MultiQuad entries only
        field = NumberField((Fraction(-2), Fraction(-1), Fraction(0), Fraction(1)))
        y = field.gen()
        with pytest.raises(FieldMismatch):
            DenseMatrix([[y]])
        with pytest.raises(FieldMismatch):
            DenseMatrix([[Fraction(1), y], [MultiQuad({2: 1}), Fraction(0)]])
        with pytest.raises(FieldMismatch):
            horner_eval(Polynomial((field.one(), y)), DenseMatrix.identity(2))
        with pytest.raises(FieldMismatch):
            horner_eval(Polynomial((y,)), DenseMatrix([[MultiQuad({2: 1})]]))
        with pytest.raises(FieldMismatch):
            DenseMatrix.scaled_identity(2, y)


# -- the integer representation of rational matrices ---------------------

#: large pairwise coprime denominators
PRIMES = (1000003, 999983, 1000033, 65537, 7, 1)


def as_lists(M):
    return [list(r) for r in M.rows]


def big_entry(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    num = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 9))
    return Fraction(num, rng.choice(PRIMES) * rng.choice((1, 1, 2, 9)))


def conjugated_blocks(rng, blocks):
    """P * diag(blocks) * P^-1 for a unimodular-ish random P: a rational
    matrix with prescribed (possibly derogatory) block structure."""
    n = sum(len(b) for b in blocks)
    D = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, r in enumerate(b):
            for j, x in enumerate(r):
                D[at + i][at + j] = Fraction(x)
        at += len(b)
    while True:
        P = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)]
        Pinv = fraction_inverse(P)
        if Pinv is not None:
            return DenseMatrix(frac_matmul(frac_matmul(P, D), Pinv))


def representation_cases(rng):
    """Matrices the seeded generator never makes: large coprime
    denominators, negative and zero entries, 1x1, derogatory, zero,
    integer and sparse."""
    yield DenseMatrix([[Fraction(-7, 1000003)]])
    yield DenseMatrix([[0]])
    yield DenseMatrix.zeros(3)
    yield DenseMatrix.identity(4) * Fraction(-5, 999983)
    yield DenseMatrix([[0, 0, Fraction(1, 65537)], [0, 0, 0], [Fraction(-3, 7), 0, 0]])
    # derogatory: repeated eigenvalue blocks
    yield conjugated_blocks(rng, [[[2, 1], [0, 2]], [[2]], [[2, 1], [0, 2]]])
    yield conjugated_blocks(rng, [[[0, 1], [0, 0]], [[0]], [[-1, 0], [0, -1]]])
    for n in (1, 2, 3, 4, 5, 6):
        yield DenseMatrix([[big_entry(rng) for _ in range(n)] for _ in range(n)])
        yield rand_matrix(rng, n)


def as_mq_entries(M):
    """The same matrix built from MultiQuad entries."""
    return DenseMatrix([[MultiQuad(e) for e in r] for r in M.rows])


def assert_canonical(M):
    """rows are reduced Fractions with positive denominators, and the
    integer form is the unique one: den > 0 with no factor common to den
    and every entry."""
    assert M.is_rational
    for r in M.rows:
        for e in r:
            assert type(e) is Fraction
            assert e.denominator > 0 and gcd(e.numerator, e.denominator) == 1
    assert set(M._parts) <= {1}
    num, den = M._parts.get(1, ()), M._den
    assert den > 0 and gcd(den, *(x for r in num for x in r)) == 1
    assert not num or any(map(any, num))
    assert (DenseMatrix(M.rows)._parts, DenseMatrix(M.rows)._den) == (M._parts, den)


class TestIntegerRepresentation:
    def test_results_are_canonical(self):
        rng = random.Random("repr-canonical")
        cases = list(representation_cases(rng))
        for A in cases:
            B = cases[rng.randrange(len(cases))]
            if B.n != A.n:
                B = DenseMatrix([[big_entry(rng) for _ in range(A.n)] for _ in range(A.n)])
            f = Polynomial((Fraction(1, 3), Fraction(-2, 1000003), Fraction(5, 7)))
            n, sqrt2 = A.n, MultiQuad({2: 1})
            # zero scalars and zero matrices, a double negation, and 1 + X^9
            # at a matrix with no analysis: b = 4, and the middle
            # Paterson-Stockmeyer chunk is all zero
            for M in (A, A @ B, A + B, A - B, -A, A * Fraction(-6, 65537), A.transpose(), horner_eval(f, A),
                      A * 0, 0 * A, A * MultiQuad(0), DenseMatrix.zeros(n) * sqrt2,
                      DenseMatrix.scaled_identity(n, 0), -(-A), horner_eval(1 + X**9, DenseMatrix(A.rows))):
                assert_canonical(M)
            # the constant lands on a label no part of A has
            assert_mq_canonical(A + DenseMatrix.scaled_identity(n, sqrt2))
            # Fraction and rational-valued MultiQuad scalars, and a MultiQuad constant
            terms = [(Fraction(-6, 65537), A), (MultiQuad(3), B), (Fraction(1, 3), A @ B), (MultiQuad(-1), A)]
            L = linear_combination(n, terms, MultiQuad(Fraction(5, 2)))
            assert_canonical(L)
            assert L == A * Fraction(-6, 65537) + B * 3 + (A @ B) * Fraction(1, 3) - A + DenseMatrix.scaled_identity(
                n, Fraction(5, 2)
            )
            assert_canonical(linear_combination(n, [], MultiQuad(Fraction(5, 2))))
            assert linear_combination(n, [], Fraction(-1, 3)) == DenseMatrix.identity(n) * Fraction(-1, 3)

    def test_arithmetic_matches_fraction_oracle(self):
        rng = random.Random("repr-arith")
        for A in representation_cases(rng):
            n = A.n
            a = as_lists(A)
            B = DenseMatrix([[big_entry(rng) for _ in range(n)] for _ in range(n)])
            b = as_lists(B)
            assert as_lists(A @ B) == frac_matmul(a, b)
            assert as_lists(B @ A) == frac_matmul(b, a)
            assert as_lists(A + B) == [[x + y for x, y in zip(p, q)] for p, q in zip(a, b)]
            assert as_lists(A - B) == [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)]
            assert as_lists(-A) == [[-x for x in p] for p in a]
            for c in (Fraction(-3, 1000033), 7, -1, 0, Fraction(1, 2)):
                assert as_lists(A * c) == [[x * c for x in p] for p in a]
                assert as_lists(c * A) == [[c * x for x in p] for p in a]
            assert as_lists(A.transpose()) == [list(r) for r in zip(*a)]
            assert A.trace() == sum((a[i][i] for i in range(n)), Fraction(0))
            assert A.is_zero == all(x == 0 for p in a for x in p)
            assert (A == DenseMatrix(a)) and not (A == A + DenseMatrix.identity(n))
            # same integers over another denominator
            assert (A == DenseMatrix([[x / 3 for x in p] for p in a])) == A.is_zero
            assert (A @ B == B @ A) == (frac_matmul(a, b) == frac_matmul(b, a))

    def test_horner_matches_plain_powers(self):
        rng = random.Random("repr-horner")
        for A in representation_cases(rng):
            for _ in range(3):
                coeffs = [big_entry(rng) for _ in range(rng.randint(0, 5))]
                f = Polynomial(coeffs)
                assert as_lists(horner_eval(f, A)) == plain_poly_at(f.coeffs, A.rows)

    def test_minimal_polynomial_matches_krylov_oracle(self):
        rng = random.Random("repr-minpoly")
        for A in representation_cases(rng):
            m = minimal_polynomial(A)
            assert list(m.coeffs) == fraction_minimal_polynomial(as_lists(A))
            assert horner_eval(m, A).is_zero

    def test_derogatory_minimal_polynomial(self):
        rng = random.Random("repr-derogatory")
        A = conjugated_blocks(rng, [[[2, 1], [0, 2]], [[2]], [[3]], [[2, 1], [0, 2]]])
        assert minimal_polynomial(A) == ((X - Polynomial((2,))) ** 2 * (X - Polynomial((3,)))).monic()

    def test_elimination_matches_oracle(self):
        rng = random.Random("repr-elim")
        for A in representation_cases(rng):
            a = as_lists(A)
            assert rank(A) == fraction_rank(a)
            assert [list(v) for v in kernel_basis(A)] == fraction_null_space(a)
            want = fraction_inverse(a)
            if want is None:
                with pytest.raises(SingularMatrix):
                    inverse(A)
            else:
                assert as_lists(inverse(A)) == want
                assert_canonical(inverse(A))

    def test_multiquad_inverse(self):
        rng = random.Random("repr-mq-inverse")
        one = MultiQuad(1)
        for _ in range(30):
            coords = {
                lbl: big_entry(rng)
                for lbl in rng.sample((1, 2, 3, 5, 6, -1, -2), rng.randint(1, 4))
            }
            x = MultiQuad(coords)
            if x == 0:
                continue
            # the inverse in a field is unique, so x * y = 1 pins it down
            assert x * x.inverse() == one
        for _ in range(20):
            a, b = big_entry(rng), big_entry(rng)
            if a == 0 and b == 0:
                continue
            c, d = invert_a_plus_b_sqrt2(a, b)
            assert MultiQuad({1: a, 2: b}).inverse() == MultiQuad({1: c, 2: d})

    def test_multiquad_entries_stay_generic(self):
        # MultiQuad entries with rational values take the generic
        # constructor and land on the same rational matrix
        rng = random.Random("repr-generic")
        for n in (1, 3, 4):
            A = rand_matrix(rng, n)
            B = rand_matrix(rng, n)
            Aq, Bq = as_mq_entries(A), as_mq_entries(B)
            assert Aq.is_rational and (Aq @ Bq).is_rational and Aq.rows == A.rows
            assert (Aq @ Bq).rows == (A @ B).rows
            assert (Aq + Bq) == (A + B) and (Aq - Bq) == (A - B)
            assert A @ Bq == A @ B
            f = Polynomial((Fraction(1, 2), Fraction(-3), Fraction(2, 5)))
            assert horner_eval(f, Aq) == horner_eval(f, A)

    def test_property_against_oracles(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        entry = st.fractions(max_denominator=10**6).filter(lambda q: abs(q.numerator) < 10**9) | st.just(
            Fraction(0)
        )

        @st.composite
        def square(draw, n=None):
            n = n or draw(st.integers(1, 5))
            return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]

        @st.composite
        def pairs(draw):
            a = draw(square())
            return a, draw(square(len(a)))

        @hypothesis.settings(max_examples=60, derandomize=True, deadline=None)
        @hypothesis.given(pairs(), st.lists(entry, max_size=5))
        def check(ab, coeffs):
            a, b = ab
            A, B = DenseMatrix(a), DenseMatrix(b)
            assert as_lists(A @ B) == frac_matmul(a, b)
            assert as_lists(A - B) == [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)]
            assert as_lists(horner_eval(Polynomial(coeffs), A)) == plain_poly_at(Polynomial(coeffs).coeffs, a)
            assert list(minimal_polynomial(A).coeffs) == fraction_minimal_polynomial(a)
            assert rank(A) == fraction_rank(a)
            want = fraction_inverse(a)
            if want is not None:
                assert as_lists(inverse(A)) == want
            assert_canonical(A @ B)

        check()


# -- the MultiQuad form: sum(sqrt(label) * A_label) over one denominator --

#: squarefree labels, negative ones included, closed enough under
#: products to make labels cancel and combine
LABELS = (1, 2, 3, 6, -1, -2, -3, 5)


def mq_entry(rng):
    """A Fraction or MultiQuad entry on up to three labels."""
    if rng.random() < 0.25:
        return big_entry(rng)
    return MultiQuad({lbl: big_entry(rng) for lbl in rng.sample(LABELS, rng.randint(0, 3))})


def mq_matrix(rng, n):
    return DenseMatrix([[mq_entry(rng) for _ in range(n)] for _ in range(n)])


def mq_cases(rng):
    """Matrices of MultiQuad entries: 1x1, zero, a single label, mixed
    Fraction entries, rational values in MultiQuad entries, random up
    to 5x5."""
    yield DenseMatrix([[MultiQuad({-1: 1})]])
    yield DenseMatrix([[MultiQuad(0)] * 3] * 3)
    yield DenseMatrix([[MultiQuad({2: Fraction(3, 7)}), 0], [0, MultiQuad({2: -1})]])
    yield DenseMatrix([[Fraction(1, 3), MultiQuad({6: 2})], [MultiQuad(5), Fraction(-2, 9)]])
    yield as_mq_entries(rand_matrix(rng, 3))
    for n in (1, 2, 3, 4, 5):
        yield mq_matrix(rng, n)


def assert_mq_canonical(M):
    """No all-zero part, den > 0 with no factor common to den and every
    part, rows read from the parts as the labels say (Fractions when the
    only label is 1, MultiQuads otherwise), and the form read back from
    the rows is the same."""
    parts, den = M._parts, M._den
    assert den > 0
    assert all(any(map(any, p)) for p in parts.values())
    assert gcd(den, *(x for p in parts.values() for r in p for x in r)) == 1
    assert M.is_rational == (set(parts) <= {1})
    rows = M.rows
    assert all(type(e) is (Fraction if M.is_rational else MultiQuad) for r in rows for e in r)
    assert (DenseMatrix(rows)._parts, DenseMatrix(rows)._den) == (parts, den)
    assert M.labels == tuple(sorted(parts))


class TestMultiQuadRepresentation:
    """MultiQuad matrices on their integer parts, against the entrywise
    MultiQuad oracle and hand-computed label products."""

    def test_label_products_carry_their_coefficients(self):
        i = DenseMatrix([[MultiQuad({-1: 1})]])
        assert i @ i == DenseMatrix([[-1]])
        assert (i @ i).is_rational and (i @ i).labels == (1,)
        assert type((i @ i).rows[0][0]) is Fraction and (i @ i).rows[0][0] == -1
        assert i @ i @ i == i * -1 and (i @ i @ i).labels == (-1,)
        assert i * MultiQuad({-1: 1}) == DenseMatrix([[-1]])
        A = DenseMatrix([[MultiQuad({2: 1}), 0], [MultiQuad({6: 1}), MultiQuad({-2: 1})]])
        B = DenseMatrix([[MultiQuad({2: 1}), MultiQuad({3: 1})], [0, MultiQuad({-3: 1})]])
        # sqrt2 sqrt2 = 2, sqrt2 sqrt3 = sqrt6, sqrt6 sqrt2 = 2 sqrt3,
        # sqrt6 sqrt3 + sqrt-2 sqrt-3 = 3 sqrt2 - sqrt6
        assert A @ B == DenseMatrix(
            [
                [2, MultiQuad({6: 1})],
                [MultiQuad({3: 2}), MultiQuad({2: 3, 6: -1})],
            ]
        )
        assert (A @ B).labels == (1, 2, 3, 6)
        assert A * MultiQuad({2: 1}) == DenseMatrix(
            [[2, 0], [MultiQuad({3: 2}), MultiQuad({-1: 2})]]
        )

    def test_arithmetic_matches_entrywise_oracle(self):
        rng = random.Random("mq-arith")
        for A in mq_cases(rng):
            n = A.n
            a = as_lists(A)
            for B in (mq_matrix(rng, n), rand_matrix(rng, n)):
                b = as_lists(B)
                assert as_lists(A @ B) == entrywise_matmul(a, b)
                assert as_lists(B @ A) == entrywise_matmul(b, a)
                assert as_lists(A + B) == [[x + y for x, y in zip(p, q)] for p, q in zip(a, b)]
                assert as_lists(A - B) == [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)]
                assert as_lists(B - A) == [[y - x for x, y in zip(p, q)] for p, q in zip(a, b)]
                assert (A @ B == B @ A) == (entrywise_matmul(a, b) == entrywise_matmul(b, a))
            assert as_lists(-A) == [[-x for x in p] for p in a]
            assert as_lists(-(-A)) == a
            for c in (Fraction(-3, 1000033), 7, 0, MultiQuad(0), MultiQuad({-1: 2, 3: Fraction(1, 5)}), MultiQuad({6: 1})):
                assert as_lists(A * c) == [[x * c for x in p] for p in a]
                assert as_lists(c * A) == [[c * x for x in p] for p in a]
            sqrt2, zero = MultiQuad({2: 1}), [[0] * n for _ in range(n)]
            assert as_lists(DenseMatrix.zeros(n) * sqrt2) == zero
            assert as_lists(DenseMatrix.scaled_identity(n, 0)) == zero
            # a rational B: the constant lands on a label no part of B has
            assert as_lists(B + DenseMatrix.scaled_identity(n, sqrt2)) == [
                [x + sqrt2 * (i == j) for j, x in enumerate(p)] for i, p in enumerate(b)
            ]
            # b = 4 at a matrix with no analysis, the middle chunk all zero
            assert as_lists(horner_eval(1 + X**9, DenseMatrix(A.rows))) == plain_poly_at((1,) + (0,) * 8 + (1,), a)
            # three terms, Fraction and MultiQuad scalars mixed, a MultiQuad
            # constant; and no term at all
            c1, c2, c3, c0 = Fraction(2, 7), MultiQuad({-1: 2, 3: Fraction(1, 5)}), sqrt2, MultiQuad({1: -1, 6: 3})
            assert as_lists(linear_combination(n, [(c1, A), (c2, B), (c3, A)], c0)) == [
                [c1 * x + c2 * y + c3 * x + c0 * (i == j) for j, (x, y) in enumerate(zip(p, q))]
                for i, (p, q) in enumerate(zip(a, b))
            ]
            assert as_lists(linear_combination(n, (), c0)) == [[c0 * (i == j) for j in range(n)] for i in range(n)]
            assert as_lists(A.transpose()) == [list(r) for r in zip(*a)]
            assert A.trace() == sum((a[i][i] for i in range(n)), MultiQuad(0))
            assert A.is_zero == all(not x for p in a for x in p)
            power = [[MultiQuad(int(i == j)) for j in range(n)] for i in range(n)]
            for k in range(4):
                assert as_lists(A**k) == power
                power = entrywise_matmul(power, a)

    def test_results_are_canonical(self):
        rng = random.Random("mq-canonical")
        f = Polynomial((MultiQuad({2: Fraction(1, 3)}), Fraction(-2, 1000003), MultiQuad({-1: 5, 1: 1})))
        for A in mq_cases(rng):
            B = mq_matrix(rng, A.n)
            n, sqrt2, R = A.n, MultiQuad({2: 1}), rand_matrix(random.Random(f"mq-canonical-{A.n}"), A.n)
            for M in (A, A @ B, A + B, A - B, -A, A * Fraction(-6, 65537), A * MultiQuad({3: Fraction(2, 9)}),
                      A.transpose(), horner_eval(f, A), A - A, (A * 6) * Fraction(1, 6),
                      A * 0, 0 * A, A * MultiQuad(0), DenseMatrix.zeros(n) * sqrt2,
                      DenseMatrix.scaled_identity(n, 0), R + DenseMatrix.scaled_identity(n, sqrt2), -(-A),
                      horner_eval(1 + X**9, DenseMatrix(A.rows))):
                assert_mq_canonical(M)
            # Fraction and MultiQuad scalars mixed, a MultiQuad constant
            c0 = MultiQuad({2: Fraction(1, 3), -1: 1})
            terms = [(Fraction(-6, 65537), A), (sqrt2, B), (MultiQuad({3: Fraction(2, 9)}), R), (Fraction(1, 2), A @ B)]
            L = linear_combination(n, terms, c0)
            assert_mq_canonical(L)
            assert L == A * Fraction(-6, 65537) + B * sqrt2 + R * MultiQuad({3: Fraction(2, 9)}) + (
                A @ B
            ) * Fraction(1, 2) + DenseMatrix.scaled_identity(n, c0)
            assert_mq_canonical(linear_combination(n, [], c0))
            # the same values reached two ways compare equal
            assert (A * 6) * Fraction(1, 6) == A
            assert (A + B) - B == A
            assert (A - A).is_zero and A - A == DenseMatrix.zeros(A.n)

    def test_rational_values_and_the_zero_matrix(self, monkeypatch):
        rng = random.Random("mq-rational")
        sqrt2 = MultiQuad({2: 1})
        products = []
        mat_mul = _kernel.mat_mul
        monkeypatch.setattr(_kernel, "mat_mul", lambda A, B: products.append(1) or mat_mul(A, B))
        for n in (1, 2, 4):
            Z = DenseMatrix([[MultiQuad(0)] * n] * n)
            assert Z.is_zero and Z.is_rational and Z.labels == ()
            assert Z == DenseMatrix.zeros(n) and Z.rows == ((Fraction(0),) * n,) * n
            A, B = rand_matrix(rng, n), rand_matrix(rng, n)
            Aq = as_mq_entries(A)
            # a zero factor, in either order, makes no integer product and
            # gives the canonical zero
            R = DenseMatrix([[Fraction(i + 2 * j + 1, 3) for j in range(n)] for i in range(n)])
            products.clear()
            for F in (R, as_mq_entries(R), R * sqrt2, R * sqrt2 + R * MultiQuad({-3: 1})):
                for P in (F @ Z, Z @ F, F @ DenseMatrix.zeros(n), DenseMatrix.zeros(n) @ F):
                    assert (P._parts, P._den, P.labels) == ({}, 1, ())
            assert products == []
            assert (Aq @ Z).is_zero and (Z @ A).is_zero and (Z @ A).is_rational
            assert Aq.labels == ((1,) if not A.is_zero else ())
            # rational values read as Fractions, however they were reached
            assert A @ Aq == A @ A and (A @ Aq).rows == (A @ A).rows
            assert A + as_mq_entries(B) == A + B
            assert A * MultiQuad(3) == A * 3 and (A * MultiQuad(3)).rows == (A * 3).rows
            S = A * sqrt2
            assert S.is_rational == A.is_zero
            assert S @ S == A @ A * 2 and (S @ S).rows == (A @ A * 2).rows

    def test_horner_with_multiquad_coefficients(self):
        rng = random.Random("mq-horner")
        for A in mq_cases(rng):
            for _ in range(3):
                coeffs = [mq_entry(rng) for _ in range(rng.randint(0, 5))]
                f = Polynomial(coeffs)
                assert as_lists(horner_eval(f, A)) == plain_poly_at(f.coeffs, A.rows)
            assert horner_eval(Polynomial((MultiQuad({2: 1}),)), A) == DenseMatrix.scaled_identity(
                A.n, MultiQuad({2: 1})
            )
        # MultiQuad coefficients at a rational matrix
        R = rand_matrix(rng, 2)
        assert horner_eval(Polynomial((MultiQuad({2: 1}), 1)), R) == R + DenseMatrix.scaled_identity(
            2, MultiQuad({2: 1})
        )

    def test_property_against_oracles(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coeff = st.builds(Fraction, st.integers(-999, 999), st.integers(1, 100))
        entry = coeff | st.dictionaries(st.sampled_from(LABELS), coeff, max_size=3).map(MultiQuad)

        @st.composite
        def triples(draw):
            n = draw(st.integers(1, 4))
            square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
            return draw(square), draw(square), draw(st.lists(entry, max_size=4))

        @hypothesis.settings(max_examples=60, derandomize=True, deadline=None)
        @hypothesis.given(triples())
        def check(abf):
            a, b, coeffs = abf
            A, B = DenseMatrix(a), DenseMatrix(b)
            assert as_lists(A @ B) == entrywise_matmul(a, b)
            assert as_lists(A - B) == [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)]
            f = Polynomial(coeffs)
            assert as_lists(horner_eval(f, A)) == plain_poly_at(f.coeffs, a)
            assert_mq_canonical(A @ B)

        check()


class TestLabelsDecideTheField:
    """The labels of the parts are the matrix's field: it is rational
    exactly when its only label is 1, and then entries and trace read
    as Fractions, whatever the operands and scalar of the operation."""

    @staticmethod
    def _assert_field(M, rat):
        assert M.is_rational == rat == (set(M.labels) <= {1})
        assert {type(e) for r in M.rows for e in r} == {Fraction if rat else MultiQuad}
        assert type(M.trace()) is (Fraction if rat else MultiQuad)

    def test_entry_and_trace_types_follow_the_labels(self):
        rng = random.Random("type-bit")
        sqrt2 = MultiQuad({2: 1})
        f = Polynomial((Fraction(1, 2), Fraction(-3), Fraction(2, 5)))
        for n in (1, 2, 3):
            A, B, Z = rand_matrix(rng, n), rand_matrix(rng, n), DenseMatrix.zeros(n)
            for X in (A, Z):
                Xs = X * sqrt2  # irrational unless X = 0
                for Xb in (X, as_mq_entries(X)):
                    for Y in (B, as_mq_entries(B), Z, as_mq_entries(Z)):
                        for R in (Xb @ Y, Y @ Xb, Xb + Y, Xb - Y, Y - Xb, Xs @ Xs, Xs @ (Y * sqrt2)):
                            self._assert_field(R, True)
                        for R, rat in ((Xs + Y, X.is_zero), (Y - Xs, X.is_zero), (Xs @ Y, (X @ Y).is_zero)):
                            self._assert_field(R, rat)
                    for R in (-Xb, Xb * 3, Fraction(-1, 2) * Xb, Xb * 0, Xb.transpose(), Xb**0, Xb**3,
                              horner_eval(f, Xb), horner_eval(Polynomial((5,)), Xb), Xb * MultiQuad(2),
                              horner_eval(Polynomial((1, sqrt2)), Xs), Xs * sqrt2, Xs**0):
                        self._assert_field(R, True)
                    for R, rat in ((Xs, X.is_zero), (sqrt2 * Xb, X.is_zero), (-Xs, X.is_zero),
                                   (Xs.transpose(), X.is_zero), (Xs**3, (X**3).is_zero)):
                        self._assert_field(R, rat)
                    self._assert_field(horner_eval(Polynomial((sqrt2, 1)), Xb), False)
                    assert Xb == X and Xb @ B == X @ B and Xb.is_zero == X.is_zero
            self._assert_field(DenseMatrix.scaled_identity(n, Fraction(2, 3)), True)
            self._assert_field(DenseMatrix.scaled_identity(n, MultiQuad(2)), True)
            self._assert_field(DenseMatrix.scaled_identity(n, MultiQuad({4: 1})), True)
            self._assert_field(DenseMatrix.scaled_identity(n, sqrt2), False)
            self._assert_field(DenseMatrix([[sqrt2 if i == j else 0 for j in range(n)] for i in range(n)]), False)
            self._assert_field(inverse(DenseMatrix.identity(n) * 2), True)


class TestPatersonStockmeyer:
    """horner_eval takes its baby steps M^2 ... M^b from the table kept
    on M's analysis and its giant steps in M^b, b = isqrt(d) + 1 for
    d >= 4 (1 below), or longer up to d when the table is; every
    degree, at a fresh matrix and at one whose table grows and is
    reused, equals the explicit powers."""

    @staticmethod
    def _matrices(rng):
        yield rand_matrix(rng, 3)
        yield mq_matrix(rng, 2)
        yield DenseMatrix([[MultiQuad({1: 1, -3: Fraction(1, 2)})]])
        yield DenseMatrix([[0, 2, 0], [0, 0, Fraction(1, 3)], [0, 0, 0]])  # M^3 = 0
        yield DenseMatrix.zeros(2)

    def test_every_degree_against_the_oracle(self):
        rng = random.Random("paterson-stockmeyer")

        def rational():
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

        def mq():
            return MultiQuad({1: rational(), 2: rational(), -1: Fraction(rng.randint(-1, 1))})

        for M in self._matrices(rng):
            shared = DenseMatrix(M.rows)
            for coeff in (rational, mq):
                # the zero polynomial, then degrees 0 ... 40 (b = 1 ... 7)
                # upwards, so the shared table grows step by step, then
                # downwards, so a table longer than b is used
                polys = [Polynomial()] + [
                    Polynomial([coeff() for _ in range(d)] + [coeff() or 1]) for d in range(41)
                ]
                expected = [plain_poly_at(f.coeffs, M.rows) for f in polys]
                for f, want in zip(polys + polys[::-1], expected + expected[::-1]):
                    assert as_lists(horner_eval(f, DenseMatrix(M.rows))) == want, f.degree
                    value = horner_eval(f, shared)
                    assert as_lists(value) == want, f.degree
                    (assert_canonical if value.is_rational else assert_mq_canonical)(value)
            assert len(shared.analysis.powers) == 6  # M^2 ... M^7 for degree 40

    def test_a_second_polynomial_builds_no_baby_steps(self, monkeypatch):
        rng = random.Random("ps-table")
        M, N = rand_matrix(rng, 4), rand_matrix(rng, 4)
        products = []
        real = DenseMatrix.__matmul__

        def counting(A, B):
            products.append(B)
            return real(A, B)

        monkeypatch.setattr(DenseMatrix, "__matmul__", counting)

        def poly(d):
            return Polynomial([Fraction(rng.randint(-5, 5), 3) for _ in range(d)] + [1])

        # degree 24: b = 5, four baby steps and (24 - 1) // 5 = 4 giant steps
        horner_eval(poly(24), M)
        table = M.analysis.powers
        assert len(products) == 8 and len(table) == 4
        assert products[4:] == [table[-1]] * 4
        # degree 20 at the same M: only its 19 // 5 = 3 giant steps
        products.clear()
        horner_eval(poly(20), M)
        assert products == [table[-1]] * 3 and M.analysis.powers is table
        # degree 5 fits the table: one combination, no product
        products.clear()
        horner_eval(poly(5), M)
        assert products == []
        # degrees up to 3 are Horner's rule (b = 1) and start no table
        for d in (1, 2, 3):
            products.clear()
            horner_eval(poly(d), N)
            assert products == [N] * (d - 1) and N.analysis.powers == ()
        # a table, once there, serves them too: degree 4 keeps M^2, M^3
        horner_eval(poly(4), N)
        products.clear()
        horner_eval(poly(3), N)
        assert products == [] and len(N.analysis.powers) == 2

    def test_an_analyzed_matrix_evaluates_from_its_full_table(self, monkeypatch):
        # with M's minimal polynomial m on its analysis, deg f <= deg m
        # takes b = deg f: the table grows to M^(deg f), never past
        # M^(deg m), and f(M) is one combination with no giant step
        rng = random.Random("full-table")
        M = rand_matrix(rng, 6)
        M.analysis.min_poly = m = minimal_polynomial(M)
        assert m.degree == 6
        products = []
        real = DenseMatrix.__matmul__

        def counting(A, B):
            products.append(B)
            return real(A, B)

        def poly(d):
            return Polynomial([Fraction(rng.randint(-5, 5), 3) for _ in range(d)] + [1])

        monkeypatch.setattr(DenseMatrix, "__matmul__", counting)
        f = poly(5)
        want = plain_poly_at(f.coeffs, M.rows)
        assert as_lists(horner_eval(f, M)) == want
        assert products == [M] * 4 and len(M.analysis.powers) == 4
        products.clear()
        assert horner_eval(m, M).is_zero
        assert products == [M] and len(M.analysis.powers) == 5
        # every degree up to deg m is then free of products
        products.clear()
        for d in range(7):
            f = poly(d)
            assert as_lists(horner_eval(f, M)) == plain_poly_at(f.coeffs, M.rows)
        assert products == []
        # deg f > deg m keeps Paterson-Stockmeyer on the table as it is
        for d in (7, 13, 20):
            products.clear()
            f = poly(d)
            assert as_lists(horner_eval(f, M)) == plain_poly_at(f.coeffs, M.rows)
            assert products == [M.analysis.powers[-1]] * ((d - 1) // 6)
        assert len(M.analysis.powers) == 5
        # an unanalyzed matrix keeps b = isqrt(d) + 1: degree 5 takes b = 3
        products.clear()
        N = DenseMatrix(M.rows)
        f = poly(5)
        assert as_lists(horner_eval(f, N)) == plain_poly_at(f.coeffs, N.rows)
        assert products == [N, N, N.analysis.powers[-1]] and len(N.analysis.powers) == 2


# -- the Krylov loop over one shared invariant span --

#: the seed-0 n = 17 ladder rung (minimal polynomial of degree 14)
LADDER_17 = "(X^2-2)^3;(X-3)^3;X^3-2;X^2+X+1;X^3-2"


def ladder_matrix(spec, key):
    from mindec.generator import blocks_matrix
    from mindec.serialize import parse_poly_expression

    return blocks_matrix([parse_poly_expression(b) for b in spec.split(";")], key).matrix


def diagonal(*entries):
    n = len(entries)
    return DenseMatrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def derogatory_cases(rng):
    """Matrices with deg m < n, where later chains start from vectors
    already spanned, or bring the only copy of a factor."""
    # a new factor only in the last basis vector, after n - 1 spanned
    # dimensions; and only in the first
    yield diagonal(2, 2, 2, 2, 5)
    yield diagonal(5, 2, 2, 2, 2)
    yield diagonal(1, 1, 2, 2, 1, 3)
    # c * I, and the zero matrix
    yield DenseMatrix.scaled_identity(4, Fraction(-7, 10**12 + 39))
    yield DenseMatrix.zeros(5)
    # rank one u v^T: m = X (X - v.u), or X^2 when v.u = 0
    for u, v in (([1, 2, 0, -1], [3, 0, 1, 2]), ([1, 1, 0, 0], [1, -1, 5, 0])):
        yield DenseMatrix([[Fraction(a * b, 7) for b in v] for a in u])
    # repeated conjugated blocks: nilpotent, semisimple and mixed
    yield conjugated_blocks(rng, [[[0, 1], [0, 0]]] * 3)
    yield conjugated_blocks(rng, [[[0, 2], [1, 0]]] * 2 + [[[3]]] * 2)
    yield conjugated_blocks(rng, [[[2, 1], [0, 2]], [[2]], [[3]], [[2, 1], [0, 2]], [[3]], [[-1]]])
    # block diagonal with the blocks unconjugated: chains stay inside
    # one block, so every block needs its own chain
    yield DenseMatrix(
        [
            [1, 1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 2, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 1],
            [0, 0, 0, 0, 0, 1],
        ]
    )
    # large denominators: a conjugated derogatory matrix scaled and shifted
    A = conjugated_blocks(rng, [[[1, 1], [0, 1]], [[1]], [[4]], [[1, 1], [0, 1]]])
    yield A * Fraction(10**9 + 7, 2**61 - 1) + DenseMatrix.scaled_identity(6, Fraction(-1, 6**20))


class TestSharedSpanMinimalPolynomial:
    def test_derogatory_cases_match_the_fraction_oracle(self):
        rng = random.Random("shared-span")
        for A in derogatory_cases(rng):
            m = minimal_polynomial(A)
            assert m.degree < A.n
            assert list(m.coeffs) == fraction_minimal_polynomial(as_lists(A))
            assert horner_eval(m, A).is_zero

    def test_projected_semisimple_parts_of_a_ladder_matrix(self):
        # E_i(M) * S: every block but one annihilated, the rest semisimple
        from mindec.covariant import materialize_projectors
        from mindec.decompose import sn_decompose, system_of

        M = ladder_matrix("(X^2-2)^2;(X-3)^3;X^3-2;X^2-2", "ladder:0:0:fine")
        S = sn_decompose(M).semisimple
        for E in materialize_projectors(system_of(M), M):
            for A in (E @ S, E @ M):
                assert list(minimal_polynomial(A).coeffs) == fraction_minimal_polynomial(as_lists(A))

    def test_ladder_matrix_needs_few_chains(self, monkeypatch):
        import mindec.matrix as matrix_mod

        counts = {"chains": 0, "lcms": 0}
        chain, lcm_ = matrix_mod._krylov_chain, matrix_mod.poly_lcm

        def counting_chain(A, j):
            counts["chains"] += 1
            return chain(A, j)

        def counting_lcm(a, b):
            counts["lcms"] += 1
            return lcm_(a, b)

        monkeypatch.setattr(matrix_mod, "_krylov_chain", counting_chain)
        monkeypatch.setattr(matrix_mod, "poly_lcm", counting_lcm)
        from mindec.decompose import sn_decompose

        M = ladder_matrix(LADDER_17, "ladder:0:0:sn")
        assert M.n == 17 and minimal_polynomial(M).degree == 14
        # measured: 5 chains and 3 lcms for M, 9 and 3 for S; a loop
        # that runs every basis vector takes 17 chains and 17 lcms
        assert counts["chains"] <= 6 and counts["lcms"] <= 3
        S = sn_decompose(M).semisimple
        counts.update(chains=0, lcms=0)
        assert minimal_polynomial(S).degree == 8
        assert counts["chains"] <= 10 and counts["lcms"] <= 3

    def test_a_cyclic_matrix_runs_one_chain_and_no_span_reduction(self, monkeypatch):
        import mindec.matrix as matrix_mod

        calls = []
        monkeypatch.setattr(matrix_mod, "_span_reduced", lambda *a: calls.append(a))
        p = (Polynomial((-2, 0, 1)) ** 2 * Polynomial((3, 1)) ** 3).monic()
        assert minimal_polynomial(companion(p)) == p
        assert calls == []

    def test_property_derogatory_matches_the_fraction_oracle(self):
        # block diagonal of repeated small blocks, conjugated by a
        # triangular unimodular matrix
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        entry = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)) | st.just(Fraction(0))
        block = st.integers(1, 2).flatmap(
            lambda k: st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k)
        )

        @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
        @hypothesis.given(st.lists(block, min_size=1, max_size=3), st.integers(1, 3), st.randoms())
        def check(blocks, copies, rnd):
            blocks = (blocks * copies)[:6]
            n = sum(len(b) for b in blocks)
            D = [[Fraction(0)] * n for _ in range(n)]
            at = 0
            for b in blocks:
                for i, r in enumerate(b):
                    for j, x in enumerate(r):
                        D[at + i][at + j] = x
                at += len(b)
            U = [[Fraction(int(i == j)) if i <= j else Fraction(0) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    U[i][j] = Fraction(rnd.randint(-2, 2))
            a = frac_matmul(frac_matmul(U, D), fraction_inverse(U))
            assert list(minimal_polynomial(DenseMatrix(a)).coeffs) == fraction_minimal_polynomial(a)

        check()
