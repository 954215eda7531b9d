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
    fraction_rref,
    invert_a_plus_b_sqrt2,
    plain_poly_at,
)

from mindec.errors import FieldMismatch, SingularMatrix
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
    rref_rows,
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
        # elimination runs over Q only; no command ranks a MultiQuad matrix
        A = DenseMatrix(
            [[MultiQuad({2: 1}), MultiQuad(2)], [MultiQuad(1), MultiQuad({2: 1})]]
        )
        with pytest.raises(FieldMismatch):
            rank(A)
        with pytest.raises(FieldMismatch):
            kernel_basis(A)
        with pytest.raises(FieldMismatch):
            rref_rows(A.rows)
        with pytest.raises(FieldMismatch):
            rank(DenseMatrix.identity(2).as_multiquad())


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
        # a MultiQuad matrix with rational values is still not rational
        with pytest.raises(FieldMismatch):
            minimal_polynomial(DenseMatrix.identity(2).as_multiquad())


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
            horner_eval(Polynomial((y,)), DenseMatrix.identity(2).as_multiquad())
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
            for M in (A, A @ B, A + B, A - B, -A, A * Fraction(-6, 65537), A.transpose(), horner_eval(f, A)):
                assert_canonical(M)

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
            # rectangular arrays, rows with their own denominators
            wide = [r + [big_entry(rng)] for r in a]
            assert rref_rows(wide) == fraction_rref(wide)
            assert rref_rows(a[:-1] or a) == fraction_rref(a[:-1] or a)

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
        rng = random.Random("repr-generic")
        for n in (1, 3, 4):
            A = rand_matrix(rng, n)
            B = rand_matrix(rng, n)
            Aq, Bq = A.as_multiquad(), B.as_multiquad()
            assert not Aq.is_rational and not (Aq @ Bq).is_rational
            assert (Aq @ Bq).rows == (A @ B).as_multiquad().rows
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
    """MultiQuad matrices: 1x1, zero, a single label, mixed Fraction
    entries, rational values in MultiQuad entries, random up to 5x5."""
    yield DenseMatrix([[MultiQuad({-1: 1})]])
    yield DenseMatrix.zeros(3).as_multiquad()
    yield DenseMatrix([[MultiQuad({2: Fraction(3, 7)}), 0], [0, MultiQuad({2: -1})]])
    yield DenseMatrix([[Fraction(1, 3), MultiQuad({6: 2})], [MultiQuad(5), Fraction(-2, 9)]])
    yield rand_matrix(rng, 3).as_multiquad()
    for n in (1, 2, 3, 4, 5):
        yield mq_matrix(rng, n)


def assert_mq_canonical(M):
    """No all-zero part, den > 0 with no factor common to den and every
    part, rows of MultiQuads read from the parts, and the form read
    back from the rows is the same."""
    assert not M.is_rational
    parts, den = M._parts, M._den
    assert den > 0
    assert all(any(map(any, p)) for p in parts.values())
    assert gcd(den, *(x for p in parts.values() for r in p for x in r)) == 1
    rows = M.as_multiquad().rows
    assert all(type(e) is MultiQuad for r in rows for e in r)
    assert (DenseMatrix(rows)._parts, DenseMatrix(rows)._den) == (parts, den)
    assert M.labels == tuple(sorted(parts))


class TestMultiQuadRepresentation:
    """MultiQuad matrices on their integer parts, against the entrywise
    MultiQuad oracle and hand-computed label products."""

    def test_label_products_carry_their_coefficients(self):
        i = DenseMatrix([[MultiQuad({-1: 1})]])
        assert i @ i == DenseMatrix([[-1]])
        assert (i @ i).rows[0][0].coordinates == {1: Fraction(-1)}
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
            for c in (Fraction(-3, 1000033), 7, 0, MultiQuad({-1: 2, 3: Fraction(1, 5)}), MultiQuad({6: 1})):
                assert as_lists(A * c) == [[x * c for x in p] for p in a]
                assert as_lists(c * A) == [[c * x for x in p] for p in a]
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
            for M in (A, A @ B, A + B, A - B, -A, A * Fraction(-6, 65537), A * MultiQuad({3: Fraction(2, 9)}),
                      A.transpose(), horner_eval(f, A), A - A, (A * 6) * Fraction(1, 6)):
                assert_mq_canonical(M)
            # the same values reached two ways compare equal
            assert (A * 6) * Fraction(1, 6) == A
            assert (A + B) - B == A
            assert (A - A).is_zero and A - A == DenseMatrix.zeros(A.n)

    def test_rational_values_and_the_zero_matrix(self):
        rng = random.Random("mq-rational")
        for n in (1, 2, 4):
            Z = DenseMatrix.zeros(n).as_multiquad()
            assert Z.is_zero and not Z.is_rational and Z.labels == ()
            assert Z == DenseMatrix.zeros(n) and Z.rows == ((MultiQuad(0),) * n,) * n
            A, B = rand_matrix(rng, n), rand_matrix(rng, n)
            Aq = A.as_multiquad()
            assert (Aq @ Z).is_zero and (Z @ A).is_zero and not (Z @ A).is_rational
            assert Aq.labels == ((1,) if not A.is_zero else ())
            # rational @ MultiQuad stays a MultiQuad matrix with the rational values
            assert A @ Aq == A @ A and not (A @ Aq).is_rational
            assert (A @ Aq).rows == (A @ A).as_multiquad().rows
            assert A + B.as_multiquad() == A + B
            assert A * MultiQuad(3) == A * 3 and not (A * MultiQuad(3)).is_rational

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
        with pytest.raises(FieldMismatch):
            horner_eval(Polynomial((MultiQuad({2: 1}), 1)), rand_matrix(rng, 2))

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
            if A.is_rational and not f.is_rational:
                return
            assert as_lists(horner_eval(f, A)) == plain_poly_at(f.coeffs, a)
            if not (A @ B).is_rational:
                assert_mq_canonical(A @ B)

        check()


class TestTypeBit:
    """One storage form: the type bit alone says whether entries read
    as Fractions or MultiQuads, and a result is rational exactly when
    its operands and scalar are."""

    @staticmethod
    def _assert_bit(M, rat):
        assert M.is_rational == rat
        assert {type(e) for r in M.rows for e in r} == {Fraction if rat else MultiQuad}
        assert type(M.trace()) is (Fraction if rat else MultiQuad)

    def test_each_operation_keeps_the_type_bit(self):
        rng = random.Random("type-bit")
        sqrt2 = MultiQuad({2: 1})
        f = Polynomial((Fraction(1, 2), Fraction(-3), Fraction(2, 5)))
        for n in (1, 2, 3):
            A, B, Z = rand_matrix(rng, n), rand_matrix(rng, n), DenseMatrix.zeros(n)
            for X in (A, Z):
                for Xb in (X, X.as_multiquad()):
                    rat = Xb.is_rational
                    for Y in (B, B.as_multiquad(), Z, Z.as_multiquad()):
                        both = rat and Y.is_rational
                        for R in (Xb @ Y, Y @ Xb, Xb + Y, Xb - Y, Y - Xb):
                            self._assert_bit(R, both)
                    for R in (-Xb, Xb * 3, Fraction(-1, 2) * Xb, Xb * 0, Xb.transpose(),
                              Xb**0, Xb**3, horner_eval(f, Xb), horner_eval(Polynomial((5,)), Xb)):
                        self._assert_bit(R, rat)
                    for R in (Xb * sqrt2, sqrt2 * Xb, Xb * MultiQuad(2), Xb.as_multiquad()):
                        self._assert_bit(R, False)
                    if not rat:
                        self._assert_bit(horner_eval(Polynomial((sqrt2, 1)), Xb), False)
                    # equality compares values, whatever the bit
                    assert Xb == X and Xb @ B == X @ B and Xb.is_zero == X.is_zero
            self._assert_bit(DenseMatrix.scaled_identity(n, Fraction(2, 3)), True)
            self._assert_bit(DenseMatrix.scaled_identity(n, MultiQuad(2)), False)
            self._assert_bit(DenseMatrix.scaled_identity(n, sqrt2), False)
            self._assert_bit(DenseMatrix([[sqrt2 if i == j else 0 for j in range(n)] for i in range(n)]), False)
            self._assert_bit(inverse(DenseMatrix.identity(n) * 2), True)

