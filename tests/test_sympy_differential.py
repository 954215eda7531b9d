"""Command outputs against sympy's Jordan form, on matrix families the
seeded generator never draws: one eigenvalue with several Jordan block
sizes (nilpotent when the eigenvalue is 0), and Jordan matrices
conjugated by a rational matrix with denominators 10^6.  Each matrix is
built in sympy from its Jordan data, n <= 5; hypothesis draws are
derandomized.  The singular value systems are checked on products
Q1 diag(sigma) Q2 of rational orthogonal matrices built the same way.
Skipped when sympy or hypothesis is not installed."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from mindec.covariant import materialize_projectors  # noqa: E402
from mindec.decompose import (  # noqa: E402
    fine_decompose,
    multiplicative_jc,
    sn_decompose,
    system_of,
)
from mindec.errors import SingularMatrix  # noqa: E402
from mindec.matrix import DenseMatrix  # noqa: E402
from mindec.poly import X  # noqa: E402
from mindec.realclosed import svd  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=10, derandomize=True, deadline=None, database=None)
#: largest order of a drawn matrix
MAX_ORDER = 5


@st.composite
def block_sizes(draw, at_least):
    """At least ``at_least`` Jordan block sizes of total at most MAX_ORDER."""
    sizes = [draw(st.integers(1, MAX_ORDER - at_least + 1))]
    while len(sizes) < at_least or draw(st.booleans()):
        room = MAX_ORDER - sum(sizes)
        if room < 1:
            break
        sizes.append(draw(st.integers(1, room)))
    return sizes


@st.composite
def conjugator(draw, n, den):
    """L U for unit triangular L and U with entries k/den, |k| <= 3 den:
    invertible by construction."""
    entry = st.integers(-3 * den, 3 * den).map(lambda k: sympy.Rational(k, den))
    L, U = sympy.eye(n), sympy.eye(n)
    for i in range(n):
        for j in range(i):
            L[i, j] = draw(entry)
            U[j, i] = draw(entry)
    return L * U


def jordan_matrix(blocks):
    """The Jordan matrix of (eigenvalue, size) blocks, in sympy."""
    return sympy.diag(*(sympy.Matrix(sympy.jordan_cell(lam, size)) for lam, size in blocks))


@st.composite
def one_eigenvalue(draw):
    """P J P^-1 for J of one eigenvalue in several blocks, P an integer
    conjugator."""
    lam = draw(st.sampled_from((0, 0, 1, -2, sympy.Rational(3, 2))))
    blocks = [(lam, k) for k in draw(block_sizes(2))]
    P = draw(conjugator(sum(k for _, k in blocks), 1))
    return P * jordan_matrix(blocks) * P.inv()


@st.composite
def large_denominators(draw):
    """P J P^-1 for J of rational eigenvalues, P with denominators 10^6."""
    sizes = draw(block_sizes(1))
    eigenvalue = st.sampled_from((0, 1, -1, 2, sympy.Rational(-1, 3)))
    blocks = [(draw(eigenvalue), k) for k in sizes]
    P = draw(conjugator(sum(sizes), 10**6))
    return P * jordan_matrix(blocks) * P.inv()


FAMILIES = {"one-eigenvalue": one_eigenvalue(), "large-denominators": large_denominators()}


@st.composite
def cayley(draw, n):
    """(I - K)(I + K)^-1 for a rational skew K: orthogonal, since I + K
    is invertible for every real skew K."""
    entry = st.builds(sympy.Rational, st.integers(-3, 3), st.integers(1, 3))
    K = sympy.zeros(n, n)
    for i in range(n):
        for j in range(i):
            K[i, j] = draw(entry)
            K[j, i] = -K[i, j]
    return (sympy.eye(n) - K) * (sympy.eye(n) + K).inv()


@st.composite
def orthogonal_products(draw):
    """(Q1 diag(sigma) Q2, sigma) for Cayley orthogonal Q1 and Q2 and
    rational sigma, one entry at least nonzero; repeated, signed and zero
    entries of sigma included."""
    n = draw(st.integers(1, MAX_ORDER))
    value = st.sampled_from((0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2), 3))
    sigma = draw(st.lists(value, min_size=n, max_size=n).filter(any))
    middle = sympy.diag(*(sympy.Rational(s.numerator, s.denominator) for s in sigma))
    return draw(cayley(n)) * middle * draw(cayley(n)), sigma


def to_dense(A):
    return DenseMatrix(
        [[Fraction(int(e.p), int(e.q)) for e in A.row(i)] for i in range(A.rows)]
    )


def to_sympy(M):
    return sympy.Matrix(
        [[sympy.Rational(e.numerator, e.denominator) for e in row] for row in M.rows]
    )


def jordan_blocks(J):
    """{eigenvalue as a Fraction: [block sizes]} read off a Jordan matrix."""
    blocks, i = {}, 0
    while i < J.rows:
        size = 1
        while i + size < J.rows and J[i + size - 1, i + size] == 1:
            size += 1
        lam = J[i, i]
        blocks.setdefault(Fraction(int(lam.p), int(lam.q)), []).append(size)
        i += size
    return blocks


@pytest.mark.parametrize("family", FAMILIES.values(), ids=list(FAMILIES))
def test_sn_matches_the_jordan_form(family):
    @SETTINGS
    @hypothesis.given(family)
    def check(A):
        P, J = A.jordan_form()
        want = P * sympy.diag(*J.diagonal()) * P.inv()
        assert to_sympy(sn_decompose(to_dense(A)).semisimple) == want

    check()


@pytest.mark.parametrize("family", FAMILIES.values(), ids=list(FAMILIES))
def test_fine_matches_the_jordan_blocks(family):
    @SETTINGS
    @hypothesis.given(family)
    def check(A):
        blocks = jordan_blocks(A.jordan_form()[1])
        fine = fine_decompose(to_dense(A))
        # every eigenvalue here is rational: its factor is X - lambda,
        # to the power of its largest Jordan block
        got = {-c.factor.coefficient(0): c for c in fine.components}
        assert all(c.factor.degree == 1 for c in fine.components)
        assert set(got) == set(blocks)
        for lam, sizes in blocks.items():
            part = got[lam]
            assert part.multiplicity == max(sizes)
            if lam != 0:
                assert to_sympy(part.semisimple + part.nilpotent).rank() == sum(sizes)
            else:
                assert part.factor == X

    check()


@pytest.mark.parametrize("family", FAMILIES.values(), ids=list(FAMILIES))
def test_covariant_projectors_match_the_jordan_blocks(family):
    @SETTINGS
    @hypothesis.given(family)
    def check(A):
        P, J = A.jordan_form()
        M = to_dense(A)
        system = system_of(M)
        projectors = materialize_projectors(system, M)
        factors = [factor for factor, _ in system.factored.factors]
        assert len(projectors) == len(factors)
        assert all(factor.degree == 1 for factor in factors)
        # factor i is X - lambda_i; E_i is the identity on the blocks of
        # lambda_i, conjugated by P
        eigenvalues = [sympy.Rational(-factor.coefficient(0)) for factor in factors]
        assert set(eigenvalues) == set(J.diagonal())
        for lam, E in zip(eigenvalues, projectors):
            D = sympy.diag(*(1 if J[k, k] == lam else 0 for k in range(J.rows)))
            assert to_sympy(E) == P * D * P.inv()

    check()


@pytest.mark.parametrize("family", FAMILIES.values(), ids=list(FAMILIES))
def test_mjc_matches_the_jordan_form(family):
    @SETTINGS
    @hypothesis.given(family)
    def check(A):
        M = to_dense(A)
        if A.det() == 0:
            with pytest.raises(SingularMatrix):
                multiplicative_jc(M)
            return
        P, J = A.jordan_form()
        S = P * sympy.diag(*J.diagonal()) * P.inv()
        jc = multiplicative_jc(M)
        assert to_sympy(jc.semisimple) == S
        assert to_sympy(jc.unipotent) == S.inv() * A

    check()


@SETTINGS
@hypothesis.given(orthogonal_products())
def test_svd_matches_the_orthogonal_product(drawn):
    A, sigma = drawn
    result = svd(to_dense(A))
    values = sorted({abs(s) for s in sigma if s}, reverse=True)
    assert all(t.sigma.is_rational for t in result.terms)
    assert [t.sigma.rational_part for t in result.terms] == values
    for t, value in zip(result.terms, values):
        assert to_sympy(t.matrix).rank() == sum(abs(s) == value for s in sigma)
