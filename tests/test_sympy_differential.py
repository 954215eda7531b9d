"""Command outputs against sympy's Jordan form, on matrix families the
seeded generator never draws: one eigenvalue with several Jordan block
sizes (nilpotent when the eigenvalue is 0), and Jordan matrices
conjugated by a rational matrix with denominators 10^6.  Each matrix is
built in sympy from its Jordan data, n <= 5; hypothesis draws are
derandomized.  The singular value systems are checked on products
Q1 diag(sigma) Q2 of rational orthogonal matrices built the same way,
the unbreakable components on conjugated diagonal matrices, and Delta
Sigma U also on conjugated companion blocks of X^2 - 2, X^2 + 1 and
X^2 - 4X + 1.  Skipped when sympy or hypothesis is not installed."""

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
    unbreakable_components,
)
from mindec.errors import SingularMatrix  # noqa: E402
from mindec.matfun import schwerdtfeger_eval  # noqa: E402
from mindec.matrix import DenseMatrix  # noqa: E402
from mindec.poly import Polynomial, X  # noqa: E402
from mindec.realclosed import complete_mjc, svd  # noqa: E402
from mindec.scalar import MultiQuad  # noqa: E402

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
def diagonalizable(draw):
    """P D P^-1 for a diagonal D of rational eigenvalues, one at least
    nonzero, P with denominators 1 or 10^6."""
    n = draw(st.integers(1, MAX_ORDER))
    value = st.sampled_from((0, 1, -1, 2, sympy.Rational(-1, 3)))
    D = sympy.diag(*draw(st.lists(value, min_size=n, max_size=n).filter(any)))
    P = draw(conjugator(n, draw(st.sampled_from((1, 10**6)))))
    return P * D * P.inv()


#: the Jordan families draw one eigenvalue in most examples; the
#: diagonalizable one draws several, which f can merge
APPLY_FAMILIES = {**FAMILIES, "diagonalizable": diagonalizable()}

#: monic quadratics X^2 + pX + q as (p, q): a real pair sqrt(2), -sqrt(2)
#: of opposite signs, a complex pair +-i and a real pair 2 +- sqrt(3) of
#: one sign
QUADRATICS = ((0, -2), (0, 1), (-4, 1))


@st.composite
def quadratic_blocks(draw):
    """(P C P^-1, eigenvalues) for C the block diagonal of one or two
    companion matrices of QUADRATICS and at most one nonzero rational
    eigenvalue, P an integer conjugator."""
    blocks = draw(st.lists(st.sampled_from(QUADRATICS), min_size=1, max_size=2))
    linear = draw(st.lists(st.sampled_from((1, -2, sympy.Rational(3, 2))), max_size=1))
    x = sympy.Symbol("x")
    C = sympy.diag(*(sympy.Matrix([[0, -q], [1, -p]]) for p, q in blocks), *linear)
    eigenvalues = list(linear)
    for p, q in blocks:
        eigenvalues += list(sympy.roots(x**2 + p * x + q, x))
    P = draw(conjugator(C.rows, 1))
    return P * C * P.inv(), eigenvalues


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


def scalar_to_sympy(v):
    """A rational or MultiQuad scalar as sum(c * sqrt(label)) in sympy."""
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(label))
        for label, c in MultiQuad(v).coordinates.items()
    )


def same_values(got, want):
    """Equal sets of sympy numbers, each matched up to simplification."""
    got, want = list(got), list(set(want))
    return len(got) == len(want) and all(
        any(sympy.simplify(g - w) == 0 for w in want) for g in got
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


@pytest.mark.parametrize("family", FAMILIES.values(), ids=list(FAMILIES))
def test_cmjc_matches_the_jordan_form(family):
    # Delta = P diag(|lambda|) P^-1 and Sigma = P diag(sign lambda) P^-1
    # on the invertible draws; every eigenvalue is rational, so no
    # radicand is adjoined
    @SETTINGS
    @hypothesis.given(family)
    def check(A):
        if A.det() == 0:
            return
        P, J = A.jordan_form()
        dsu = complete_mjc(to_dense(A))
        diagonal = J.diagonal()
        assert to_sympy(dsu.delta) == P * sympy.diag(*map(abs, diagonal)) * P.inv()
        assert to_sympy(dsu.sigma) == P * sympy.diag(*map(sympy.sign, diagonal)) * P.inv()
        assert dsu.radicands == ()

    check()


@SETTINGS
@hypothesis.given(quadratic_blocks())
def test_cmjc_spectra_match_the_eigenvalues(drawn):
    # the class norms are sympy's |lambda|, Sigma's eigenvalues its
    # lambda / |lambda|, and the radicands the square roots in the |lambda|
    A, eigenvalues = drawn
    dsu = complete_mjc(to_dense(A))
    norms = [sympy.Abs(lam) for lam in eigenvalues]
    assert same_values(map(scalar_to_sympy, dsu.delta_spectrum), norms)
    x = sympy.Symbol("x")
    sigma = [scalar_to_sympy(v) for v in dsu.sigma_linear]
    for quad in dsu.sigma_quadratics:
        coeffs = [scalar_to_sympy(c) for c in reversed(quad.coeffs)]
        sigma += list(sympy.roots(sympy.Poly(coeffs, x)))
    assert same_values(sigma, [lam / norm for lam, norm in zip(eigenvalues, norms)])
    labels = {
        int(p.base) for norm in norms for p in norm.atoms(sympy.Pow) if p.exp == sympy.S.Half
    }
    assert list(dsu.radicands) == sorted(labels)


#: polynomials f that merge eigenvalues of the families (X^2 merges 1
#: and -1, X^3 - X merges 0, 1 and -1), beside drawn ones
MERGING = (X * X, X**3 - X, (X - 1) * (X - 2), Polynomial((5,)))


@pytest.mark.parametrize("family", APPLY_FAMILIES.values(), ids=list(APPLY_FAMILIES))
def test_apply_classes_group_equal_images(family):
    # factor i is X - lambda_i; two factors share a class exactly when
    # f(lambda_i) = f(lambda_j), and the class image is X - f(lambda)
    coefficient = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    drawn = st.lists(coefficient, max_size=4).map(Polynomial)

    @SETTINGS
    @hypothesis.given(family, st.one_of(st.sampled_from(MERGING), drawn))
    def check(A, f):
        M = to_dense(A)
        eigenvalues = [-m.coefficient(0) for m, _ in system_of(M).factored.factors]
        assert set(map(sympy.Rational, eigenvalues)) == set(A.eigenvals())
        values = [sum(c * lam**k for k, c in enumerate(f.coeffs)) for lam in eigenvalues]
        want = {}
        for i, value in enumerate(values):
            want.setdefault(value, []).append(i)
        classes = schwerdtfeger_eval(f, M).classes
        assert sorted(c.indices for c in classes) == sorted(map(tuple, want.values()))
        for c in classes:
            assert c.image == X - values[c.indices[0]]

    check()


@SETTINGS
@hypothesis.given(diagonalizable())
def test_unbreakable_components_are_the_nonzero_eigenvalue_parts(A):
    # on a diagonalizable A = P D P^-1 the components are P D_lambda P^-1,
    # D_lambda keeping the entries of D equal to lambda, for each nonzero
    # eigenvalue lambda, in any order
    P, J = A.jordan_form()
    diagonal = J.diagonal()
    want = [
        P * sympy.diag(*(lam if v == lam else 0 for v in diagonal)) * P.inv()
        for lam in set(diagonal) - {0}
    ]
    got = [to_sympy(c) for c in unbreakable_components(to_dense(A))]
    assert len(got) == len(want)
    assert all(g in want for g in got)
