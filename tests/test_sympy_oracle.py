"""Differential checks against sympy, an independent computer algebra
system: factorization, minimal polynomials (of matrices and of the
images f(alpha) of algebraic numbers), MultiQuad matrix products and
gcds in K[X] over K = Q(sqrt(d1), ...).  Skipped when sympy is not
installed."""

import random
from fractions import Fraction

import pytest
from oracles import MULTIQUAD_FIELDS, multiquad_gcd_cases

sympy = pytest.importorskip("sympy")

import mindec.factor as factor_mod  # noqa: E402
from mindec.errors import RecombinationBudgetExceeded  # noqa: E402
from mindec.factor import factor_rational  # noqa: E402
from mindec.generator import IRREDUCIBLE_POOL, blocks_matrix, random_matrix  # noqa: E402
from mindec.matfun import _image_min_poly  # noqa: E402
from mindec.matrix import DenseMatrix, minimal_polynomial  # noqa: E402
from mindec.poly import Polynomial, X, poly_gcd  # noqa: E402
from mindec.scalar import MultiQuad  # noqa: E402
from mindec.serialize import parse_poly_expression  # noqa: E402

x = sympy.Symbol("x")


def to_sympy_poly(p):
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x
    )


def monic_key(f):
    """A sympy polynomial as its monic coefficients, lowest degree first."""
    return tuple(
        Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(f, x).monic().all_coeffs())
    )


def sympy_factors(f):
    """{monic irreducible factor: multiplicity} of a sympy polynomial."""
    _, pairs = sympy.factor_list(f.as_expr(), x)
    return {monic_key(g): mult for g, mult in pairs}


def seeded_cases():
    for k in range(12):
        yield random_matrix(f"sympy-{k}", 6).matrix
    for blocks in ("(X^2-2)^2;X^3-2;X-3", "(X^2+X+1)^2;(X-1)^2;X^4-10*X^2+1"):
        yield blocks_matrix([parse_poly_expression(b) for b in blocks.split(";")], "s").matrix


def test_factorization_matches_sympy():
    for M in seeded_cases():
        p = minimal_polynomial(M)
        ours = {tuple(f.coeffs): mult for f, mult in factor_rational(p).factors}
        assert ours == sympy_factors(to_sympy_poly(p)), p


def test_minimal_polynomial_divides_the_characteristic_polynomial():
    for M in seeded_cases():
        S = sympy.Matrix(
            [[sympy.Rational(e.numerator, e.denominator) for e in r] for r in M.rows]
        )
        charpoly = sympy.Poly(S.charpoly(x).as_expr(), x)
        m = to_sympy_poly(minimal_polynomial(M))
        assert m.LC() == 1
        assert sympy.div(charpoly, m)[1].is_zero
        # the same distinct irreducible factors
        assert set(sympy_factors(m)) == set(sympy_factors(charpoly))


#: functions f whose images f(alpha) are compared, the zero and a
#: constant polynomial among them
IMAGE_FUNCTIONS = (
    X * X,
    X**3 + X,
    2 * X - 1,
    X * X + X + 1,
    Polynomial((Fraction(3, 2),)),
    Polynomial(()),
    Polynomial((1, -1, 0, Fraction(1, 3), 1)),
    X**5 - 3 * X,
)


def pool_id(p):
    """The case id of a pool polynomial: its "c*X^k" terms joined by
    " + ", the form these ids were first written in, kept so that each
    case keeps its name."""
    return " + ".join(
        str(c) if k == 0 else f"{c}*X" if k == 1 else f"{c}*X^{k}"
        for k, c in enumerate(p.coeffs)
        if c
    )


@pytest.mark.parametrize("p", IRREDUCIBLE_POOL, ids=pool_id)
def test_image_minimal_polynomial_matches_sympy(p):
    # f(alpha) for a root alpha of p, as a sympy algebraic number
    alpha = sympy.CRootOf(to_sympy_poly(p), 0)
    for f in IMAGE_FUNCTIONS:
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
        image = sympy.AlgebraicNumber(alpha, coeffs or [0])
        assert _image_min_poly(f, p).coeffs == monic_key(sympy.minimal_polynomial(image, x)), f


BIG = 2**64 + 13


class TestQuadraticParts:
    """Squarefree parts of degree 2 are decided by their discriminant,
    without modular factoring or subset trials."""

    @pytest.mark.parametrize(
        "coeffs",
        [
            (1, -5, 6),  # 6X^2 - 5X + 1 = (2X - 1)(3X - 1): primitive, not monic
            (1, 3, -1),  # discriminant 5
            (3, 1, 2),  # discriminant -23
            (-(BIG**2) * 3, 2 * BIG, 1),  # (X - 3 BIG)(X + BIG), roots past 2^64
            (BIG + 2, BIG, 1),  # discriminant BIG^2 - 4 BIG - 8, positive, not a square
            (BIG**2, 1, BIG),  # discriminant 1 - 4 BIG^3 < 0
            (0, -2, 0, 1),  # X^3 - 2X = X (X^2 - 2)
        ],
    )
    def test_factors_match_sympy(self, coeffs):
        p = Polynomial(coeffs)
        ours = {tuple(f.coeffs): mult for f, mult in factor_rational(p).factors}
        assert ours == sympy_factors(to_sympy_poly(p)), p

    def test_zero_budget_still_factors_a_reducible_quadratic(self, monkeypatch):
        monkeypatch.setattr(factor_mod, "RECOMBINATION_BUDGET", 0)
        p = Polynomial((1, -5, 6))
        ours = {tuple(f.coeffs): mult for f, mult in factor_rational(p).factors}
        assert ours == sympy_factors(to_sympy_poly(p))
        with pytest.raises(RecombinationBudgetExceeded):
            factor_rational(Polynomial((1, 0, 0, 0, 1)))  # X^4 + 1


LABELS = (1, 2, 3, 6, -1, -2, 5)


def mq_to_sympy(e):
    coords = e.coordinates if isinstance(e, MultiQuad) else {1: Fraction(e)}
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(l) for l, c in coords.items()),
        sympy.Integer(0),
    )


def test_multiquad_products_match_sympy():
    rng = random.Random("sympy-mq")

    def entry():
        return MultiQuad(
            {l: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for l in rng.sample(LABELS, 2)}
        )

    for n in (1, 2, 3):
        for _ in range(3):
            A = DenseMatrix([[entry() for _ in range(n)] for _ in range(n)])
            B = DenseMatrix([[entry() for _ in range(n)] for _ in range(n)])
            want = sympy.Matrix([[mq_to_sympy(e) for e in r] for r in A.rows]) * sympy.Matrix(
                [[mq_to_sympy(e) for e in r] for r in B.rows]
            )
            got = sympy.Matrix([[mq_to_sympy(e) for e in r] for r in (A @ B).rows])
            assert (want - got).expand() == sympy.zeros(n, n)


@pytest.mark.parametrize("radicands", MULTIQUAD_FIELDS.values(), ids=list(MULTIQUAD_FIELDS))
def test_multiquad_gcd_matches_sympy(radicands):
    # one sympy field per test: building it is most of sympy's time
    field = sympy.QQ.algebraic_field(*(sympy.sqrt(d) for d in radicands))

    def over_field(p):
        terms = (mq_to_sympy(c) * x**k for k, c in enumerate(p.coeffs))
        return sympy.Poly(sum(terms, sympy.Integer(0)), x, domain=field)

    for case in multiquad_gcd_cases(radicands):
        g, u, v = (Polynomial(tuple(MultiQuad(c) for c in coeffs)) for coeffs in case)
        a, b = g * u, g * v
        assert over_field(poly_gcd(a, b)) == over_field(a).gcd(over_field(b)).monic()
