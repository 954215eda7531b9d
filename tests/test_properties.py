"""Property tests on derandomized hypothesis draws: ``sn``, ``fine`` and
``apply --check`` pass, and the Krylov minimal polynomial equals the
plain-Fraction oracle's.  Two families are drawn: conjugated companion
blocks of repeated factors from the generator's pool (n <= 24), and
small dense matrices whose entries have denominators up to 10^6."""

import json

import pytest
from oracles import fraction_minimal_polynomial

from mindec.generator import IRREDUCIBLE_POOL, blocks_matrix
from mindec.matrix import DenseMatrix, minimal_polynomial
from mindec.selftest import run_cli
from mindec.serialize import matrix_to_json

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=40, derandomize=True, deadline=None, database=None)
#: coefficients of the f of the apply requests, constant term first
POLY_COEFFS = st.lists(st.integers(-3, 3), max_size=6)
#: largest order of a pool-block matrix
MAX_ORDER = 24


@st.composite
def pool_blocks(draw):
    """Companion blocks p^k, p from the pool and drawn with repetition,
    k <= 3, of total order at most MAX_ORDER."""
    polys, order = [], 0
    for _ in range(draw(st.integers(1, 6))):
        p = draw(st.sampled_from(IRREDUCIBLE_POOL))
        k = draw(st.integers(1, 3))
        if order + k * p.degree > MAX_ORDER:
            break
        polys.append(p**k)
        order += k * p.degree
    return polys or [IRREDUCIBLE_POOL[0]]


ENTRIES = st.just(0) | st.fractions(min_value=-10, max_value=10, max_denominator=10**6)


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 6))
    return DenseMatrix([draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(n)])


def _check(M, coeffs):
    assert minimal_polynomial(M).coeffs == tuple(fraction_minimal_polynomial(M.rows))
    doc = json.dumps(matrix_to_json(M))
    poly = "--poly=" + (",".join(map(str, coeffs)) or "0")
    for argv in (["sn"], ["fine"], ["apply", poly]):
        code, out, err = run_cli(argv + ["--check"], input_text=doc)
        assert code == 0, (argv, err)
        assert json.loads(out)["report"]["pass"] is True, argv


def test_pool_blocks_pass_every_check():
    @SETTINGS
    @hypothesis.given(pool_blocks(), st.integers(0, 10**6), POLY_COEFFS)
    def check(polys, key, coeffs):
        M = blocks_matrix(polys, f"property-{key}").matrix
        assert M.n <= MAX_ORDER
        _check(M, coeffs)

    check()


def test_rational_matrices_pass_every_check():
    @SETTINGS
    @hypothesis.given(rational_matrices(), POLY_COEFFS)
    def check(M, coeffs):
        _check(M, coeffs)

    check()
