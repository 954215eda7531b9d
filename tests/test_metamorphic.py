"""Metamorphic relations: `sn` and `fine` checked against their own
output on transformed inputs, with no outside oracle (Chen et al.,
"Metamorphic testing: a review of challenges and opportunities", ACM
Computing Surveys 51(1), 2018).

Each decomposition is a polynomial in M, fixed by the factorization of
its minimal polynomial m over Q, so it follows the operations that keep
that factorization:

* similarity: every printed part of T M T^-1 is T part T^-1, and every
  printed polynomial is unchanged;
* direct sum: the classes of diag(A, B) are the union of A's and B's,
  in their order and with the larger multiplicity; each part is
  diag(part_A, part_B), with a zero block where a class is missing; m
  is lcm(m_A, m_B), and the witnesses s and n agree with A's modulo m_A
  and with B's modulo m_B;
* shift: M + c I has the factors f_i(X - c), the same N and N_i, the
  semisimple part S + c I, and S_i + c P_i for projectors P_i that sum
  to I.

The relations compare the printed payloads of `mindec sn` and
`mindec fine` on two or three inputs, so they reach the n = 32 ladder
matrix that the sympy tests cannot.  A factorization that merges two
factors, and a minimal polynomial with a spurious factor, each break
a relation, although `sn --check` passes both (TestConstructionMutants).
"""

import json
import random

import pytest

from mindec import decompose
from mindec.factor import FactoredMinPoly
from mindec.generator import _unimodular, block_diag, blocks_matrix, random_matrix
from mindec.matrix import DenseMatrix, linear_combination
from mindec.poly import X, poly_lcm
from mindec.selftest import run_cli
from mindec.serialize import (
    MatrixDocument,
    document_to_json,
    matrix_from_json,
    parse_poly_expression,
    poly_from_json,
    poly_to_json,
)

#: rungs of the benchmark's ladder (n = 4, 6, 8, 14, 17) and the n = 32
#: ladder matrix of the CI, whose minimal polynomial has degree 32
LADDER = (
    "X^2-2;(X-3)^2",
    "(X^2-2)^2;X-3;X+1",
    "(X^2-2)^2;(X-3)^3;X+1",
    "(X^2-2)^2;(X-3)^3;X^3-2;X^2+X+1;(X-3)^2",
    "(X^2-2)^3;(X-3)^3;X^3-2;X^2+X+1;X^3-2",
    "(X^2-2)^3;(X-3)^3;(X^3-X-1)^2;X^2+X+1;(X+2)^4;(X^2+3)^2;(X^3-5)^2;X-7",
)

COMMANDS = ("sn", "fine")


def _ladder(spec):
    polys = [parse_poly_expression(b) for b in spec.split(";")]
    return blocks_matrix(polys, "metamorphic").matrix


def _session(k):
    return random_matrix(f"metamorphic:{k}", 6).matrix


def _document(M):
    return json.dumps(document_to_json(MatrixDocument(matrix=M)))


def _run(command, M):
    """The printed payload of `mindec <command>` on M; None when it
    exits nonzero."""
    code, out, _ = run_cli([command], input_text=_document(M))
    return json.loads(out) if code == 0 else None


def _classes(payload):
    """factor -> (multiplicity, S_i, N_i) of a `fine` payload, in its order."""
    return {
        tuple(c["factor"]): (
            c["multiplicity"],
            matrix_from_json(c["semisimple"]),
            matrix_from_json(c["nilpotent"]),
        )
        for c in payload["components"]
    }


def similar(command, M, seed):
    """The printed output of T M T^-1 is that of M, conjugated."""
    T, T_inv = _unimodular(M.n, random.Random(seed))
    p, q = _run(command, M), _run(command, T @ M @ T_inv)
    if p is None or q is None:
        return False

    def conjugated(before, after):
        return matrix_from_json(after) == T @ matrix_from_json(before) @ T_inv

    if command == "sn":
        return all(p[k] == q[k] for k in ("s_poly", "n_poly", "min_poly")) and all(
            conjugated(p[k], q[k]) for k in ("semisimple", "nilpotent")
        )
    pc, qc = p["components"], q["components"]
    return (p["zero_index"], len(pc)) == (q["zero_index"], len(qc)) and all(
        (a["factor"], a["multiplicity"]) == (b["factor"], b["multiplicity"])
        and conjugated(a["semisimple"], b["semisimple"])
        and conjugated(a["nilpotent"], b["nilpotent"])
        for a, b in zip(pc, qc)
    )


def direct_sum(command, A, B):
    """The printed output of diag(A, B) is assembled from A's and B's."""
    pa, pb, pd = _run(command, A), _run(command, B), _run(command, block_diag([A, B]))
    if None in (pa, pb, pd):
        return False
    if command == "sn":
        m_a, m_b = poly_from_json(pa["min_poly"]), poly_from_json(pb["min_poly"])
        return (
            poly_from_json(pd["min_poly"]) == poly_lcm(m_a, m_b)
            and all(
                ((poly_from_json(pd[k]) - poly_from_json(p[k])) % m).is_zero
                for k in ("s_poly", "n_poly")
                for p, m in ((pa, m_a), (pb, m_b))
            )
            and all(
                matrix_from_json(pd[k])
                == block_diag([matrix_from_json(pa[k]), matrix_from_json(pb[k])])
                for k in ("semisimple", "nilpotent")
            )
        )
    ca, cb, cd = _classes(pa), _classes(pb), _classes(pd)
    if set(cd) != set(ca) | set(cb):
        return False
    if [f for f in cd if f in ca] != list(ca) or [f for f in cd if f in cb] != list(cb):
        return False
    missing_a = (0, DenseMatrix.zeros(A.n), DenseMatrix.zeros(A.n))
    missing_b = (0, DenseMatrix.zeros(B.n), DenseMatrix.zeros(B.n))
    for f, (mult, S, N) in cd.items():
        mult_a, S_a, N_a = ca.get(f, missing_a)
        mult_b, S_b, N_b = cb.get(f, missing_b)
        expected = (max(mult_a, mult_b), block_diag([S_a, S_b]), block_diag([N_a, N_b]))
        if (mult, S, N) != expected:
            return False
    return True


def shifted(command, M, c):
    """The printed output of M + c I is that of M, shifted by c."""
    p, q = _run(command, M), _run(command, linear_combination(M.n, [(1, M)], c))
    if p is None or q is None:
        return False
    cI = DenseMatrix.scaled_identity(M.n, c)

    def shift(coeffs):
        return poly_from_json(coeffs)(X - c)

    if command == "sn":
        return (
            poly_from_json(q["min_poly"]) == shift(p["min_poly"])
            and poly_from_json(q["s_poly"]) == shift(p["s_poly"]) + c
            and poly_from_json(q["n_poly"]) == shift(p["n_poly"])
            and matrix_from_json(q["semisimple"]) == matrix_from_json(p["semisimple"]) + cI
            and q["nilpotent"] == p["nilpotent"]
        )
    cp, cq = _classes(p), _classes(q)
    moved = {tuple(poly_to_json(shift(list(f)))): f for f in cp}
    if set(moved) != set(cq):
        return False
    parts = []
    for g, (mult, S, N) in cq.items():
        mult_p, S_p, N_p = cp[moved[g]]
        part = S - S_p  # c P_i
        if (mult, N) != (mult_p, N_p) or part @ part != part * c:
            return False
        parts.append(part)
    return linear_combination(M.n, [(1, part) for part in parts]) == cI


# -- honest inputs ----------------------------------------------------


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("spec", LADDER, ids=[f"ladder{k}" for k in range(len(LADDER))])
def test_ladder_similarity(command, spec):
    assert similar(command, _ladder(spec), seed=len(spec))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("k", range(6))
def test_session_similarity(command, k):
    assert similar(command, _session(k), seed=k)


DIRECT_SUMS = (
    # shared factors X^2 - 2 and X - 3 at different multiplicities
    (LADDER[0], LADDER[1]),
    (LADDER[2], LADDER[3]),
    # n = 14 + 17
    (LADDER[3], LADDER[4]),
)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("specs", DIRECT_SUMS, ids=["4+6", "8+14", "14+17"])
def test_ladder_direct_sum(command, specs):
    assert direct_sum(command, _ladder(specs[0]), _ladder(specs[1]))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("k", range(4))
def test_session_direct_sum(command, k):
    assert direct_sum(command, _session(2 * k), _session(2 * k + 1))


SHIFTED = {
    "ladder8": lambda: _ladder(LADDER[2]),
    "session0": lambda: _session(0),
    "session1": lambda: _session(1),
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", SHIFTED)
def test_shift(command, name):
    M = SHIFTED[name]()
    assert shifted(command, M, 2) and shifted(command, M, -3)


# -- construction mutants ---------------------------------------------


A = DenseMatrix([[1, 0], [0, 2]])
B = DenseMatrix([[3, 1], [0, 3]])  # J_2(3)


def _relations():
    """Name and value of every relation on A = diag(1, 2) = [1] + [2]
    and B = J_2(3)."""
    one, two = DenseMatrix([[1]]), DenseMatrix([[2]])
    out = {}
    for command in COMMANDS:
        out[f"{command} similarity diag(A, B)"] = similar(command, block_diag([A, B]), 0)
        out[f"{command} direct sum A + B"] = direct_sum(command, A, B)
        out[f"{command} direct sum [1] + [2]"] = direct_sum(command, one, two)
        out[f"{command} shift A"] = shifted(command, A, 2)
        out[f"{command} shift B"] = shifted(command, B, 2)
    return out


class TestConstructionMutants:
    """Patched into decompose with the memo cleared, each mutant breaks
    at least one relation, where `sn --check` passes it."""

    def test_honest_code_keeps_every_relation(self):
        relations = _relations()
        assert all(relations.values()), relations

    def test_a_merged_factor_breaks_a_relation(self, monkeypatch):
        # factor_rational returns (X - 1)(X - 2) as one factor
        honest = decompose.factor_rational
        pair = [(X - 1, 1), (X - 2, 1)]

        def merged(p):
            factors = list(honest(p).factors)
            if all(f in factors for f in pair):
                factors = [((X - 1) * (X - 2), 1)] + [f for f in factors if f not in pair]
            return FactoredMinPoly(tuple(factors))

        monkeypatch.setattr(decompose, "factor_rational", merged)
        decompose._system_of_min_poly.cache_clear()
        assert run_cli(["sn", "--check"], _document(A))[0] == 0
        broken = {name for name, holds in _relations().items() if not holds}
        assert {"fine direct sum [1] + [2]", "fine shift A"} <= broken, broken

    def test_a_spurious_factor_breaks_a_relation(self, monkeypatch):
        # minimal_polynomial returns m (X - 5)
        honest = decompose.minimal_polynomial
        monkeypatch.setattr(decompose, "minimal_polynomial", lambda M: honest(M) * (X - 5))
        decompose._system_of_min_poly.cache_clear()
        assert run_cli(["sn", "--check"], _document(A))[0] == 0
        # a factor X - 5 added to every m is consistent under similarity
        # and direct sums (lcm keeps one copy); the shift moves the true
        # roots but not 5
        broken = {name for name, holds in _relations().items() if not holds}
        assert {"sn shift A", "fine shift B"} <= broken, broken
