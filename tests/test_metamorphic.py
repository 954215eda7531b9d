"""Metamorphic relations: every matrix command checked against its own
output on transformed inputs, with no outside oracle (Chen et al.,
"Metamorphic testing: a review of challenges and opportunities", ACM
Computing Surveys 51(1), 2018).

Each decomposition is a polynomial in M, fixed by the factorization of
its minimal polynomial m over Q, so it follows the operations that keep
that factorization:

* similarity: every printed matrix of T M T^-1 is T part T^-1, and
  everything else printed (polynomials, multiplicities, class images,
  radicands) is unchanged.  `svd` commutes with orthogonal conjugation
  only, so its T is a signed permutation, with T^-1 = T^T;
* direct sum: the classes of diag(A, B) are the union of A's and B's,
  in their order and with the larger multiplicity; each part is
  diag(part_A, part_B), with a zero block where a class is missing; m
  is lcm(m_A, m_B), and the witnesses s and n, and for `covariants`
  each E_i, S_i and N_i, agree with A's modulo m_A and with B's modulo
  m_B.  The terms of `svd` with equal sigma merge the same way, and
  the images of `apply` are the union of A's and B's;
* shift: M + c I has the factors f_i(X - c), the same N and N_i, the
  semisimple part S + c I, and S_i + c P_i for projectors P_i that sum
  to I; `apply f` on M + c I prints what `apply f(X + c)` prints on M;
* composition: the parts of `apply f` are `sn` of its value, and
  `apply g` on f(M) prints what `apply g(f)` prints on M.

The relations compare the printed payloads of the commands on two or
three inputs, so they reach the n = 32 ladder matrix that the sympy
tests cannot.  A factorization that merges two
factors, and a minimal polynomial with a spurious factor, each break
a relation, although `sn --check` passes both (TestConstructionMutants).
"""

import json
import random

import pytest

from mindec import decompose
from mindec.factor import FactoredMinPoly
from mindec.generator import (
    _signed_permutation,
    _unimodular,
    block_diag,
    blocks_matrix,
    random_gram_friendly,
    random_invertible_quadratic,
    random_matrix,
)
from mindec.matrix import DenseMatrix, linear_combination
from mindec.poly import Polynomial, X, poly_lcm
from mindec.selftest import run_cli
from mindec.serialize import (
    MatrixDocument,
    document_to_json,
    matrix_from_json,
    parse_poly_expression,
    poly_from_json,
    poly_to_json,
    poly_to_text,
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


def _run(command, M, *options):
    """The printed payload of `mindec <command> <options>` on M; None
    when it exits nonzero."""
    code, out, _ = run_cli([command, *options], input_text=_document(M))
    return json.loads(out) if code == 0 else None


def _zero(n):
    return {"entries": [["0"] * n for _ in range(n)]}


def _diag(a, b):
    """diag(A, B) read from the printed entries of A and B, so the
    blocks may hold MultiQuad entries."""
    na, nb = len(a["entries"]), len(b["entries"])
    rows = [row + ["0"] * nb for row in a["entries"]]
    rows += [["0"] * na + row for row in b["entries"]]
    return matrix_from_json({"entries": rows})


def _merged(keyed_d, keyed_a, keyed_b):
    """The keys of diag(A, B) are the union of A's and B's, each in its
    own order."""
    return (
        set(keyed_d) == set(keyed_a) | set(keyed_b)
        and [k for k in keyed_d if k in keyed_a] == list(keyed_a)
        and [k for k in keyed_d if k in keyed_b] == list(keyed_b)
    )


def _agree(p, q, part):
    """p and q print the same, but that each matrix X printed in p is
    part(X) in q."""
    if isinstance(p, dict) and "entries" in p:
        return isinstance(q, dict) and matrix_from_json(q) == part(matrix_from_json(p))
    if isinstance(p, dict):
        return (
            isinstance(q, dict)
            and p.keys() == q.keys()
            and all(_agree(p[k], q[k], part) for k in p)
        )
    if isinstance(p, list):
        return (
            isinstance(q, list)
            and len(p) == len(q)
            and all(_agree(a, b, part) for a, b in zip(p, q))
        )
    return p == q


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


def similar(command, M, seed, *options):
    """The printed output of T M T^-1 is that of M, conjugated."""
    rng = random.Random(seed)
    if command == "svd":
        T = _signed_permutation(M.n, rng)
        T_inv = T.transpose()
    else:
        T, T_inv = _unimodular(M.n, rng)
    p, q = _run(command, M, *options), _run(command, T @ M @ T_inv, *options)
    return None not in (p, q) and _agree(p, q, lambda part: T @ part @ T_inv)


def _sn_sum(pa, pb, pd, na, nb):
    m_a, m_b = poly_from_json(pa["min_poly"]), poly_from_json(pb["min_poly"])
    return (
        poly_from_json(pd["min_poly"]) == poly_lcm(m_a, m_b)
        and all(
            ((poly_from_json(pd[k]) - poly_from_json(p[k])) % m).is_zero
            for k in ("s_poly", "n_poly")
            for p, m in ((pa, m_a), (pb, m_b))
        )
        and _blockwise("semisimple", "nilpotent")(pa, pb, pd, na, nb)
    )


def _fine_sum(pa, pb, pd, na, nb):
    ca, cb, cd = _classes(pa), _classes(pb), _classes(pd)
    if not _merged(cd, ca, cb):
        return False
    missing_a = (0, DenseMatrix.zeros(na), DenseMatrix.zeros(na))
    missing_b = (0, DenseMatrix.zeros(nb), DenseMatrix.zeros(nb))
    for f, (mult, S, N) in cd.items():
        mult_a, S_a, N_a = ca.get(f, missing_a)
        mult_b, S_b, N_b = cb.get(f, missing_b)
        expected = (max(mult_a, mult_b), block_diag([S_a, S_b]), block_diag([N_a, N_b]))
        if (mult, S, N) != expected:
            return False
    return True


def _covariants_sum(pa, pb, pd, na, nb):
    m_a, m_b = poly_from_json(pa["min_poly"]), poly_from_json(pb["min_poly"])
    fa, fb, fd = ({tuple(c["factor"]): c for c in p["factors"]} for p in (pa, pb, pd))
    if poly_from_json(pd["min_poly"]) != poly_lcm(m_a, m_b) or not _merged(fd, fa, fb):
        return False
    for f, c in fd.items():
        a, b = fa.get(f), fb.get(f)
        if c["multiplicity"] != max(x["multiplicity"] if x else 0 for x in (a, b)):
            return False
        projector = _diag(a["projector"] if a else _zero(na), b["projector"] if b else _zero(nb))
        if matrix_from_json(c["projector"]) != projector:
            return False
        for k in ("e_poly", "s_poly", "n_poly"):
            for x, m in ((a, m_a), (b, m_b)):
                own = poly_from_json(x[k]) if x else Polynomial()
                if not ((poly_from_json(c[k]) - own) % m).is_zero:
                    return False
    return True


def _nonzero(docs):
    return [M for M in map(matrix_from_json, docs) if not M.is_zero]


def _unbreakable_sum(pa, pb, pd, na, nb):
    # each component of diag(A, B) is a nonzero diag(C_A, C_B), C_A one
    # of A's components or 0 and C_B one of B's or 0; in order, the
    # nonzero C_A are A's components and the nonzero C_B are B's
    tops, bottoms = [], []
    for c in pd["components"]:
        tops.append({"entries": [row[:na] for row in c["entries"][:na]]})
        bottoms.append({"entries": [row[na:] for row in c["entries"][na:]]})
        component = matrix_from_json(c)
        if component.is_zero or component != _diag(tops[-1], bottoms[-1]):
            return False
    return _nonzero(tops) == _nonzero(pa["components"]) and _nonzero(bottoms) == _nonzero(
        pb["components"]
    )


def _blockwise(*keys):
    """Each printed matrix named in keys is diag(A's, B's)."""

    def assembled(pa, pb, pd, na, nb):
        return all(matrix_from_json(pd[k]) == _diag(pa[k], pb[k]) for k in keys)

    return assembled


def _radicands(pa, pb, pd):
    return pd["radicands"] == sorted(set(pa["radicands"]) | set(pb["radicands"]))


def _cmjc_sum(pa, pb, pd, na, nb):
    parts = _blockwise("delta", "sigma", "unipotent")
    return parts(pa, pb, pd, na, nb) and _radicands(pa, pb, pd)


def _svd_sum(pa, pb, pd, na, nb):
    ta, tb, td = (
        {json.dumps(t["sigma"], sort_keys=True): t["matrix"] for t in p["terms"]}
        for p in (pa, pb, pd)
    )
    return (
        _merged(td, ta, tb)
        and all(
            matrix_from_json(m) == _diag(ta.get(s, _zero(na)), tb.get(s, _zero(nb)))
            for s, m in td.items()
        )
        and _radicands(pa, pb, pd)
    )


def _apply_sum(pa, pb, pd, na, nb):
    parts = _blockwise("value", "semisimple", "nilpotent")
    images = [[tuple(c["image"]) for c in p["classes"]] for p in (pd, pa, pb)]
    return parts(pa, pb, pd, na, nb) and _merged(*images)


#: command -> how its output on diag(A, B) is assembled from A's and B's
ASSEMBLED = {
    "sn": _sn_sum,
    "fine": _fine_sum,
    "covariants": _covariants_sum,
    "unbreakable": _unbreakable_sum,
    "mjc": _blockwise("semisimple", "unipotent"),
    "cmjc": _cmjc_sum,
    "svd": _svd_sum,
    "apply": _apply_sum,
}


def direct_sum(command, A, B, *options):
    """The printed output of diag(A, B) is assembled from A's and B's."""
    pa, pb = _run(command, A, *options), _run(command, B, *options)
    pd = _run(command, block_diag([A, B]), *options)
    return None not in (pa, pb, pd) and ASSEMBLED[command](pa, pb, pd, A.n, B.n)


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


def _images(payload):
    """image -> number of factors of an `apply` payload's classes."""
    return {tuple(c["image"]): len(c["indices"]) for c in payload["classes"]}


def apply_shifted(M, f, c):
    """`apply f` on M + c I prints what `apply f(X + c)` prints on M, but
    for the factor indices of each class: the factors of M + c I are
    those of M shifted, in an order of their own."""
    g = poly_to_text(parse_poly_expression(f)(X + c))
    p = _run("apply", linear_combination(M.n, [(1, M)], c), "--poly", f)
    q = _run("apply", M, "--poly", g)
    return (
        None not in (p, q)
        and all(p[k] == q[k] for k in ("value", "semisimple", "nilpotent"))
        and list(_images(p).items()) == list(_images(q).items())
    )


def composed(M, f, g):
    """The parts of `apply f` are `sn` of its value, and `apply g` on f(M)
    prints what `apply g(f)` prints on M, but for the factor indices."""
    p = _run("apply", M, "--poly", f)
    if p is None:
        return False
    value = matrix_from_json(p["value"])
    gf = poly_to_text(parse_poly_expression(g)(parse_poly_expression(f)))
    s, q, r = _run("sn", value), _run("apply", value, "--poly", g), _run("apply", M, "--poly", gf)
    return (
        None not in (s, q, r)
        and (s["semisimple"], s["nilpotent"]) == (p["semisimple"], p["nilpotent"])
        and all(q[k] == r[k] for k in ("value", "semisimple", "nilpotent"))
        and list(_images(q)) == list(_images(r))
    )


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


# -- the other matrix commands ----------------------------------------

#: squarefree block lists, for the semisimple inputs `unbreakable` takes
SQUAREFREE = (
    "X^2-2;X-3;X^2+1;X",
    "X^2-2;X^2-2;X-1",
    "X^3-2;X^2+X+1;X-3;X-3;X^2-2",
    "X-1;X+1;X^2+X+1",
)

#: session inputs; the pairs (1, 3) and (6, 2) share a factor at
#: different multiplicities
SHARED = (1, 3, 6, 2)

#: command -> (options, the k-th input, one the command accepts); the
#: direct sums pair inputs 0 and 1, and 2 and 3, each pair with a
#: shared factor, singular value or class image
OTHERS = {
    "covariants": ((), lambda k: _session(SHARED[k])),
    "unbreakable": ((), lambda k: _ladder(SQUAREFREE[k])),
    # the ladder has no factor X, so its matrices are nonsingular
    "mjc": ((), lambda k: _ladder(LADDER[k])),
    "cmjc": ((), lambda k: random_invertible_quadratic(f"metamorphic:{k}").matrix),
    "svd": ((), lambda k: random_gram_friendly(f"metamorphic:{k}").matrix),
    "apply": (("--poly", "X^3-2*X+1"), lambda k: _session(SHARED[k])),
}


@pytest.mark.parametrize("command", OTHERS)
@pytest.mark.parametrize("k", range(4))
def test_similarity(command, k):
    options, make = OTHERS[command]
    assert similar(command, make(k), k, *options)


@pytest.mark.parametrize("command", OTHERS)
@pytest.mark.parametrize("k", (0, 2), ids=["0+1", "2+3"])
def test_direct_sum(command, k):
    options, make = OTHERS[command]
    assert direct_sum(command, make(k), make(k + 1), *options)


@pytest.mark.parametrize("f", ("X^2", "X^3-2*X+1"))
@pytest.mark.parametrize("name", SHIFTED)
def test_apply_shift(name, f):
    M = SHIFTED[name]()
    assert apply_shifted(M, f, 2) and apply_shifted(M, f, -3)


@pytest.mark.parametrize("f,g", (("X^2", "X^2-X"), ("X^3-2*X+1", "X^2")))
@pytest.mark.parametrize("name", SHIFTED)
def test_apply_composition(name, f, g):
    assert composed(SHIFTED[name](), f, g)


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
