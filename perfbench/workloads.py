"""Seeded request lists for the three workloads.

Every request is one ``mindec <cmd> --check`` call with a generated
matrix document as its input.  A list is made of units; unit k depends
only on the workload, the seed and k, so a longer list extends a
shorter one.  Requests on one matrix stay adjacent, in the order a user
would send them.

mindec is imported inside the unit functions, so that each call uses the
modules that are currently imported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple


@dataclass(frozen=True)
class Request:
    unit: int
    argv: Tuple[str, ...]
    text: str
    #: order of the input matrix
    n: int


#: companion blocks of each ladder rung; the minimal-polynomial degree
#: stays <= 16 (the default factorization cap), the larger orders come
#: from repeated blocks and are derogatory
LADDER_RUNGS = (
    "X^2-2;(X-3)^2",  # n=4, degree 4
    "(X^2-2)^2;X-3;X+1",  # n=6, degree 6
    "(X^2-2)^2;(X-3)^3;X+1",  # n=8, degree 8
    "(X^2-2)^2;(X-3)^3;X^3-2",  # n=10, degree 10
    "(X^2-2)^2;(X-3)^3;X^3-2;X^2-2",  # n=12, degree 10
    "(X^2-2)^2;(X-3)^3;X^3-2;X^2+X+1;(X-3)^2",  # n=14, degree 12
    "(X^2-2)^3;(X-3)^3;X^3-2;X^2+X+1;X^3-2",  # n=17, degree 14
)

#: rungs served only by the traced run, for the stage split near n=25
LADDER_TRACE_RUNGS = (
    "(X^2-2)^3;(X-3)^3;X^3-2;X^2+X+1;X^3-2;(X-3)^3",  # n=20, degree 14
    "(X^2-2)^3;(X-3)^3;X^3-2;X^2+X+1;X^3-2;(X-3)^3;(X^2-2)^2",  # n=24, degree 14
)

#: the fixed low-degree f of the ladder's apply requests: 1 - X + 2X^3
LADDER_POLY = "1,-1,0,2"


def _document(gm, seed: str) -> str:
    from mindec.serialize import MatrixDocument, document_to_json

    doc = MatrixDocument(matrix=gm.matrix, label=gm.label, seed=seed, min_poly=gm.min_poly)
    return json.dumps(document_to_json(doc), indent=2) + "\n"


def _poly_arg(p) -> str:
    # "--poly=" keeps a leading minus sign from being read as an option
    return "--poly=" + (",".join(str(c) for c in p.coeffs) or "0")


def ladder_unit(seed: str, k: int, rungs=LADDER_RUNGS) -> List[Request]:
    """sn, fine and apply at every rung, each on its own conjugation.

    One matrix per request keeps the ladder free of work shared between
    requests (the session workload measures that), and triples the
    matrices per unit: a matrix's cost varies with its conjugation, so
    more matrices make the run-to-run spread smaller.
    """
    from mindec.generator import blocks_matrix
    from mindec.serialize import parse_poly_expression

    out = []
    for spec in rungs:
        polys = [parse_poly_expression(b) for b in spec.split(";")]
        for argv in (("sn", "--check"), ("fine", "--check"), ("apply", "--poly=" + LADDER_POLY, "--check")):
            key = f"ladder:{seed}:{k}:{argv[0]}"
            gm = blocks_matrix(polys, key)
            out.append(Request(k, argv, _document(gm, key), gm.matrix.n))
    return out


def session_unit(seed: str, k: int) -> List[Request]:
    from mindec.generator import random_function_poly, random_matrix

    key = f"session:{seed}:{k}"
    gm = random_matrix(key, 6)
    text = _document(gm, key)
    f = random_function_poly(key, max_degree=10)
    n = gm.matrix.n
    return [
        Request(k, ("sn", "--check"), text, n),
        Request(k, ("fine", "--check"), text, n),
        Request(k, ("covariants", "--check"), text, n),
        Request(k, ("apply", _poly_arg(f), "--check"), text, n),
    ]


def realclosed_unit(seed: str, k: int) -> List[Request]:
    from mindec.generator import random_gram_friendly, random_invertible_quadratic

    key = f"realclosed:{seed}:{k}"
    dsu = random_invertible_quadratic(key, 8)
    gram = random_gram_friendly(key, 8)
    return [
        Request(k, ("cmjc", "--check"), _document(dsu, key), dsu.matrix.n),
        Request(k, ("svd", "--check"), _document(gram, key), gram.matrix.n),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: Callable[[str, int], List[Request]]
    #: seconds one unit took on the reference machine; sizes the list
    unit_seconds: float


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ladder", ladder_unit, 5.0),
        Workload("session", session_unit, 0.1),
        Workload("realclosed", realclosed_unit, 0.115),
    )
}


def unit_count(workload: Workload, seconds: float) -> int:
    """Units in the request list for a run of about ``seconds``."""
    return max(1, round(seconds / workload.unit_seconds))


def build(workload: Workload, seed: str, units: int) -> List[Request]:
    out: List[Request] = []
    for k in range(units):
        out.extend(workload.unit(seed, k))
    return out


def build_traced(workload: Workload, seed: str, units: int) -> List[Request]:
    """The traced run's list; the ladder adds its largest rungs once."""
    out = build(workload, seed, units)
    if workload.name == "ladder":
        out.extend(ladder_unit(seed, units, LADDER_TRACE_RUNGS))
    return out
