"""Spans recorded from outside the library.

``Tracer.install`` replaces each listed mindec function with a wrapper,
on every binding of that function across the ``mindec.*`` module
namespaces, and replaces the listed class methods on their classes.
Each call becomes a span (name, start, end, parent, request id) kept in
flat arrays in memory; ``summarize`` turns them into per-span self
times and per-layer aggregates when the run ends.

Self time of a span is its duration minus the part of its interval
that its child spans cover.  Calls of a function that delegates to a
binding with the same span name (``nf_invert`` -> ``inverse``) or that
recurses count once.
"""

from __future__ import annotations

import functools
import sys
from array import array
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

#: span name -> (module, attribute or Class.method) bindings it covers
LAYER_TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "matrix.minimal_polynomial": (("mindec.matrix", "minimal_polynomial"),),
    "matrix.horner_eval": (("mindec.matrix", "horner_eval"),),
    "matrix.matmul": (("mindec.matrix", "DenseMatrix.__matmul__"),),
    "matrix.inverse": (("mindec.matrix", "inverse"),),
    "kernel.mat_mul": (("mindec._kernel", "mat_mul"),),
    "kernel.rref": (("mindec._kernel", "rref"),),
    "kernel.poly_mul": (("mindec._kernel", "poly_mul"),),
    "kernel.poly_divmod": (("mindec._kernel", "poly_divmod"),),
    "factor.factor_rational": (("mindec.factor", "factor_rational"),),
    "covariant.build_covariant_system": (("mindec.covariant", "build_covariant_system"),),
    "covariant.split_covariants_over_extension": (
        ("mindec.covariant", "split_covariants_over_extension"),
    ),
    "covariant.verify_system": (("mindec.covariant", "verify_system"),),
    "scalar.nf_inverse": (
        ("mindec.scalar", "NumberFieldElement.inverse"),
        ("mindec.scalar", "nf_invert"),
    ),
    "scalar.mq_inverse": (
        ("mindec.scalar", "MultiQuad.inverse"),
        ("mindec.scalar", "mq_invert"),
    ),
    "poly.divmod": (("mindec.poly", "Polynomial.__divmod__"),),
    "poly.ext_gcd": (("mindec.poly", "ext_gcd"),),
    "decompose.sn_decompose": (("mindec.decompose", "sn_decompose"),),
    "decompose.fine_decompose": (("mindec.decompose", "fine_decompose"),),
    "decompose.verify_sn": (("mindec.decompose", "verify_sn"),),
    "decompose.verify_fine": (("mindec.decompose", "verify_fine"),),
    "decompose.sn_newton_oracle": (("mindec.decompose", "sn_newton_oracle"),),
    "matfun.schwerdtfeger_eval": (("mindec.matfun", "schwerdtfeger_eval"),),
    "matfun.verify_matfun": (("mindec.matfun", "verify_matfun"),),
    "matfun.f_equivalence_classes": (("mindec.matfun", "f_equivalence_classes"),),
    "realclosed.complete_mjc": (("mindec.realclosed", "complete_mjc"),),
    "realclosed.svd": (("mindec.realclosed", "svd"),),
    "realclosed.verify_cmjc": (("mindec.realclosed", "verify_cmjc"),),
    "realclosed.verify_svd_system": (("mindec.realclosed", "verify_svd_system"),),
    "serialize": tuple(
        ("mindec.serialize", name)
        for name in (
            "scalar_to_json",
            "scalar_from_json",
            "matrix_to_json",
            "document_to_json",
            "matrix_from_json",
            "document_from_json",
            "poly_to_json",
            "poly_from_json",
            "poly_to_text",
            "parse_poly_expression",
        )
    ),
    "cli.main": (("mindec.cli", "main"),),
}

#: span names whose returned matrices feed ``matrix.max_entry_bits``
MATRIX_RESULTS = ("matrix.horner_eval", "matrix.matmul", "matrix.inverse")

REQUEST = "request"
ENTRY_BITS = "trace.entry_bits"

_STAGE_OPENERS = {
    "matrix.minimal_polynomial": "minpoly",
    "factor.factor_rational": "factor",
    "covariant.build_covariant_system": "covariants",
    "matrix.horner_eval": "eval",
}


def stage_of(name: str):
    """The ladder stage a span opens, or None."""
    if name.split(".")[-1].startswith("verify_"):
        return "verify"
    return _STAGE_OPENERS.get(name)


def _bits(e) -> int:
    if isinstance(e, Fraction):
        return max(e.numerator.bit_length(), e.denominator.bit_length())
    parts = getattr(e, "coordinates", None)  # MultiQuad
    if parts is not None:
        return max((_bits(c) for c in parts.values()), default=0)
    coeffs = getattr(e, "coeffs", None)  # NumberFieldElement
    if coeffs is not None:
        return max((_bits(c) for c in coeffs), default=0)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._request = -1
        self.max_entry_bits = 0
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def serve(self, request_id: int, fn, *args):
        """Call ``fn(*args)`` as request ``request_id`` under a root span."""
        self._request = request_id
        idx = self.open(self._intern(REQUEST))
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self._request = -1

    def _observe(self, matrix) -> None:
        rows = getattr(matrix, "rows", None)
        if rows is None:
            return
        idx = self.open(self._intern(ENTRY_BITS))
        try:
            bits = max((_bits(e) for row in rows for e in row), default=0)
            if bits > self.max_entry_bits:
                self.max_entry_bits = bits
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        observe = name in MATRIX_RESULTS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe:
                tracer._observe(result)
            return result

        return wrapper

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every ``LAYER_TARGETS`` binding in the currently imported
        mindec modules."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "mindec" or key.startswith("mindec."))
        ]
        for name, refs in LAYER_TARGETS.items():
            for modname, qual in refs:
                owner = sys.modules[modname]
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    self._restore.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original))
                    continue
                original = getattr(owner, qual)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]) -> List[float]:
    """Duration of each span minus the union of its children's
    intervals, each clipped to the parent's interval."""
    children: Dict[int, List[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_s = cur_e = None
        for k in sorted(kids, key=lambda k: starts[k]):
            s, e = max(starts[k], lo), min(ends[k], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def _outermost(name_id, parent, picked: Sequence[bool]) -> List[int]:
    """For each span, the index of its outermost ancestor (itself
    included) whose name id is picked, or -1.  Parents precede their
    children in the arrays, so one forward pass suffices."""
    out = [-1] * len(name_id)
    for i, nid in enumerate(name_id):
        p = parent[i]
        if p >= 0 and out[p] >= 0:
            out[i] = out[p]
        elif picked[nid]:
            out[i] = i
    return out


def summarize(tracer: Tracer) -> dict:
    """Aggregate the recorded spans: per span name the calls, self and
    inclusive seconds; the self-time and root-span totals; the seconds
    inside outermost verify_* spans; per request the self seconds by
    ladder stage; and the Horner calls made directly inside
    minimal_polynomial."""
    names = tracer.names
    name_id, parent, request = tracer.name_id, tracer.parent, tracer.request
    start, end = tracer.start, tracer.end
    selfs = self_times(parent, start, end)
    per_name = {n: {"calls": 0, "self_s": 0.0, "incl_s": 0.0} for n in names}
    root_s = 0.0
    horner_in_minpoly = 0
    for i, nid in enumerate(name_id):
        name = names[nid]
        p = parent[i]
        entry = per_name[name]
        entry["self_s"] += selfs[i]
        if p < 0:
            root_s += end[i] - start[i]
        if p < 0 or name_id[p] != nid:
            entry["calls"] += 1
            entry["incl_s"] += end[i] - start[i]
        if (
            name == "matrix.horner_eval"
            and p >= 0
            and names[name_id[p]] == "matrix.minimal_polynomial"
        ):
            horner_in_minpoly += 1
    stages = [stage_of(n) for n in names]
    verify_root = _outermost(name_id, parent, [s == "verify" for s in stages])
    verify_s = sum(end[i] - start[i] for i, r in enumerate(verify_root) if r == i)
    stage_root = _outermost(name_id, parent, [s is not None for s in stages])
    by_request: Dict[int, Dict[str, float]] = {}
    for i, r in enumerate(stage_root):
        stage = stages[name_id[r]] if r >= 0 else "other"
        slot = by_request.setdefault(request[i], {})
        slot[stage] = slot.get(stage, 0.0) + selfs[i]
    return {
        "per_name": per_name,
        "self_total_s": sum(selfs),
        "root_total_s": root_s,
        "verify_s": verify_s,
        "horner_in_minpoly": horner_in_minpoly,
        "stages_by_request": by_request,
        "span_count": len(name_id),
    }
