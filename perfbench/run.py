"""Request-level benchmark for mindec.

Serves a seeded list of ``mindec <cmd> --check`` requests in-process
through ``mindec.selftest.run_cli``: one closed-loop client, one thread.
Run from the root of a source checkout:

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` serves a
shorter list twice, untraced and then traced, and reports the
per-layer metrics.  The last line of stdout is the result object; the
line before it is a report with the recorded environment and the
details behind each number.  See NOTES.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import metrics
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SPANS_DIR = ROOT / "perfbench-out"

DEFAULT_SEED = "0"
DEFAULT_SECONDS = 25
SETUP_REPEATS = 7
#: share of the gated list's units that the traced run serves
TRACE_SHARE = 4
#: hex digits kept of each committed unit digest
UNIT_DIGEST_LEN = 16


def _import_mindec() -> None:
    """Import mindec from scratch: the CLI and `run_cli`, which serves it in-process."""
    for key in [k for k in sys.modules if k == "mindec" or k.startswith("mindec.")]:
        del sys.modules[key]
    importlib.import_module("mindec.cli")
    importlib.import_module("mindec.selftest")


def _fresh_setup(workload, seed: str, build, units: int):
    """Import mindec from scratch and build the request list; returns
    the list and the seconds it took."""
    t0 = perf_counter()
    _import_mindec()
    requests = build(workload, seed, units)
    return requests, perf_counter() - t0


def _serve(requests, tracer=None):
    """Serve every request; returns the wall seconds, the per-request
    seconds and the (exit code, stdout, stderr) triples."""
    from mindec.selftest import run_cli

    gc.collect()
    latencies, results = [], []
    t_start = perf_counter()
    for i, r in enumerate(requests):
        t0 = perf_counter()
        if tracer is None:
            res = run_cli(list(r.argv), r.text)
        else:
            res = tracer.serve(i, run_cli, list(r.argv), r.text)
        latencies.append(perf_counter() - t0)
        results.append(res)
    return perf_counter() - t_start, latencies, results


def _judge(requests, results, committed, checked_units):
    """Per-request digests and failure reasons.  A request fails on a
    nonzero exit code, unparsable output, a failing --check report, or
    a unit digest that differs from the committed one."""
    digests, reasons = [], {}
    for i, (code, out, err) in enumerate(results):
        try:
            digests.append(metrics.output_digest(out))
            payload = json.loads(out)
        except json.JSONDecodeError:
            digests.append("")
            reasons[i] = f"exit {code}, no JSON output: {err.strip()[:200]}"
            continue
        if code != 0:
            reasons[i] = f"exit {code}: {err.strip()[:200]}"
        elif payload.get("report", {}).get("pass") is not True:
            reasons[i] = "--check report did not pass"
    units = [r.unit for r in requests]
    unit_digests = [d[:UNIT_DIGEST_LEN] for d in metrics.group_digests(digests, units)]
    for k in range(min(checked_units, len(committed), len(unit_digests))):
        if unit_digests[k] != committed[k]:
            for i, u in enumerate(units):
                if u == k:
                    reasons.setdefault(i, f"unit {k} digest differs from the committed one")
    return digests, unit_digests, reasons


def _committed(workload: str, seed: str):
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return []
    data = json.loads(DIGESTS.read_text())
    return data.get(workload, {}).get("units", [])


def _record_digests(workload: str, seed: str, digest: str, unit_digests) -> None:
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    data[workload] = {"seed": seed, "digest": digest, "units": unit_digests}
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _commit_id():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mindec").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _environment(args, units, requests):
    from mindec import _kernel

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _commit_id(),
        "source_sha256": _source_digest(),
        "kernel_backend": _kernel.BACKEND,
        "MINDEC_KERNEL": os.environ.get("MINDEC_KERNEL"),
        "MINDEC_DEGREE_CAP": os.environ.get("MINDEC_DEGREE_CAP"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": units,
        "requests": len(requests),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(wall, latencies, setups):
    return {
        "wall_s": _metric(wall, "s"),
        "req_p50_ms": _metric(1000 * statistics.median(latencies), "ms"),
        "req_tail_ms": _metric(1000 * metrics.tail_value(latencies), "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(summary, requests, wall_traced, wall_untraced, max_entry_bits):
    """Per-layer metrics of one traced serve of ``requests``."""
    per_name = summary["per_name"]

    def calls(name):
        return _metric(per_name.get(name, {}).get("calls", 0), "count")

    def self_s(name):
        return _metric(per_name.get(name, {}).get("self_s", 0.0), "s")

    out = {}
    for name in (
        "matrix.minimal_polynomial",
        "matrix.horner_eval",
        "matrix.matmul",
        "kernel.mat_mul",
        "kernel.poly_divmod",
        "factor.factor_rational",
        "covariant.build_covariant_system",
        "scalar.nf_inverse",
    ):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    minpolys = per_name.get("matrix.minimal_polynomial", {}).get("calls", 0)
    out["matrix.horner_per_minpoly"] = _metric(
        summary["horner_in_minpoly"] / minpolys if minpolys else 0.0, "ratio"
    )
    out["matrix.inverse.self_s"] = self_s("matrix.inverse")
    out["matrix.max_entry_bits"] = _metric(max_entry_bits, "bits")
    out["kernel.rref.calls"] = calls("kernel.rref")
    out["kernel.poly_mul.calls"] = calls("kernel.poly_mul")
    builds = per_name.get("covariant.build_covariant_system", {}).get("calls", 0)
    out["covariant.builds_per_req"] = _metric(builds / len(requests), "1/req")
    out["covariant.split_covariants_over_extension.self_s"] = self_s(
        "covariant.split_covariants_over_extension"
    )
    out["scalar.mq_inverse.calls"] = calls("scalar.mq_inverse")
    out["poly.divmod.calls"] = calls("poly.divmod")
    out["poly.ext_gcd.self_s"] = self_s("poly.ext_gcd")
    for name in (
        "decompose.sn_decompose",
        "decompose.fine_decompose",
        "decompose.verify_sn",
        "decompose.verify_fine",
        "decompose.sn_newton_oracle",
        "matfun.schwerdtfeger_eval",
        "matfun.verify_matfun",
        "matfun.f_equivalence_classes",
        "realclosed.complete_mjc",
        "realclosed.svd",
        "realclosed.verify_cmjc",
        "realclosed.verify_svd_system",
        "serialize",
        "cli.main",
    ):
        out[name + ".self_s"] = self_s(name)
    out["verify.share"] = _metric(summary["verify_s"] / wall_traced, "ratio")
    out["trace.overhead"] = _metric(wall_traced / wall_untraced, "ratio")
    return out


def _trace_details(summary, requests, wall_traced):
    """What the traced run reports beyond its metrics: self time by
    module, the stage split by matrix order, and the accounting check."""
    by_module = {}
    for name, entry in summary["per_name"].items():
        module = "unwrapped" if name == tracing.REQUEST else name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + entry["self_s"]
    outside = wall_traced - summary["root_total_s"]
    by_module["outside_requests"] = outside
    stages_by_n = {}
    for i, stages in summary["stages_by_request"].items():
        if i < 0:
            continue
        slot = stages_by_n.setdefault(str(requests[i].n), {})
        for stage, s in stages.items():
            slot[stage] = slot.get(stage, 0.0) + s
    closes = (
        abs(summary["self_total_s"] - summary["root_total_s"])
        <= 1e-6 * max(summary["root_total_s"], 1e-3)
        and outside >= 0
    )
    return {
        "self_s_by_module": by_module,
        "self_share_by_module": {k: v / wall_traced for k, v in by_module.items()},
        "stages_by_n_s": stages_by_n,
        "accounting": {
            "self_total_s": summary["self_total_s"],
            "root_total_s": summary["root_total_s"],
            "outside_requests_s": outside,
            "traced_wall_s": wall_traced,
            "closes": closes,
        },
        "builds_per_req_base": len(requests),
        "span_count": summary["span_count"],
    }


def _write_spans(tracer, path: Path) -> None:
    """Spans as gzipped CSV after a JSON header line naming the span
    name ids: name id, start, end, parent span index, request index."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write(json.dumps({"names": tracer.names}) + "\n")
        for row in zip(tracer.name_id, tracer.start, tracer.end, tracer.parent, tracer.request):
            fh.write("%d,%.9f,%.9f,%d,%d\n" % row)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help=f"store this run's unit digests as the reference (seed {DEFAULT_SEED} only)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mindec" / "__init__.py").is_file():
        print(f"perfbench: no mindec sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests and (args.seed != DEFAULT_SEED or args.trace):
        print(f"perfbench: --record-digests needs --seed {DEFAULT_SEED} --trace 0", file=sys.stderr)
        return 2
    os.environ["MINDEC_KERNEL"] = "py"
    os.environ.pop("MINDEC_DEGREE_CAP", None)
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    units = workloads.unit_count(workload, args.seconds)
    if args.trace:
        units = max(1, units // TRACE_SHARE)
        build = workloads.build_traced
    else:
        build = workloads.build
    setups, requests = [], None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        built, seconds = _fresh_setup(workload, args.seed, build, units)
        if requests is not None and built != requests:
            print("perfbench: the same seed built different requests", file=sys.stderr)
            return 1
        requests = built
        setups.append(seconds)
    if not args.trace and len(requests) <= metrics.TAIL_BEYOND:
        print(f"perfbench: --seconds {args.seconds} gives too few requests for a tail", file=sys.stderr)
        return 2
    committed = [] if args.record_digests else _committed(args.workload, args.seed)

    wall, latencies, results = _serve(requests)
    digests, unit_digests, reasons = _judge(requests, results, committed, units)
    report = {
        "environment": _environment(args, units, requests),
        "setup_s_samples": setups,
        "digest": metrics.combined_digest(digests),
        "committed_units_checked": min(units, len(committed)),
    }
    if args.trace:
        _import_mindec()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall_traced, _, traced_results = _serve(requests, tracer)
        finally:
            tracer.uninstall()
        traced_digests, _, traced_reasons = _judge(requests, traced_results, committed, units)
        for i, (a, b) in enumerate(zip(digests, traced_digests)):
            if a != b:
                traced_reasons.setdefault(i, "traced output differs from untraced output")
        for i, why in traced_reasons.items():
            reasons.setdefault(i, "traced: " + why)
        summary = tracing.summarize(tracer)
        out_metrics = layer_metrics(summary, requests, wall_traced, wall, tracer.max_entry_bits)
        details = _trace_details(summary, requests, wall_traced)
        spans_path = SPANS_DIR / f"{args.workload}-seed{args.seed}.spans.csv.gz"
        _write_spans(tracer, spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        report["trace"] = details
        correct = not reasons and details["accounting"]["closes"]
    else:
        out_metrics = _end_to_end(wall, latencies, setups)
        correct = not reasons
        report["tail_percentile"] = metrics.tail_percentile(len(requests))
        if args.record_digests:
            _record_digests(args.workload, args.seed, report["digest"], unit_digests)
    report["fail_ratio"] = _metric(len(reasons) / len(requests), "ratio")
    report["failures"] = [
        {"request": i, "argv": list(requests[i].argv), "reason": reasons[i]}
        for i in sorted(reasons)[:20]
    ]
    report["metrics"] = out_metrics
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(requests),
                "failed": len(reasons),
                "metrics": out_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
