"""Self-time accounting and wrapper installation of the benchmark tracer."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tracing  # noqa: E402


def _tracer(spans):
    """A Tracer holding (name, start, end, parent, request) spans."""
    t = tracing.Tracer()
    for name, start, end, parent, request in spans:
        t.name_id.append(t._intern(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.request.append(request)
    return t


def test_self_time_of_nested_and_repeated_spans():
    parents = [-1, 0, 1, 0, 0]
    starts = [0.0, 1.0, 1.5, 4.0, 7.0]
    ends = [10.0, 3.0, 2.5, 6.0, 7.5]
    assert tracing.self_times(parents, starts, ends) == pytest.approx([5.5, 1.0, 1.0, 2.0, 0.5])


def test_self_time_clips_and_merges_child_intervals():
    # children overlapping each other and sticking out of the parent
    parents = [-1, 0, 0, 0]
    starts = [0.0, -1.0, 1.0, 2.0]
    ends = [4.0, 2.0, 3.0, 2.5]
    assert tracing.self_times(parents, starts, ends)[0] == pytest.approx(1.0)


def test_summary_counts_delegation_once_and_closes():
    t = _tracer(
        [
            ("request", 0.0, 10.0, -1, 0),
            ("matrix.minimal_polynomial", 1.0, 5.0, 0, 0),
            ("matrix.horner_eval", 2.0, 3.0, 1, 0),
            ("matrix.horner_eval", 3.0, 4.0, 1, 0),
            ("scalar.nf_inverse", 5.0, 6.0, 0, 0),
            ("scalar.nf_inverse", 5.2, 5.8, 4, 0),
            ("decompose.verify_sn", 6.0, 9.0, 0, 0),
            ("matrix.minimal_polynomial", 6.5, 8.5, 6, 0),
            ("request", 10.0, 11.0, -1, 1),
        ]
    )
    s = tracing.summarize(t)
    per = s["per_name"]
    assert per["matrix.minimal_polynomial"]["calls"] == 2
    assert per["matrix.horner_eval"]["calls"] == 2
    assert per["scalar.nf_inverse"]["calls"] == 1
    assert per["scalar.nf_inverse"]["self_s"] == pytest.approx(1.0)
    assert per["matrix.minimal_polynomial"]["self_s"] == pytest.approx(4.0)
    assert s["horner_in_minpoly"] == 2
    assert s["verify_s"] == pytest.approx(3.0)
    assert s["self_total_s"] == pytest.approx(s["root_total_s"]) == pytest.approx(11.0)
    stages = s["stages_by_request"][0]
    # Horner calls inside minimal_polynomial belong to the minpoly stage
    assert stages["minpoly"] == pytest.approx(4.0)
    assert "eval" not in stages
    assert stages["verify"] == pytest.approx(3.0)
    assert stages["other"] == pytest.approx(3.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    from mindec import decompose, matrix
    from mindec.selftest import run_cli

    doc = '{"entries": [["2", "1", "0"], ["0", "2", "0"], ["0", "0", "0"]]}'
    plain = run_cli(["sn", "--check"], doc)
    originals = (matrix.minimal_polynomial, decompose.minimal_polynomial, matrix.DenseMatrix.__matmul__)
    t = tracing.Tracer()
    t.install()
    try:
        assert decompose.minimal_polynomial is matrix.minimal_polynomial
        assert matrix.minimal_polynomial is not originals[0]
        traced = t.serve(0, run_cli, ["sn", "--check"], doc)
    finally:
        t.uninstall()
    assert (matrix.minimal_polynomial, decompose.minimal_polynomial, matrix.DenseMatrix.__matmul__) == originals
    assert traced == plain and plain[0] == 0
    s = tracing.summarize(t)
    per = s["per_name"]
    assert per["cli.main"]["calls"] == 1
    assert per["decompose.sn_decompose"]["calls"] == 1
    assert per["decompose.verify_sn"]["calls"] == 1
    assert per["matrix.minimal_polynomial"]["calls"] >= 2
    assert per["matrix.matmul"]["calls"] == per["kernel.mat_mul"]["calls"] > 0
    assert s["self_total_s"] == pytest.approx(s["root_total_s"], rel=1e-9)
    assert t.max_entry_bits >= 2
