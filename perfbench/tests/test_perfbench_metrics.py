"""Tail-latency rule and output digests of the request benchmark."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import metrics  # noqa: E402


def test_tail_leaves_ten_requests_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert metrics.tail_rank(100) == 90
    assert metrics.tail_percentile(100) == 90.0
    assert metrics.tail_value(samples) == 90.0
    assert sum(1 for s in samples if s > metrics.tail_value(samples)) == 10


def test_tail_ignores_input_order_and_scales_with_count():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 5  # 25 samples
    assert metrics.tail_rank(25) == 15
    assert metrics.tail_percentile(25) == 60.0
    assert metrics.tail_value(samples) == 3.0
    assert metrics.tail_value(list(range(11))) == 0


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        metrics.tail_rank(10)


def test_digest_ignores_formatting_but_not_content():
    a = '{"b": ["1/2", "3"], "a": {"pass": true}}'
    b = '{\n  "a": {"pass": true},\n  "b": ["1/2", "3"]\n}\n'
    assert metrics.output_digest(a) == metrics.output_digest(b)
    assert metrics.output_digest(a) != metrics.output_digest(a.replace("1/2", "1/3"))


def test_digest_values_are_pinned():
    # a change here invalidates every committed reference digest
    assert metrics.canonical_output('{"b": 1, "a": [2]}') == '{"a":[2],"b":1}'
    assert metrics.output_digest('{"b": 1, "a": [2]}') == (
        "63c9663de90ee828bbda6cd9acf02d0c653986c1ec25aa239920641edc9a1de5"
    )


def test_combined_and_group_digests_follow_order():
    d = ["x", "y", "z"]
    assert metrics.combined_digest(d) == metrics.combined_digest(list(d))
    assert metrics.combined_digest(d) != metrics.combined_digest(d[::-1])
    groups = metrics.group_digests(d, [0, 0, 1])
    assert groups == [metrics.combined_digest(["x", "y"]), metrics.combined_digest(["z"])]
