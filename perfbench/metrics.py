"""Pure helpers for the request benchmark: the tail-latency rule and the
output digest.  Kept free of any mindec import so they can be tested on
their own."""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, List, Sequence

#: requests that must lie beyond the reported tail latency
TAIL_BEYOND = 10


def tail_rank(count: int, beyond: int = TAIL_BEYOND) -> int:
    """1-based rank of the tail sample: the highest rank that still
    leaves ``beyond`` samples above it."""
    if count <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {count}")
    return count - beyond


def tail_percentile(count: int, beyond: int = TAIL_BEYOND) -> float:
    """The percentile that ``tail_rank`` picks, e.g. 90.0 for 100 samples."""
    return 100.0 * tail_rank(count, beyond) / count


def tail_value(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> float:
    """The sample at ``tail_rank`` in ascending order."""
    return sorted(samples)[tail_rank(len(samples), beyond) - 1]


def canonical_output(stdout: str) -> str:
    """A request's stdout JSON re-serialized with sorted keys and no
    whitespace, so that formatting changes do not alter the digest."""
    return json.dumps(json.loads(stdout), sort_keys=True, separators=(",", ":"))


def output_digest(stdout: str) -> str:
    return hashlib.sha256(canonical_output(stdout).encode()).hexdigest()


def combined_digest(digests: Iterable[str]) -> str:
    """One digest over an ordered list of per-request digests."""
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
        h.update(b"\n")
    return h.hexdigest()


def group_digests(digests: Sequence[str], groups: Sequence[int]) -> List[str]:
    """Combined digest per group, where ``groups[i]`` is the group index
    of request i; groups are numbered from 0 without gaps."""
    out: List[List[str]] = []
    for d, g in zip(digests, groups):
        while len(out) <= g:
            out.append([])
        out[g].append(d)
    return [combined_digest(ds) for ds in out]
