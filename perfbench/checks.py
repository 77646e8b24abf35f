"""Output checks and statistics shared by the benchmark workloads.

Correctness is counted per operation (a simulated cell, a CLI read
command): an operation that raised, returned an error record, or whose
output digest disagrees with the expected one counts as failed.  The
expected digest comes from ``reference.json`` when the seed has a
recorded reference, and otherwise from the first pass of the same run
(every later pass must reproduce it byte for byte).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

#: percentiles considered for a latency tail, highest last
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digest_json(value: object) -> str:
    """Digest of a JSON-shaped value, independent of key order."""
    text = json.dumps(value, sort_keys=True, allow_nan=False,
                      separators=(",", ":"))
    return digest_bytes(text.encode("utf-8"))


def summary_digest(summary) -> str:
    """Digest of a cell summary's ``replan_invariant_view``.

    The view drops wall-clock fields and the replan-mode pass counters,
    so it is identical across machines, processes and runs of one cell.
    """
    from repro.metrics.summary import replan_invariant_view

    return digest_json(replan_invariant_view(summary))


def tail_percentile(n_samples: int) -> Optional[float]:
    """Highest ladder percentile with >= ``MIN_BEYOND`` samples beyond it."""
    best = None
    for p in PERCENTILE_LADDER:
        if round(n_samples * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of *values* (``0 < p <= 100``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(values: Sequence[float]) -> Dict[str, object]:
    """Median plus the tail percentile the sample count supports."""
    n = len(values)
    out: Dict[str, object] = {"n": n, "p50": None, "tail_pct": None,
                              "tail": None}
    if tail_percentile(n) is None:
        return out
    out["p50"] = percentile(values, 50.0)
    out["tail_pct"] = tail_percentile(n)
    out["tail"] = percentile(values, out["tail_pct"])
    return out


def load_reference(path: str = REFERENCE_PATH) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def expected_digests(reference: Mapping, workload: str,
                     seed: int) -> Optional[Dict[str, str]]:
    """The recorded ``{operation id: digest}`` map for a seed, if any."""
    return reference.get(workload, {}).get(str(seed))


class Tally:
    """Attempted/failed operation counts plus the first few failures."""

    def __init__(self, expected: Optional[Mapping[str, str]] = None) -> None:
        self.expected = dict(expected) if expected is not None else None
        self.seen: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, op_id: str, digest: Optional[str],
              error: Optional[str] = None) -> bool:
        """Count one operation; ``digest=None`` or *error* fails it."""
        self.attempted += 1
        problem = None
        if error is not None or digest is None:
            last = (error or "no output").strip().splitlines()[-1]
            problem = f"{op_id}: error: {last}"
        else:
            if self.expected is not None:
                want = self.expected.get(op_id)
            else:
                want = self.seen.get(op_id)
            self.seen.setdefault(op_id, digest)
            if want is not None and want != digest:
                problem = f"{op_id}: digest {digest} != expected {want}"
            elif want is None and self.expected is not None:
                problem = f"{op_id}: no reference digest recorded"
        return self._count(problem)

    def check_repeat(self, op_id: str, digest: Optional[str],
                     error: Optional[str] = None) -> bool:
        """Count a recomputation of an operation already checked in this
        run; it must reproduce that operation's digest."""
        self.attempted += 1
        want = self.seen.get(op_id)
        problem = None
        if error is not None or digest != want:
            got = (error or "").strip().splitlines()[-1:] or [digest]
            problem = f"{op_id} recomputed: {got[0]} != {want}"
        return self._count(problem)

    def _count(self, problem: Optional[str]) -> bool:
        if problem is None:
            return True
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem[:300])
        return False

    def check_all(self, items: Iterable[Tuple[str, Optional[str],
                                              Optional[str]]]) -> None:
        for op_id, digest, error in items:
            self.check(op_id, digest, error)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0
