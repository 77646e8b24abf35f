"""Progress-index effectiveness: warm completion scans must be >=10x cold.

The scan the index saves: without it, every ``campaign status`` (and
every ``status --watch`` frame) re-reads and re-parses *every* line of
``results.jsonl`` to compute the key→status map, so a 10k-cell grid
pays O(total results) per check.  With the index, a warm check stats
the file, sees nothing appended, and reads zero bytes; appending a
handful of cells costs exactly their bytes.

This benchmark builds a 10k-cell ``results.jsonl``, then measures:

* **cold scan** — a fresh index reading every byte (what the first
  status after the index is deleted pays, and what *every* status would
  pay without the index);
* **warm scan, idle** — a fresh ``ProgressIndex`` that loads the
  persisted ``index/progress.json`` (the ``campaign status`` path) with
  nothing appended since it was saved;
* **warm scan, +10 cells** — the same after ten appended cells;
* **warm scan, held index** — one in-memory index refreshed again (the
  ``status --watch`` frame loop).

Asserts the floor: cold / warm >= 10x (typically it is far higher — a
warm idle scan is a file load plus one stat call).
"""

import json
import shutil
import time

from repro.campaign import CellRecord, ProgressIndex
from repro.perf.harness import measure
from repro.perf.record import PerfRecord, current_git_sha

from conftest import emit, out_dir, perf_store  # noqa: F401 - fixtures

N_TOTAL = 10_000


def _record(i: int) -> CellRecord:
    return CellRecord(
        key=f"{i:016x}",
        config={"days": 365.0, "mechanism": "CUA&SPAA", "seed": i},
        status="ok",
        summary={"avg_turnaround_h": 12.5 + i % 7,
                 "system_utilization": 0.84},
        elapsed_s=30.0,
    )


def _build_store(directory) -> None:
    directory.mkdir(parents=True)
    with (directory / "results.jsonl").open("w", encoding="utf-8") as fh:
        for i in range(N_TOTAL):
            fh.write(_record(i).to_json() + "\n")


def _best_of(n, fn):
    """min-of-n wall clock via the shared perf harness."""
    return measure(fn, warmup=0, repeat=n).wall_time_s


def test_progress_index_warm_scan_speedup(emit, perf_store):  # noqa: F811
    directory = out_dir() / "progress_index"
    shutil.rmtree(directory, ignore_errors=True)
    _build_store(directory)

    # cold: fresh in-memory state AND no persisted index file
    def cold_scan():
        index = ProgressIndex(directory, name="bench-cold", autosave=False)
        index.refresh()
        assert len(index.keys()) == N_TOTAL

    cold_s = _best_of(3, cold_scan)

    # the persisted index every later `campaign status` process loads
    ProgressIndex(directory).refresh()

    def warm_idle():
        index = ProgressIndex(directory)  # loads index/progress.json
        index.refresh()
        assert len(index.keys()) == N_TOTAL

    warm_idle_s = _best_of(5, warm_idle)

    appended = {"n": 0}

    def warm_append():
        base = N_TOTAL + appended["n"]
        with (directory / "results.jsonl").open(
            "a", encoding="utf-8"
        ) as fh:
            for i in range(base, base + 10):
                fh.write(_record(i).to_json() + "\n")
        appended["n"] += 10
        index = ProgressIndex(directory)
        index.refresh()
        assert len(index.keys()) == base + 10

    warm_append_s = _best_of(5, warm_append)

    # the `status --watch` loop holds its index in memory across
    # frames — no reload of the persisted file at all
    held = ProgressIndex(directory)
    held.refresh()

    def warm_held():
        held.refresh()
        assert len(held.keys()) == N_TOTAL + appended["n"]

    warm_held_s = _best_of(5, warm_held)

    speedup_idle = cold_s / warm_idle_s
    speedup_append = cold_s / warm_append_s
    speedup_held = cold_s / warm_held_s
    perf_store.append(
        PerfRecord(
            scenario="progress_index",
            params={"n_cells": N_TOTAL},
            metrics={
                "wall_time_s": cold_s,
                "warm_idle_s": warm_idle_s,
                "warm_append_s": warm_append_s,
                "warm_held_s": warm_held_s,
                "cells_per_s": N_TOTAL / cold_s,
            },
            git_sha=current_git_sha(),
            recorded_unix=time.time(),
        )
    )
    emit(
        "bench_progress_index",
        "\n".join(
            [
                f"progress index scan, {N_TOTAL} cells in results.jsonl:",
                f"  cold full scan        {cold_s * 1e3:9.2f} ms",
                f"  warm scan, idle       {warm_idle_s * 1e3:9.2f} ms  "
                f"({speedup_idle:.0f}x)",
                f"  warm scan, +10 cells  {warm_append_s * 1e3:9.2f} ms  "
                f"({speedup_append:.0f}x)",
                f"  warm scan, held index {warm_held_s * 1e3:9.2f} ms  "
                f"({speedup_held:.0f}x)",
            ]
        ),
    )
    assert speedup_idle >= 10.0, (cold_s, warm_idle_s)
    assert speedup_append >= 10.0, (cold_s, warm_append_s)
    assert speedup_held >= 10.0, (cold_s, warm_held_s)


def test_index_agrees_with_full_scan(emit):  # noqa: F811
    """The speedup is only meaningful if warm and cold scans agree."""
    directory = out_dir() / "progress_index"
    if not directory.exists():  # bench files can run standalone
        _build_store(directory)
    cold = ProgressIndex(directory, name="bench-verify", autosave=False)
    cold.refresh()
    warm = ProgressIndex(directory)
    warm.refresh()
    assert cold.keys() == warm.keys()
    index_file = directory / "index" / "progress.json"
    data = json.loads(index_file.read_text("utf-8"))
    assert set(data["files"]) == {"results.jsonl"}
    emit(
        "bench_progress_index_verify",
        f"warm/cold key sets agree on {len(cold.keys())} cells; "
        f"index tracks {len(data['files'])} files",
    )
