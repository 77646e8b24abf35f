"""Campaign cell throughput: streamed cells off the shared trace cache.

The streaming campaign pipeline (generator-backed cells, the process-
wide :class:`~repro.workload.trace_cache.TraceCache` and trace-affine
execution order) exists to make
many-small-cell grids cheap: every cell of a mechanism x checkpoint
sweep shares one generated ``(spec, seed)`` trace.  This benchmark runs
the ``campaign_throughput`` scenario — a fig6/fig7-shaped grid of
baseline + six mechanisms crossed with three checkpoint multipliers,
21 cells per generated trace — and asserts:

* **exact trace reuse** on the 2016-cell grid: the trace cache misses
  once per distinct ``(spec, seed)`` trace (96) and hits on every other
  cell (1920) — a machine-independent count, so a regression in the
  cache or in trace-affine ordering fails it deterministically;
* **an absolute cells/min floor** (serial, best of 3 reps), recorded in
  the session perf store with the measurement;
* **per-worker memory independent of per-cell trace length**: one
  streamed 100k-job cell routed through
  :func:`~repro.experiments.runner.run_one` stays under the same
  64 MiB absolute tracemalloc ceiling the simulator-core streaming
  benches assert.

``REPRO_BENCH_CAMPAIGN_CELLS`` scales the grid (default 2016 cells,
~2 s per rep).  Timings land in the session
:class:`~repro.perf.store.PerfStore` under the same scenario hashes as
``repro-hybrid perf run --scenario campaign_throughput``.
"""

import os

from repro.obs import enabled_obs
from repro.perf.harness import bench
from repro.perf.scenarios import (
    CAMPAIGN_CHECKPOINTS,
    CAMPAIGN_MECHANISMS,
    bench_sim_config as _config,
    make_campaign_throughput,
    stream_synth_jobs,
)
from repro.workload.trace_cache import reset_trace_cache

from conftest import emit, perf_store  # noqa: F401 - fixtures

#: grid size; 2016 = 96 seeds x (7 mechanisms x 3 checkpoints)
CAMPAIGN_CELLS = int(os.environ.get("REPRO_BENCH_CAMPAIGN_CELLS", "2016"))
#: serial cells/min floor.  Measured 70k-95k cells/min single reps
#: (best of 3 ~95k) on a shared 2-vCPU host; the retired
#: streamed-vs-materialized gate (>= 2x) demanded about 2 x 30k there
CELLS_PER_MIN_FLOOR = 60_000.0
#: a streamed cell's worker-side heap must not scale with its trace —
#: same absolute bound as bench_sim_core's streamed scenarios
CELL_MEMORY_CEILING_BYTES = 64 * 2**20
CELL_MEMORY_JOBS = 100_000


def test_campaign_trace_reuse_counts(emit):  # noqa: F811
    """One trace generation per distinct (spec, seed); every other cell
    is served from the cache."""
    per_trace = len(CAMPAIGN_MECHANISMS) * len(CAMPAIGN_CHECKPOINTS)
    n_traces = -(-CAMPAIGN_CELLS // per_trace)
    n_cells = n_traces * per_trace
    run = make_campaign_throughput({"n_cells": CAMPAIGN_CELLS})
    with enabled_obs() as obs:
        totals = run()
        counters = obs.snapshot()["counters"]
    misses = counters.get("workload.trace_cache.misses", 0)
    hits = counters.get("workload.trace_cache.hits", 0)
    emit(
        "bench_campaign_trace_reuse",
        (
            f"campaign trace reuse, {n_cells} cells: {misses} trace "
            f"generations (expected {n_traces}), {hits} cache hits "
            f"(expected {n_cells - n_traces})"
        ),
    )
    assert totals["cells_processed"] == n_cells
    assert (misses, hits) == (n_traces, n_cells - n_traces), (
        f"{misses} misses / {hits} hits over {n_cells} cells sharing "
        f"{n_traces} traces — the trace cache or trace-affine ordering "
        "is not amortizing"
    )


def test_campaign_throughput_floor(emit, perf_store):  # noqa: F811
    """Serial streamed campaign throughput stays above the absolute
    cells/min floor."""
    params = {"n_cells": CAMPAIGN_CELLS}
    record = bench(
        "campaign_throughput",
        params,
        make_campaign_throughput(params),
        store=perf_store,
        warmup=0,
        repeat=3,
    )
    rate = record.metrics["cells_per_min"]
    emit(
        "bench_campaign_throughput",
        (
            f"campaign throughput, {CAMPAIGN_CELLS} cells: {rate:.0f} "
            f"cells/min (floor {CELLS_PER_MIN_FLOOR:.0f}, serial, "
            "best of 3)"
        ),
    )
    assert rate >= CELLS_PER_MIN_FLOOR, (
        f"streamed campaign at {rate:.0f} cells/min is below the "
        f"{CELLS_PER_MIN_FLOOR:.0f} cells/min floor"
    )


def test_streamed_cell_memory_ceiling(emit, perf_store):  # noqa: F811
    """One 100k-job streamed cell stays under the absolute worker
    heap ceiling — peak memory is O(in-flight), not O(trace).

    The jobs are handed to :func:`run_one` as a bare generator, which
    also exercises the any-submit-ordered-iterable contract (wrapped
    with the default notice horizon) on the campaign workers' exact
    entry point.
    """
    from repro.experiments.runner import run_one
    from repro.perf.scenarios import SYSTEM
    from repro.workload.spec import theta_spec

    reset_trace_cache()
    spec = theta_spec(days=1.0, system_size=SYSTEM, min_size=128)
    config = _config()

    def once():
        run_one(
            spec,
            0,
            None,
            config,
            jobs=iter(stream_synth_jobs(CELL_MEMORY_JOBS)),
        )
        return {"jobs_processed": float(CELL_MEMORY_JOBS)}

    record = bench(
        "campaign_cell_memory",
        {"n_jobs": CELL_MEMORY_JOBS},
        once,
        store=perf_store,
        warmup=0,
        repeat=1,
        memory=True,
    )
    peak = record.metrics["tracemalloc_peak_bytes"]
    emit(
        "bench_campaign_cell_memory",
        (
            f"streamed cell memory, {CELL_MEMORY_JOBS} jobs: "
            f"tracemalloc peak {peak / 2**20:.1f} MiB "
            f"(ceiling {CELL_MEMORY_CEILING_BYTES / 2**20:.0f} MiB "
            f"absolute), wall {record.metrics['wall_time_s']:.1f}s"
        ),
    )
    assert peak < CELL_MEMORY_CEILING_BYTES, (
        f"streamed cell peak {peak / 2**20:.1f} MiB exceeds the "
        f"{CELL_MEMORY_CEILING_BYTES / 2**20:.0f} MiB ceiling at "
        f"{CELL_MEMORY_JOBS} jobs — a campaign worker's memory is "
        "scaling with its cell's trace length"
    )
