"""Grid runner: (mechanism x trace seed x workload mix) campaigns.

Each cell generates its trace *inside* the run call so worker processes
never ship job lists around — a (spec, seed, mechanism) triple is a
complete description of a cell, which also makes every cell individually
reproducible from the command line.
"""

from __future__ import annotations

import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.mechanisms import Mechanism
from repro.jobs.job import Job
from repro.metrics.summary import SummaryMetrics, average_summaries, summarize
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulation, SimScratch, process_scratch
from repro.workload.spec import NoticeMix, WorkloadSpec
from repro.workload.theta import stream_jobs_from_rows
from repro.workload.trace_cache import get_trace_cache


@dataclass(frozen=True)
class Cell:
    """One grid cell: a mechanism run on one generated trace.

    ``summary`` is ``None`` — and ``error`` holds the worker traceback —
    when the cell raised instead of completing; one bad cell must never
    abort a whole grid.
    """

    mechanism_name: Optional[str]
    seed: int
    mix_name: str
    summary: Optional[SummaryMetrics]
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def run_one(
    spec: WorkloadSpec,
    seed: int,
    mechanism: Optional[Mechanism],
    sim: Optional[SimConfig] = None,
    jobs: Optional[Iterable[Job]] = None,
    log_path: Optional[str] = None,
    scratch: Optional[SimScratch] = None,
) -> SummaryMetrics:
    """Simulate a trace under one mechanism and summarise the run.

    By default the trace is served from the process-wide
    :class:`~repro.workload.trace_cache.TraceCache` — generation runs
    once per ``(spec, seed)`` per worker process, and each call streams
    fresh jobs off the shared rows, so no job list is ever
    materialized.  *jobs* bypasses the generator (the campaign engine's
    SWF cells feed their retyped log in here) and takes anything
    :class:`~repro.sim.simulator.Simulation` does: a
    :class:`~repro.workload.stream.JobStream`, a job list, or any other
    submit-ordered iterator.

    *scratch* lets a worker reuse one set of simulation hot-path
    buffers across calls (see
    :func:`~repro.sim.simulator.process_scratch`).

    *log_path* turns on decision logging for this run and writes the
    log as JSONL there (``--log-decisions``); it is deliberately an
    out-of-band side channel so it never perturbs the summary or any
    content-addressed cell key derived from the config.
    """
    sim = sim or SimConfig(system_size=spec.system_size)
    if log_path is not None and not sim.log_decisions:
        sim = replace(sim, log_decisions=True)
    if jobs is None:
        rows = get_trace_cache().theta_rows(spec, seed)
        jobs = stream_jobs_from_rows(spec, rows)
    result = Simulation(jobs, sim, mechanism, scratch=scratch).run()
    if log_path is not None and result.log is not None:
        result.log.write_jsonl(log_path)
    return summarize(result)


def _run_cell(
    args: Tuple[WorkloadSpec, int, Optional[str], SimConfig, str],
) -> Cell:
    spec, seed, mech_name, sim, mix_name = args
    try:
        mechanism = Mechanism.parse(mech_name) if mech_name else None
        summary = run_one(spec, seed, mechanism, sim, scratch=process_scratch())
    except Exception:
        return Cell(
            mechanism_name=mech_name,
            seed=seed,
            mix_name=mix_name,
            summary=None,
            error=traceback.format_exc(),
        )
    return Cell(
        mechanism_name=mech_name, seed=seed, mix_name=mix_name, summary=summary
    )


def _chunksize(n_cells: int, workers: int) -> int:
    """Batch cells per worker dispatch: ~4 chunks per worker, capped at 8.

    The default ``pool.map`` chunksize of 1 pays one pickle/dispatch round
    trip per cell, which dominates for the many-small-cell grids the
    campaign engine produces.
    """
    return max(1, min(8, n_cells // (workers * 4) or 1))


def _execute(
    cells: List[Tuple[WorkloadSpec, int, Optional[str], SimConfig, str]],
    workers: int,
) -> List[Cell]:
    if workers <= 1:
        return [_run_cell(c) for c in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(
            pool.map(_run_cell, cells, chunksize=_chunksize(len(cells), workers))
        )


def _group(results: List[Cell], **match: object) -> List[SummaryMetrics]:
    """Summaries of the non-failed cells matching the given fields."""
    group = [
        c
        for c in results
        if all(getattr(c, k) == v for k, v in match.items())
    ]
    ok = [c.summary for c in group if c.summary is not None]
    if group and not ok:
        raise RuntimeError(
            f"all {len(group)} cells failed for {match}; first error:\n"
            f"{group[0].error}"
        )
    return ok


def run_mechanism_grid(
    spec: WorkloadSpec,
    mechanisms: Sequence[Optional[Mechanism]],
    seeds: Sequence[int],
    sim: Optional[SimConfig] = None,
    workers: int = 1,
    mix_name: str = "",
) -> Dict[Optional[str], SummaryMetrics]:
    """Average each mechanism over the trace seeds.

    ``None`` in *mechanisms* runs the baseline.  Returns
    ``{mechanism_name_or_None: averaged summary}`` preserving input order.
    """
    sim = sim or SimConfig(system_size=spec.system_size)
    # seed-major: the cells sharing one (spec, seed) trace run back to
    # back, so each generation in the process-wide trace cache serves
    # every mechanism before the LRU can evict it
    cells = [
        (spec, seed, m.name if m else None, sim, mix_name)
        for seed in seeds
        for m in mechanisms
    ]
    results = _execute(cells, workers)
    out: Dict[Optional[str], SummaryMetrics] = {}
    for m in mechanisms:
        name = m.name if m else None
        out[name] = average_summaries(_group(results, mechanism_name=name))
    return out


def run_workload_sweep(
    spec: WorkloadSpec,
    mixes: Sequence[NoticeMix],
    mechanisms: Sequence[Optional[Mechanism]],
    seeds: Sequence[int],
    sim: Optional[SimConfig] = None,
    workers: int = 1,
) -> Dict[str, Dict[Optional[str], SummaryMetrics]]:
    """The Fig. 6 grid: Table III mixes x mechanisms, averaged over seeds."""
    sim = sim or SimConfig(system_size=spec.system_size)
    # (mix, seed)-major for trace-cache affinity, as in run_mechanism_grid
    cells = [
        (spec.with_notice_mix(mix), seed, m.name if m else None, sim, mix.name)
        for mix in mixes
        for seed in seeds
        for m in mechanisms
    ]
    results = _execute(cells, workers)
    out: Dict[str, Dict[Optional[str], SummaryMetrics]] = {}
    for mix in mixes:
        per_mech: Dict[Optional[str], SummaryMetrics] = {}
        for m in mechanisms:
            name = m.name if m else None
            per_mech[name] = average_summaries(
                _group(results, mechanism_name=name, mix_name=mix.name)
            )
        out[mix.name] = per_mech
    return out
