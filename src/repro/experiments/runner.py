"""Grid runner: (mechanism x trace seed) grids, averaged over seeds.

:func:`run_one` simulates one cell: it generates its trace *inside* the
call, so a (spec, seed, mechanism) triple is a complete description of
a cell and every cell is individually reproducible from the command
line.  Grids run on the campaign engine
(:func:`repro.campaign.executor.run_campaign`), which imports
:func:`run_one` — so ``repro.campaign`` is imported lazily here.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.mechanisms import Mechanism
from repro.experiments.config import ExperimentConfig
from repro.jobs.job import Job
from repro.metrics.summary import SummaryMetrics, average_summaries, summarize
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulation
from repro.workload.spec import WorkloadSpec
from repro.workload.theta import stream_jobs_from_rows
from repro.workload.trace_cache import get_trace_cache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import CellRecord


def run_one(
    spec: WorkloadSpec,
    seed: int,
    mechanism: Optional[Mechanism],
    sim: Optional[SimConfig] = None,
    jobs: Optional[Iterable[Job]] = None,
    log_path: Optional[str] = None,
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
    result = Simulation(jobs, sim, mechanism).run()
    if log_path is not None and result.log is not None:
        result.log.write_jsonl(log_path)
    return summarize(result)


def run_cells(
    cspec: "CampaignSpec",
    workers: int = 1,
    campaign_dir: Optional[str] = None,
) -> List["CellRecord"]:
    """Run every cell of *cspec*; raise if any cell failed.

    Without *campaign_dir* the grid runs on an in-memory store; with it,
    completed cells are cached on disk and reused by later invocations.
    Returns one record per unique cell, in expansion order.
    """
    from repro.campaign.executor import run_campaign
    from repro.campaign.store import ResultStore

    store = ResultStore(campaign_dir) if campaign_dir else None
    run = run_campaign(cspec, store=store, workers=workers)
    if run.n_failed:
        # a partial seed average would silently skew the exhibit; surface
        # the failure instead (retry via the campaign CLI --retry-failed)
        failed = [r for r in run.records if not r.ok]
        raise RuntimeError(
            f"{run.n_failed} {cspec.name} cells failed; first error:\n"
            f"{failed[0].error}"
        )
    return run.records


def seed_averages(
    records: Sequence["CellRecord"], by: Sequence[str]
) -> Dict[Tuple[object, ...], SummaryMetrics]:
    """Seed-averaged summary per distinct value of the *by* config fields.

    Keys are :func:`repro.campaign.report.group_records` keys, in
    first-seen order (the baseline mechanism groups as ``"baseline"``).
    """
    from repro.campaign.report import group_records

    return {
        key: average_summaries([r.summary_metrics() for r in recs])
        for key, recs in group_records(records, by).items()
    }


def run_mechanism_grid(
    spec: WorkloadSpec,
    mechanisms: Sequence[Optional[Mechanism]],
    seeds: Sequence[int],
    sim: Optional[SimConfig] = None,
    workers: int = 1,
) -> Dict[Optional[str], SummaryMetrics]:
    """Average each mechanism over the trace seeds.

    ``None`` in *mechanisms* runs the baseline.  Returns
    ``{mechanism_name_or_None: averaged summary}`` preserving input
    order.  Raises if any cell fails.
    """
    sim = sim or SimConfig(system_size=spec.system_size)
    names = [m.name if m else None for m in mechanisms]
    config = ExperimentConfig(
        spec=spec, sim=sim, n_traces=len(seeds), workers=workers
    )
    cspec = replace(
        config.to_campaign_spec(name="grid"),
        mechanism=tuple(names),
        seeds=tuple(seeds),
    )
    averaged = seed_averages(run_cells(cspec, workers), by=("mechanism",))
    return {name: averaged[(name or "baseline",)] for name in names}
