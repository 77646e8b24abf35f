"""Campaign execution: expand, skip cached cells, fan out the rest.

The executor is deliberately thin glue over pieces that already exist:
cell simulation is :func:`repro.experiments.runner.run_one`, parallelism
is a ``ProcessPoolExecutor`` (``submit``/``as_completed``, so finished
cells persist immediately regardless of order), and persistence is the
append-only :class:`ResultStore`.  What it adds is the campaign
contract:

* every cell is looked up by content address first — completed cells
  are never recomputed, so an identical second run is pure cache hits
  and an interrupted run resumes where it left off;
* one failed cell never kills the campaign — the worker captures the
  traceback into an ``error`` record (itself persisted, so failures are
  inspectable and retriable);
* records are persisted as they stream back from the pool, not at the
  end, so a kill -9 loses at most the cells in flight.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.store import CellRecord, ResultStore
from repro.experiments.runner import run_one
from repro.jobs.job import JobType
from repro.obs import enabled_obs, get_obs
from repro.util.timeconst import WEEK
from repro.workload.ondemand import burstiness_cv
from repro.workload.spec import WorkloadSpec
from repro.workload.stream import JobStream
from repro.workload.theta import stream_jobs_from_rows
from repro.workload.trace_cache import get_trace_cache


def _retype_kwargs(spec: WorkloadSpec) -> Dict[str, object]:
    """The §IV-A type-assignment knobs an SWF cell layers on its log."""
    return dict(
        frac_projects_ondemand=spec.frac_projects_ondemand,
        frac_projects_rigid=spec.frac_projects_rigid,
        notice_mix=spec.notice_mix,
        system_size=spec.system_size,
        malleable_min_size_frac=spec.malleable_min_size_frac,
        rigid_setup_frac=spec.rigid_setup_frac,
        malleable_setup_frac=spec.malleable_setup_frac,
        lead_range_s=spec.notice_lead_range_s,
        late_window_s=spec.late_window_s,
    )


def _cell_stream(
    cell: CampaignCell, spec: WorkloadSpec
) -> Optional[JobStream]:
    """Streamed jobs for an SWF-backed cell; ``None`` for synthetic cells.

    A real log supplies submit times, sizes, and runtimes; the paper's
    §IV-A type assignment (projects → on-demand/rigid/malleable, notice
    classes from the cell's mix) is layered on, seeded by the cell seed
    so replicas vary the assignment, not the trace.  The parsed rigid
    log comes from the process-wide
    :class:`~repro.workload.trace_cache.TraceCache` — one parse serves
    every cell of the worker — and the retyped jobs are built lazily,
    so the cell never materializes its trace.
    """
    if cell.trace_file is None:
        return None
    from repro.workload.swf import retype_stream

    rigid = get_trace_cache().swf_jobs(cell.trace_file, cell.trace_options)
    rng = np.random.default_rng(cell.seed)
    return retype_stream(rigid, rng=rng, **_retype_kwargs(spec))


def _trace_payload(cell: CampaignCell) -> Dict[str, object]:
    """Trace-characterization cells: workload statistics, no simulation.

    One streaming pass over the cell's jobs: per-type counts and
    on-demand submit times are accumulated as jobs go by (O(on-demand)
    memory, not O(trace)), then binned exactly as
    :func:`~repro.workload.ondemand.ondemand_jobs_per_week` bins a
    materialized list — synthetic cells against the spec horizon, SWF
    cells against the observed ``max submit + 1``.
    """
    spec = cell.workload_spec()
    if cell.trace_file is None:
        rows = get_trace_cache().theta_rows(spec, cell.seed)
        jobs: Iterable = stream_jobs_from_rows(spec, rows)
        horizon: Optional[float] = spec.horizon_s
    else:
        jobs = _cell_stream(cell, spec)
        horizon = None  # real logs span whatever they span
    n_jobs = 0
    counts = {t: 0 for t in JobType}
    od_submits: List[float] = []
    max_submit = 0.0
    for job in jobs:
        n_jobs += 1
        counts[job.job_type] += 1
        max_submit = max(max_submit, job.submit_time)
        if job.job_type is JobType.ONDEMAND:
            od_submits.append(job.submit_time)
    if horizon is None:
        horizon = max_submit + 1.0 if n_jobs else 0.0
    n_weeks = max(1, int(math.ceil(horizon / WEEK)))
    weekly = [0] * n_weeks
    for submit in od_submits:
        weekly[min(n_weeks - 1, int(submit // WEEK))] += 1
    shares = {
        t.value: (counts[t] / n_jobs if n_jobs else 0.0) for t in JobType
    }
    return {
        "n_jobs": n_jobs,
        "type_shares": shares,
        "weekly_ondemand": weekly,
        "burstiness_cv": burstiness_cv(weekly),
    }


def execute_cell(
    config: Mapping[str, object],
    log_dir: Optional[str] = None,
) -> CellRecord:
    """Run one cell from its canonical config; never raises.

    Takes the plain config dict (not the dataclass) so the worker side
    depends only on JSON-shaped data — the same record shape the store
    persists.  *log_dir* (``--log-decisions``) writes each simulated
    cell's scheduler decision log to ``<log_dir>/<cell key>.jsonl`` —
    an out-of-band side channel, so cell keys and summaries are
    untouched.

    The cell streams: its trace is served off the shared
    :class:`~repro.workload.trace_cache.TraceCache` and jobs are built
    lazily, so no job list is ever materialized and the simulation's
    hot-path buffers are reused across the cells this process executes.
    """
    cell = CampaignCell.from_config(config)
    key = cell.key()
    obs = get_obs()
    start = time.perf_counter()
    try:
        with obs.span("campaign.cell", key=key, kind=cell.kind), \
                obs.memory.section("campaign.cell"):
            if cell.kind == "trace":
                payload, summary = _trace_payload(cell), None
            else:
                log_path = None
                if log_dir is not None:
                    os.makedirs(log_dir, exist_ok=True)
                    log_path = os.path.join(log_dir, f"{key}.jsonl")
                wspec = cell.workload_spec()
                metrics = run_one(
                    wspec,
                    cell.seed,
                    cell.mechanism_obj(),
                    cell.sim_config(),
                    jobs=_cell_stream(cell, wspec),
                    log_path=log_path,
                )
                payload, summary = None, metrics.to_dict()
    except Exception:
        obs.counter("campaign.cells.failed").inc()
        return CellRecord(
            key=key,
            config=cell.config(),
            status="error",
            error=traceback.format_exc(),
            elapsed_s=time.perf_counter() - start,
        )
    obs.counter("campaign.cells.run").inc()
    return CellRecord(
        key=key,
        config=cell.config(),
        status="ok",
        summary=summary,
        payload=payload,
        elapsed_s=time.perf_counter() - start,
    )


def execute_cells(
    configs: Sequence[Mapping[str, object]],
    log_dir: Optional[str] = None,
) -> List[CellRecord]:
    """Run a batch of cells in this process, one record per cell.

    The batched unit of pool dispatch: one IPC round-trip ships N
    configs out and N records back, while error capture stays per cell
    (:func:`execute_cell` never raises) and the caller still persists
    and reports each record individually.  The whole batch runs under a
    ``campaign.batch`` span, and — because the batch shares this
    process's trace cache — its cells amortize trace parsing.
    """
    with get_obs().span("campaign.batch", n_cells=len(configs)):
        return [execute_cell(c, log_dir=log_dir) for c in configs]


def execute_cells_traced(
    configs: Sequence[Mapping[str, object]],
    log_dir: Optional[str] = None,
) -> Tuple[List[CellRecord], List[Dict[str, object]], Dict[str, object]]:
    """:func:`execute_cells` under a private instrumentation bundle.

    One bundle per batch (not per cell): the ``campaign.batch`` span
    wraps the per-cell ``campaign.cell`` spans, so the merged Perfetto
    timeline shows both the dispatch granularity and the cells inside
    it.  Returns the batch's records plus its events and metric
    snapshot for the parent to ``obs.ingest()``.
    """
    from repro.obs.export import events_from_spans

    with enabled_obs() as child_obs:
        records = execute_cells(configs, log_dir)
        events = events_from_spans(
            child_obs.tracer.records(),
            process_name=f"pool-worker-{os.getpid()}",
        )
        return records, events, child_obs.snapshot()


@dataclass(frozen=True)
class CampaignRunResult:
    """Outcome of one ``run_campaign`` invocation."""

    spec: CampaignSpec
    #: records for every cell of the grid, in expansion order
    records: List[CellRecord]
    n_total: int
    n_cached: int
    n_ran: int
    n_failed: int

    @property
    def ok_records(self) -> List[CellRecord]:
        return [r for r in self.records if r.ok]


@dataclass(frozen=True)
class CampaignPlan:
    """What a pass over a campaign grid still has to compute."""

    spec: CampaignSpec
    #: unique cells keyed by content address, first-occurrence order
    by_key: Dict[str, CampaignCell]
    #: cells with no usable stored record, in expansion order
    todo: List[CampaignCell]
    n_cached: int

    @property
    def n_total(self) -> int:
        return len(self.by_key)


def matches_filter(
    config: Mapping[str, object], where: Mapping[str, object]
) -> bool:
    """Does a cell config satisfy every ``key=value`` selection pair?"""
    return all(config.get(k) == v for k, v in where.items())


def plan_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    retry_failed: bool = False,
    retry_filter: Optional[Mapping[str, object]] = None,
) -> CampaignPlan:
    """Expand *spec*, dedupe by content address, subtract stored cells.

    ``retry_failed`` forgets stored ``error`` records (so those cells
    re-run); ``retry_filter`` narrows that to failures whose config
    matches every given ``key=value`` pair (e.g. one mechanism or seed).
    """
    cells = spec.expand()
    # dedup by content address: a grid that names the same cell twice
    # (repeated seed, 'all+baseline baseline') still runs it once
    by_key: Dict[str, CampaignCell] = {}
    for cell in cells:
        by_key.setdefault(cell.key(), cell)
    done = store.completed_keys()
    if retry_failed:
        stale = store.failed_keys() & set(by_key)
        if retry_filter:
            stale = {
                k
                for k in stale
                if matches_filter(by_key[k].config(), retry_filter)
            }
        store.drop(stale)
    todo = [c for k, c in by_key.items() if k not in store]
    n_cached = sum(1 for key in by_key if key in done)
    return CampaignPlan(
        spec=spec, by_key=by_key, todo=todo, n_cached=n_cached
    )


def collect_records(
    spec: CampaignSpec, store: ResultStore
) -> List[CellRecord]:
    """One stored record per unique cell, in expansion order; all must
    be present (run the campaign first)."""
    keys = {c.key(): c for c in spec.expand()}
    records = [store.get(key) for key in keys]
    missing = sum(1 for r in records if r is None)
    if missing:
        raise RuntimeError(
            f"{missing}/{len(keys)} cells missing from the store"
        )
    return [r for r in records if r is not None]


def trace_affine_order(cells: Sequence[CampaignCell]) -> List[CampaignCell]:
    """Execution order that groups cells sharing a parsed trace.

    Grids expand mechanism-major (every seed of mechanism 1, then every
    seed of mechanism 2, ...), so the cells that share one ``(workload
    spec, seed)`` trace — or one SWF log — are maximally far apart and
    the trace cache's small LRU evicts each entry before its next use.
    Sorting by trace identity makes every cache entry serve all its
    cells back to back, with the content key as the final tiebreaker
    inside each group so the schedule is a pure function of the cell
    set, not of expansion order (and the store orders by content key
    regardless).  Cell identity, records, and summaries are unaffected
    — only the execution schedule changes.
    """
    from repro.workload.trace_cache import _options_hash, spec_hash

    def group(cell: CampaignCell) -> Tuple[str, str, int, str]:
        if cell.trace_file is not None:
            return (
                "swf",
                f"{cell.trace_file}|{_options_hash(cell.trace_options)}",
                cell.seed,
                cell.key(),
            )
        try:
            return (
                "theta",
                spec_hash(cell.workload_spec()),
                cell.seed,
                cell.key(),
            )
        except Exception:
            # an invalid spec must still reach execute_cell, which
            # captures the failure as this cell's error record
            return ("invalid", cell.key(), cell.seed, cell.key())

    return sorted(cells, key=group)


def _batch_size(n_cells: int, workers: int) -> int:
    """Cells per pool round-trip: ~4 batches per worker, capped at 8.

    Single-future-per-cell dispatch pays one pickle/IPC round trip per
    cell, which dominates for the many-small-cell grids the campaign
    engine produces; batches much larger than this would coarsen
    persistence granularity (a killed run loses at most the batches in
    flight).
    """
    return max(1, min(8, n_cells // (workers * 4) or 1))


def _dispatch_batched(
    pool: ProcessPoolExecutor,
    fn: Callable,
    todo: Sequence[CampaignCell],
    workers: int,
    log_dir: Optional[str],
    handle: Callable[[Any], None],
) -> None:
    """Submit cell batches through a bounded in-flight window.

    Batches hold :func:`_batch_size` cells, and at most ``4 * workers``
    batch futures exist at any moment — the pre-batching code submitted
    the entire plan up front, materializing one future (plus a pickled
    config) per cell before the first result came back.  Results are
    handled finished-first (``wait(FIRST_COMPLETED)``), so a slow batch
    never blocks persistence of faster ones.
    """
    batch_size = _batch_size(len(todo), workers)
    max_inflight = 4 * workers
    pending = iter(
        [todo[i:i + batch_size] for i in range(0, len(todo), batch_size)]
    )
    inflight: Dict[Future, int] = {}
    exhausted = False
    while True:
        while not exhausted and len(inflight) < max_inflight:
            batch = next(pending, None)
            if batch is None:
                exhausted = True
                break
            future = pool.submit(fn, [c.config() for c in batch], log_dir)
            inflight[future] = len(batch)
        if not inflight:
            break
        done, _ = wait(inflight, return_when=FIRST_COMPLETED)
        for future in done:
            del inflight[future]
            handle(future.result())


def run_campaign(
    spec: CampaignSpec,
    directory: Optional[str] = None,
    store: Optional[ResultStore] = None,
    workers: int = 1,
    retry_failed: bool = False,
    retry_filter: Optional[Mapping[str, object]] = None,
    allow_spec_update: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    log_dir: Optional[str] = None,
) -> CampaignRunResult:
    """Execute every not-yet-computed cell of *spec*.

    Parameters
    ----------
    directory:
        Campaign directory for the persistent store; ``None`` (and no
        *store*) runs fully in memory.
    store:
        An explicit store, overriding *directory*.
    workers:
        Worker processes; 1 runs serially (deterministic order).  With
        more, cells ship in batches (see :func:`_dispatch_batched`).
    retry_failed:
        Re-run cells whose stored status is ``error`` instead of
        keeping the failure record.
    retry_filter:
        With *retry_failed*, only retry failures whose config matches
        every ``key=value`` pair (e.g. ``{"mechanism": "N&PAA"}``).
    allow_spec_update:
        Let *spec* replace a different spec already recorded in the
        directory — growing a campaign in place (extra seeds,
        mechanisms, ...) while reusing every already-computed cell.
    progress:
        Optional callback receiving one human-readable line per event.
    log_dir:
        Write each simulated cell's scheduler decision log to
        ``<log_dir>/<cell key>.jsonl`` (``--log-decisions``).

    Pool workers only compute: they return records, and the calling
    process is the one that appends them to the store.
    """
    say = progress or (lambda _msg: None)
    if store is None:
        # a campaign that owns its directory records its spec there (and
        # refuses a directory already owned by a different campaign); an
        # explicitly shared store skips that guard so many campaigns can
        # pool content-addressed cells
        store = ResultStore(directory)
        store.write_spec(spec.to_dict(), overwrite=allow_spec_update)
    else:
        # a shared store may be long-lived while other campaigns append
        # to its directory; fold in anything appended since it was
        # loaded (O(appended bytes)) before planning against it
        store.refresh()

    plan = plan_campaign(
        spec, store, retry_failed=retry_failed, retry_filter=retry_filter
    )
    by_key, todo = plan.by_key, plan.todo
    say(
        f"campaign {spec.name!r}: {len(by_key)} cells "
        f"({plan.n_cached} cached, {len(todo)} to run)"
    )
    obs = get_obs()
    obs.counter("campaign.cells.cached").inc(plan.n_cached)

    if todo:
        todo = trace_affine_order(todo)
        if workers <= 1:
            # in-process: cell spans land directly in this process's
            # ring buffer, nested under whatever span the caller holds
            for cell in todo:
                record = execute_cell(cell.config(), log_dir=log_dir)
                store.put(record)
                say(_cell_line(record, by_key[record.key]))
        else:
            def persist(records: List[CellRecord]) -> None:
                for record in records:
                    store.put(record)
                    say(_cell_line(record, by_key[record.key]))

            with ProcessPoolExecutor(max_workers=workers) as pool:
                if obs.enabled:
                    # traced pool: children ship their spans and metric
                    # snapshots back with each batch for one merged trace
                    def handle(result: Tuple) -> None:
                        records, events, metrics = result
                        obs.ingest(events, metrics)
                        persist(records)

                    _dispatch_batched(
                        pool, execute_cells_traced, todo, workers,
                        log_dir, handle,
                    )
                else:
                    # batches persist the moment each finishes, in any
                    # order, so a kill loses only cells actually in
                    # flight — an ordered stream would buffer completed
                    # batches behind a slow head-of-line batch
                    _dispatch_batched(
                        pool, execute_cells, todo, workers,
                        log_dir, persist,
                    )

    final = collect_records(spec, store)
    return CampaignRunResult(
        spec=spec,
        records=final,
        n_total=len(by_key),
        n_cached=plan.n_cached,
        n_ran=len(todo),
        n_failed=sum(1 for r in final if not r.ok),
    )


def _cell_line(record: CellRecord, cell: CampaignCell) -> str:
    tag = "ok" if record.ok else "FAILED"
    mech = cell.mechanism or "baseline"
    mix = (
        cell.notice_mix
        if isinstance(cell.notice_mix, str)
        else cell.notice_mix.get("name", "?")
    )
    return (
        f"  [{tag}] {record.key} {mech} mix={mix} seed={cell.seed} "
        f"({record.elapsed_s:.2f}s)"
    )
