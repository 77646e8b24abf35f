"""Reduce a run's passes to the metrics named in ``BENCHMARK.json``.

Both functions return ``{"values": {name: number}, "extra": {label:
(value, unit)}}``: ``values`` feeds the contract JSON line, ``extra``
holds figures printed for a reader (the raw, uncorrected times, simulated
jobs per second, the cell latency tail with its sample count, failed
fraction).  The gated times are host-corrected: see ``hostspeed``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from checks import latency_summary, percentile
from hostspeed import REFERENCE_S

MIB = 1024.0  # ru_maxrss is in KiB


def _workload_extras(plain: List, tally) -> Dict[str, tuple]:
    wall = pass_wall(plain, corrected=False)
    ops = latency_summary([s for p in plain for s in p.op_s])
    extra: Dict[str, tuple] = {
        "failed_frac": (round(tally.failed / max(1, tally.attempted), 6),
                        "1"),
        "passes": (len(plain), "count"),
        "pass_wall_s": (" ".join(f"{p.wall_s:.3f}" for p in plain), "s"),
        "host_kernel_ms": (" ".join(f"{p.host_s * 1e3:.1f}" for p in plain),
                           "ms"),
        "wall_s": (round(wall, 4), "s"),
        "cells_per_min": (round(60.0 * plain[0].n_cells / wall, 2), "1/min"),
        "op_s_p50": (round(statistics.median(
            op_medians(plain, corrected=False).values()), 6), "s"),
        "op_samples": (ops["n"], "count"),
    }
    if ops["tail_pct"] not in (None, 50.0):
        extra[f"op_s_p{ops['tail_pct']:g}"] = (round(ops["tail"], 6), "s")
    if plain[0].sim_jobs:
        extra["sim_jobs_per_s"] = (
            round(plain[0].sim_jobs / wall, 1), "1/s")
    if plain[0].records:
        extra["records_per_s"] = (
            round(plain[0].records / wall, 1), "1/s")
    return extra


def op_medians(plain: List, corrected: bool) -> Dict[str, float]:
    """Each operation's median time over the run's passes.

    With *corrected*, each time is first scaled to reference-host
    seconds by the host-speed kernel timed around that operation
    (``hostspeed``), which cancels the slow phases of a shared host that
    outlast an operation or a whole run; the median then damps what is
    left, bursts within an operation and the kernel's own jitter.
    """
    samples: Dict[str, List[float]] = {}
    for p in plain:
        for op_id, seconds, host_s in zip(p.op_ids, p.op_s, p.op_host_s):
            if corrected:
                seconds *= REFERENCE_S / host_s
            samples.setdefault(op_id, []).append(seconds)
    return {op: statistics.median(v) for op, v in samples.items()}


def pass_wall(plain: List, corrected: bool) -> float:
    """Wall time of one pass: the sum of each operation's median time
    for a pass of sequential operations, so a burst that slows part of
    one pass does not move it; the median pass wall for a pass of
    parallel operations (pool cells)."""
    if plain[0].sequential:
        return sum(op_medians(plain, corrected).values())
    return statistics.median(
        p.wall_s * (REFERENCE_S / p.host_s if corrected else 1.0)
        for p in plain)


def end_to_end(plain: List, setups: List[Tuple[float, float]],
               parent_rss_kib: int, tally) -> dict:
    """The gated metrics; *setups* holds each set-up's (wall seconds,
    host-speed kernel seconds around it)."""
    worker_kib = max(sum(p.worker_rss_kib) for p in plain)
    wall = pass_wall(plain, corrected=True)
    values = {
        "setup_s": statistics.median(
            seconds * REFERENCE_S / kernel for seconds, kernel in setups),
        "ref_wall_s": wall,
        "ref_cells_per_min": 60.0 * plain[0].n_cells / wall,
        "ref_op_s_p50": statistics.median(
            op_medians(plain, corrected=True).values()),
        "peak_rss_mib": (parent_rss_kib + worker_kib) / MIB,
    }
    extra = _workload_extras(plain, tally)
    extra["setup_wall_s"] = (
        round(statistics.median(s for s, _ in setups), 4), "s")
    return {"values": values, "extra": extra}


def _median_ratio(samples: List[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def per_layer(workload, plain: List, traced: List, stats, tally) -> dict:
    n = len(traced)
    calls, incl, self_s = stats.calls, stats.incl_s, stats.self_s
    counts, samples = stats.counts, stats.samples

    def per_pass(value: float) -> float:
        return value / n

    heap_pops = counts.get("sim.heap_pop_calls", 0)
    lookups = calls.get("workload.lookup", 0)
    gens = calls.get("workload.gen", 0)
    order_calls = calls.get("sched.order", 0)
    plan_calls = calls.get("sched.plan", 0)
    candidates = counts.get("sched.plan_candidates", 0)
    plan_us = [s * 1e6 for s in samples.get("sched.plan", [])]
    mech_ratios = [r for key, vals in samples.items()
                   if key.startswith("scan_ratio.")
                   and key != "scan_ratio.baseline" for r in vals]
    pool_wall = sum(p.pool_wall_s for p in traced)
    busy = incl.get("campaign.cell", 0.0)
    workers = getattr(workload, "workers", 0)
    values = {
        "workload.gen_s": per_pass(incl.get("workload.gen", 0.0)),
        "workload.gen_calls": per_pass(gens),
        "workload.cache_hit_ratio": 1.0 - gens / lookups if lookups else 0.0,
        "sim.run_s": per_pass(incl.get("sim.run", 0.0)),
        "sim.self_s": per_pass(self_s.get("sim.run", 0.0)),
        "sim.setup_s": per_pass(incl.get("sim.setup", 0.0)),
        "sim.events": per_pass(counts.get("sim.events", 0)),
        "sim.passes_run": per_pass(counts.get("sim.passes_run", 0)),
        "sim.passes_skipped": per_pass(counts.get("sim.passes_skipped", 0)),
        "sim.heap_push_calls": per_pass(calls.get("sim.heap", 0)
                                        - heap_pops),
        "sim.heap_pop_calls": per_pass(heap_pops),
        "sim.heap_s": per_pass(incl.get("sim.heap", 0.0)),
        "sched.order_s": per_pass(incl.get("sched.order", 0.0)),
        "sched.order_calls": per_pass(order_calls),
        "sched.order_elems": per_pass(counts.get("sched.order_elems", 0)),
        "sched.order_elems_per_pass": (
            counts.get("sched.order_elems", 0) / order_calls
            if order_calls else 0.0),
        "sched.plan_s": per_pass(incl.get("sched.plan", 0.0)),
        "sched.plan_calls": per_pass(plan_calls),
        "sched.plan_candidates": per_pass(candidates),
        "sched.plan_candidates_per_pass": (
            candidates / plan_calls if plan_calls else 0.0),
        "sched.plan_starts": per_pass(counts.get("sched.plan_starts", 0)),
        "sched.plan_start_ratio": (
            counts.get("sched.plan_starts", 0) / candidates
            if candidates else 0.0),
        "sched.plan_us_p50": percentile(plan_us, 50.0) if plan_us else 0.0,
        "sched.plan_us_p99": percentile(plan_us, 99.0) if plan_us else 0.0,
        "core.coord_s": per_pass(incl.get("core.coord", 0.0)),
        "core.coord_calls": per_pass(calls.get("core.coord", 0)),
        "core.book_scan_s": per_pass(incl.get("core.book_scan", 0.0)),
        "core.book_scan_calls": per_pass(calls.get("core.book_scan", 0)),
        "core.book_scan_late_over_early": _median_ratio(mech_ratios),
        "core.book_scan_late_over_early_baseline": _median_ratio(
            samples.get("scan_ratio.baseline", [])),
        "core.preempt_calls": per_pass(calls.get("core.preempt", 0)),
        "core.shrink_calls": per_pass(calls.get("core.shrink", 0)),
        "metrics.observe_s": per_pass(incl.get("metrics.observe", 0.0)),
        "metrics.summarize_s": per_pass(incl.get("metrics.summarize", 0.0)),
        "campaign.plan_s": per_pass(incl.get("campaign.plan", 0.0)),
        "campaign.cell_busy_frac": (
            busy / (workers * pool_wall) if workers and pool_wall else 0.0),
        "campaign.store_put_s": per_pass(incl.get("campaign.store_put",
                                                  0.0)),
        "campaign.store_bytes": per_pass(sum(p.store_bytes
                                             for p in traced)),
        "campaign.store_load_s": per_pass(incl.get("campaign.store_load",
                                                   0.0)),
        "campaign.status_s": per_pass(incl.get("campaign.status", 0.0)),
        "campaign.pivot_s": per_pass(incl.get("campaign.pivot", 0.0)),
        "campaign.diff_s": per_pass(incl.get("campaign.diff", 0.0)),
        "campaign.html_s": per_pass(incl.get("campaign.html", 0.0)),
        "trace.overhead_frac": (pass_wall(traced, corrected=True)
                                / pass_wall(plain, corrected=True) - 1.0),
    }
    extra = _workload_extras(plain, tally)
    for key in sorted(samples):
        if key.startswith("scan_ratio."):
            extra[f"core.book_scan_late_over_early[{key[11:]}]"] = (
                round(statistics.median(samples[key]), 3), "ratio")
    extra["traced_passes"] = (n, "count")
    extra["worker_stat_files"] = (
        sum(p.workers_seen for p in traced), "count")
    return {"values": values, "extra": extra}
