"""Drivers that regenerate every table and figure of the paper.

Each function returns a dict with structured results plus a ``text`` key
holding the rendered exhibit (the same rows/series the paper reports).
The benchmark harness (benchmarks/) calls these and prints the text; the
EXPERIMENTS.md paper-vs-measured record is produced the same way.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.core.mechanisms import ALL_MECHANISMS, Mechanism
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    run_cells,
    run_mechanism_grid,
    seed_averages,
)
from repro.metrics.report import format_summary_rows, format_table
from repro.metrics.summary import SummaryMetrics
from repro.workload.ondemand import burstiness_cv
from repro.workload.spec import NOTICE_MIXES, NoticeMix, W1, W2, W3, W4, W5
from repro.workload.theta import generate_trace
from repro.workload.trace import (
    characterize_sizes,
    table1_summary,
    type_shares,
)

FIG6_MIXES: List[NoticeMix] = [W1, W2, W3, W4, W5]


# ----------------------------------------------------------------------
# Table I — workload summary
# ----------------------------------------------------------------------
def table1_workload(config: ExperimentConfig) -> Dict[str, object]:
    """Table I: basic statistics of one generated trace."""
    jobs = generate_trace(config.spec, seed=config.base_seed)
    summary = table1_summary(jobs, config.spec.system_size)
    rows = [[k, v] for k, v in summary.items()]
    text = format_table(
        ["field", "value"], rows, title="Table I — synthetic Theta workload"
    )
    return {"summary": summary, "jobs": jobs, "text": text}


# ----------------------------------------------------------------------
# Fig. 3 — job count and core-hours by size range
# ----------------------------------------------------------------------
def fig3_size_mix(config: ExperimentConfig) -> Dict[str, object]:
    """Fig. 3: jobs (outer ring) and core-hours (inner ring) per size bucket."""
    jobs = generate_trace(config.spec, seed=config.base_seed)
    buckets = characterize_sizes(jobs, edges=config.spec.size_bucket_edges)
    total_jobs = sum(b[1] for b in buckets) or 1
    total_ch = sum(b[2] for b in buckets) or 1.0
    rows = [
        [label, count, count / total_jobs, ch, ch / total_ch]
        for label, count, ch in buckets
    ]
    text = format_table(
        ["size range", "jobs", "job share", "core-hours", "ch share"],
        rows,
        title="Fig. 3 — job size mix",
    )
    return {"buckets": buckets, "text": text}


# ----------------------------------------------------------------------
# Fig. 4 — job-type distribution across traces
# ----------------------------------------------------------------------
def fig4_type_mix(config: ExperimentConfig) -> Dict[str, object]:
    """Fig. 4: per-trace shares of rigid / on-demand / malleable jobs."""
    shares = []
    for seed in config.seeds():
        jobs = generate_trace(config.spec, seed=seed)
        shares.append(type_shares(jobs))
    rows = [
        [f"trace-{i}", s["rigid"], s["ondemand"], s["malleable"]]
        for i, s in enumerate(shares)
    ]
    text = format_table(
        ["trace", "rigid", "ondemand", "malleable"],
        rows,
        title="Fig. 4 — job-type distribution per trace",
    )
    return {"shares": shares, "text": text}


# ----------------------------------------------------------------------
# Fig. 5 — weekly on-demand submissions (burstiness)
# ----------------------------------------------------------------------
def fig5_burstiness(
    config: ExperimentConfig, campaign_dir: Optional[str] = None
) -> Dict[str, object]:
    """Fig. 5: on-demand jobs per week for sample traces.

    Runs as a ``kind="trace"`` campaign, so passing *campaign_dir*
    caches the per-seed workload characterizations across invocations.
    """
    cspec = config.to_campaign_spec(name="fig5", kind="trace")
    cspec = replace(cspec, mechanism=(None,), seeds=tuple(config.seeds()[:3]))
    series = {}
    for record in run_cells(cspec, config.workers, campaign_dir):
        payload = record.payload or {}
        series[int(record.config["seed"])] = list(payload["weekly_ondemand"])
    rows = []
    for seed, counts in series.items():
        rows.append(
            [
                f"seed-{seed}",
                len(counts),
                sum(counts),
                burstiness_cv(counts),
                " ".join(str(c) for c in counts[:12])
                + (" ..." if len(counts) > 12 else ""),
            ]
        )
    text = format_table(
        ["trace", "weeks", "total od", "cv", "weekly counts"],
        rows,
        title="Fig. 5 — weekly on-demand submissions",
    )
    from repro.campaign.svg import line_chart

    n_weeks = max((len(c) for c in series.values()), default=0)
    chart = line_chart(
        list(range(1, n_weeks + 1)),
        [
            (f"seed-{seed}", [float(c) for c in counts])
            for seed, counts in series.items()
        ],
        title="Fig. 5 — weekly on-demand submissions",
        x_label="week",
    )
    charts = [("weekly on-demand submissions", chart)] if series else []
    return {"series": series, "text": text, "charts": charts}


# ----------------------------------------------------------------------
# Table II — baseline performance
# ----------------------------------------------------------------------
def table2_baseline(config: ExperimentConfig) -> Dict[str, object]:
    """Table II: FCFS/EASY with no special treatment of any class."""
    baseline_sim = replace(config.sim, flexible_malleable=False)
    grid = run_mechanism_grid(
        config.spec,
        [None],
        config.seeds(),
        sim=baseline_sim,
        workers=config.workers,
    )
    s = grid[None]
    rows = [
        ["Avg. Turnaround", f"{s.avg_turnaround_h:.1f} hours"],
        ["System Util.", f"{100 * s.system_utilization:.2f}%"],
        ["On-demand Instant Start Rate", f"{100 * s.instant_start_rate:.2f}%"],
    ]
    text = format_table(
        ["metric", "value"], rows, title="Table II — baseline (FCFS/EASY)"
    )
    return {"summary": s, "text": text}


# ----------------------------------------------------------------------
# Table III — the notice-accuracy mixes (configuration table)
# ----------------------------------------------------------------------
def table3_mixes() -> Dict[str, object]:
    """Table III: W1–W5 on-demand notice distributions."""
    rows = [
        [m.name, m.none, m.accurate, m.early, m.late]
        for m in NOTICE_MIXES.values()
    ]
    text = format_table(
        ["workload", "no notice", "accurate", "early", "late"],
        rows,
        title="Table III — on-demand notice mixes",
    )
    return {"mixes": dict(NOTICE_MIXES), "text": text}


# ----------------------------------------------------------------------
# Fig. 6 — the headline grid: mechanisms x mixes
# ----------------------------------------------------------------------
def fig6_mechanisms(
    config: ExperimentConfig,
    mixes: Optional[Sequence[NoticeMix]] = None,
    campaign_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Fig. 6: all six mechanisms under the five Table III mixes.

    The grid runs as a campaign: with *campaign_dir* set, completed
    (mix x mechanism x seed) cells are cached on disk and reused by any
    later invocation — including partial overlaps such as a rerun with
    more seeds or extra mechanisms.
    """
    mixes = list(mixes) if mixes is not None else FIG6_MIXES
    cspec = config.to_campaign_spec(name="fig6", mixes=mixes)
    averaged = seed_averages(
        run_cells(cspec, config.workers, campaign_dir),
        by=("notice_mix", "mechanism"),
    )
    sweep = {
        mix.name: {
            m.name: averaged[(mix.name, m.name)] for m in config.mechanisms
        }
        for mix in mixes
    }
    parts = [table3_mixes()["text"], ""]
    for mix in mixes:
        parts.append(
            format_summary_rows(
                list(sweep[mix.name].values()),
                title=f"Fig. 6 — workload {mix.name}",
            )
        )
        parts.append("")
    charts = _grid_charts(
        sweep,
        x_label="notice mix",
        title_prefix="Fig. 6",
    )
    return {"sweep": sweep, "text": "\n".join(parts), "charts": charts}


# ----------------------------------------------------------------------
# Fig. 7 — checkpoint-frequency sensitivity
# ----------------------------------------------------------------------
def fig7_checkpointing(
    config: ExperimentConfig,
    multipliers: Sequence[float] = (0.5, 1.0, 2.0),
    campaign_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Fig. 7: the Fig. 6 metrics as the checkpoint interval is scaled.

    ``0.5`` = twice as frequent as Daly's optimum (the paper's "50 %").

    The multipliers are a campaign axis, so with *campaign_dir* every
    (multiplier x mechanism x seed) cell is cached on disk — rerunning
    with an extra multiplier only computes the new column.
    """
    cspec = config.to_campaign_spec(name="fig7")
    cspec = replace(
        cspec,
        checkpoint_multiplier=tuple(float(m) for m in multipliers),
    )
    averaged = seed_averages(
        run_cells(cspec, config.workers, campaign_dir),
        by=("checkpoint_multiplier", "mechanism"),
    )
    results: Dict[float, Dict[Optional[str], SummaryMetrics]] = {}
    parts = []
    for mult in multipliers:
        grid: Dict[Optional[str], SummaryMetrics] = {
            m.name: averaged[(float(mult), m.name)]
            for m in config.mechanisms
        }
        results[mult] = grid
        parts.append(
            format_summary_rows(
                list(grid.values()),
                title=f"Fig. 7 — checkpoint interval x{mult:g} "
                f"({100 / mult:.0f}% frequency)",
            )
        )
        parts.append("")
    charts = _grid_charts(
        {f"x{m:g}": results[m] for m in multipliers},
        x_label="checkpoint interval multiplier",
        title_prefix="Fig. 7",
        numeric_x=[float(m) for m in multipliers],
    )
    return {"results": results, "text": "\n".join(parts), "charts": charts}


# ----------------------------------------------------------------------
# Shared chart emission (Fig. 6 / Fig. 7 grids)
# ----------------------------------------------------------------------

#: the metrics the paper's Fig. 6/7 panels chart, one chart per metric
CHART_METRICS: Sequence[str] = (
    "avg_turnaround_h",
    "system_utilization",
    "instant_start_rate",
    "preemption_ratio_rigid",
    "preemption_ratio_malleable",
)


def _grid_charts(
    grid: Dict[str, Dict[Optional[str], SummaryMetrics]],
    x_label: str,
    title_prefix: str,
    numeric_x: Optional[Sequence[float]] = None,
    metrics: Sequence[str] = CHART_METRICS,
) -> List[tuple]:
    """Per-metric charts for an (x-point -> mechanism -> summary) grid.

    The campaign HTML exporter and the paper-figure drivers both render
    through :mod:`repro.campaign.svg`, so a figure regenerated here and
    a campaign report over the same cells look identical.  A numeric x
    axis (Fig. 7's multipliers) draws lines; categorical x (Fig. 6's
    mixes) draws grouped bars — one chart per metric, mechanisms as the
    series, matching the paper's panel layout.
    """
    from repro.campaign.svg import bar_chart, line_chart

    x_points = list(grid)
    mechanisms: List[Optional[str]] = []
    for per_mech in grid.values():
        for name in per_mech:
            if name not in mechanisms:
                mechanisms.append(name)
    charts = []
    for metric in metrics:
        series = []
        for mech in mechanisms:
            values = []
            for x in x_points:
                summary = grid[x].get(mech)
                value = (
                    summary.as_dict().get(metric) if summary else None
                )
                values.append(
                    float(value)
                    if isinstance(value, (int, float))
                    else None
                )
            series.append((mech or "baseline", values))
        title = f"{title_prefix} — {metric}"
        if numeric_x is not None and len(numeric_x) >= 3:
            chart = line_chart(
                list(numeric_x), series, title=title, x_label=x_label
            )
        else:
            chart = bar_chart(
                x_points, series, title=title, x_label=x_label
            )
        charts.append((metric, chart))
    return charts


# ----------------------------------------------------------------------
# Convenience: the headline comparison at the default mix
# ----------------------------------------------------------------------
def headline_comparison(config: ExperimentConfig) -> Dict[str, object]:
    """Baseline + the configured mechanisms at the spec's default mix."""
    mechanisms: List[Optional[Mechanism]] = [None, *config.mechanisms]
    grid = run_mechanism_grid(
        config.spec,
        mechanisms,
        config.seeds(),
        sim=config.sim,
        workers=config.workers,
    )
    title = (
        "Baseline vs. the six mechanisms"
        if config.mechanisms == list(ALL_MECHANISMS)
        else "Baseline vs. " + ", ".join(m.name for m in config.mechanisms)
    )
    text = format_summary_rows(list(grid.values()), title=title)
    return {"grid": grid, "text": text}
