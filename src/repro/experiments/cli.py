"""Command-line front end: ``repro-hybrid <exhibit> [options]``.

Examples::

    repro-hybrid table2 --days 28 --traces 3
    repro-hybrid fig6 --days 21 --traces 2 --workers 4
    repro-hybrid fig7 --multipliers 0.5 1 2
    repro-hybrid compare --mechanisms "CUA&SPAA" "N&PAA"

Campaigns (durable, resumable scenario grids)::

    repro-hybrid campaign run --dir runs/grid --days 7 \\
        --mechanisms all --seeds 1 2 3 --workers 4
    repro-hybrid campaign run --dir runs/grid2 --spec my_campaign.json
    repro-hybrid campaign run --dir runs/grid --retry-failed \\
        --filter mechanism=N&PAA seed=2
    repro-hybrid campaign status --dir runs/grid
    repro-hybrid campaign report --dir runs/grid --by mechanism
    repro-hybrid campaign report --dir runs/grid --html report.html --open
    repro-hybrid campaign report --dir runs/easy --diff runs/conservative
    repro-hybrid campaign gc --dir runs/grid --drop-errors
    repro-hybrid campaign status --dir runs/grid --watch

Instrumentation (spans + metrics, Perfetto-compatible traces)::

    repro-hybrid campaign run --dir runs/grid --trace run.trace.json
    repro-hybrid campaign report --dir runs/grid --html report.html \\
        --trace run.trace.json
    repro-hybrid obs summary run.trace.json
    repro-hybrid obs from-decisions runs/logs/*.jsonl -o sim.trace.json

Performance observatory (perf history + regression gates)::

    repro-hybrid perf run --scenario sim_core -p n_jobs=1000 \\
        --history runs/perf/history.jsonl
    repro-hybrid perf record --baseline benchmarks/baselines/smoke.jsonl
    repro-hybrid perf compare --history runs/perf/history.jsonl \\
        --baseline benchmarks/baselines/smoke.jsonl
    repro-hybrid perf report --history runs/perf/history.jsonl \\
        --html perf-trend.html
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional

from repro.core.mechanisms import ALL_MECHANISMS, Mechanism
from repro.experiments.config import ExperimentConfig
from repro.experiments import figures
from repro.sched.registry import policy_names
from repro.sim.config import SimConfig
from repro.sim.failures import FailureModel
from repro.util.timeconst import DAY
from repro.workload.spec import NOTICE_MIXES, theta_spec


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    spec = theta_spec(
        days=args.days,
        target_load=args.load,
        system_size=args.nodes,
        notice_mix=NOTICE_MIXES[args.mix],
        ondemand_noshow_frac=args.noshow_frac,
    )
    failures = (
        FailureModel(enabled=True, node_mtbf_s=args.failure_mtbf_days * DAY)
        if args.failure_mtbf_days
        else FailureModel.disabled()
    )
    sim = SimConfig(
        system_size=args.nodes,
        backfill_mode=args.backfill,
        failures=failures,
        policy=args.policy,
    )
    mechanisms: List[Mechanism] = (
        [Mechanism.parse(m) for m in args.mechanisms]
        if getattr(args, "mechanisms", None)
        else list(ALL_MECHANISMS)
    )
    return ExperimentConfig(
        spec=spec,
        sim=sim,
        mechanisms=mechanisms,
        n_traces=args.traces,
        base_seed=args.seed,
        workers=args.workers,
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hybrid",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "exhibit",
        choices=[
            "table1",
            "table2",
            "table3",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "compare",
        ],
        help="which exhibit to regenerate",
    )
    parser.add_argument("--days", type=float, default=28.0, help="trace horizon")
    parser.add_argument("--nodes", type=int, default=4392, help="system size")
    parser.add_argument("--load", type=float, default=0.82, help="offered load")
    parser.add_argument("--traces", type=int, default=3, help="trace replicas")
    parser.add_argument("--seed", type=int, default=2022, help="base seed")
    parser.add_argument("--workers", type=int, default=1, help="processes")
    parser.add_argument(
        "--mix", choices=sorted(NOTICE_MIXES), default="W5", help="notice mix"
    )
    parser.add_argument(
        "--mechanisms",
        nargs="*",
        default=None,
        help='mechanism names, e.g. "CUA&SPAA" (default: all six)',
    )
    parser.add_argument(
        "--multipliers",
        nargs="*",
        type=float,
        default=[0.5, 1.0, 2.0],
        help="fig7 checkpoint interval multipliers",
    )
    parser.add_argument(
        "--backfill",
        choices=["easy", "conservative"],
        default="easy",
        help="backfilling flavour (paper: easy)",
    )
    parser.add_argument(
        "--policy",
        choices=list(policy_names()),
        default=None,
        help="registered dispatcher (default: FCFS + --backfill)",
    )
    parser.add_argument(
        "--noshow-frac",
        type=float,
        default=0.0,
        help="fraction of noticed on-demand jobs that never arrive",
    )
    parser.add_argument(
        "--failure-mtbf-days",
        type=float,
        default=0.0,
        help="per-node MTBF in days for failure injection (0 = off)",
    )
    parser.add_argument(
        "--html",
        dest="html_out",
        default=None,
        metavar="FILE",
        help="write the exhibit as a self-contained HTML page "
        "(inline SVG charts where the exhibit has them)",
    )
    return parser


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    """Grid axis options of ``campaign run``."""
    parser.add_argument(
        "--spec",
        default=None,
        help="JSON campaign spec file (axes accept scalars or lists)",
    )
    parser.add_argument("--name", default="campaign")
    parser.add_argument("--days", nargs="*", type=float, default=[28.0])
    parser.add_argument("--load", nargs="*", type=float, default=[0.82])
    parser.add_argument("--nodes", nargs="*", type=int, default=[4392])
    parser.add_argument(
        "--mixes", nargs="*", choices=sorted(NOTICE_MIXES), default=["W5"]
    )
    parser.add_argument(
        "--mechanisms",
        nargs="*",
        default=["all+baseline"],
        help='names like "CUA&SPAA", "baseline", or "all"/"all+baseline"',
    )
    parser.add_argument(
        "--backfill", nargs="*", choices=["easy", "conservative"],
        default=["easy"],
    )
    parser.add_argument(
        "--policies",
        nargs="*",
        choices=list(policy_names()),
        default=None,
        help="registered dispatchers to sweep as a campaign axis "
        "(default: the legacy FCFS + --backfill cells)",
    )
    parser.add_argument(
        "--policy-params",
        nargs="*",
        default=None,
        metavar="POLICY.KNOB=VALUE",
        help="policy tuning knobs, e.g. score.wait_weight=2 "
        "prb_ewt.long_ewt_s=14400",
    )
    parser.add_argument(
        "--ckpt-multipliers", nargs="*", type=float, default=[1.0]
    )
    parser.add_argument(
        "--failure-mtbf-days", nargs="*", type=float, default=[0.0]
    )
    parser.add_argument(
        "--trace-file",
        nargs="*",
        default=None,
        help="SWF log path(s) to sweep as a trace axis (instead of the "
        "synthetic Theta generator)",
    )
    parser.add_argument(
        "--cores-per-node",
        type=int,
        default=None,
        help="SWF processors-per-node divisor (with --trace-file)",
    )
    parser.add_argument("--seeds", nargs="*", type=int, default=None)
    parser.add_argument("--traces", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument(
        "--grow",
        action="store_true",
        help="allow this spec to extend the campaign already in --dir "
        "(cached cells are reused; the stored spec is replaced)",
    )


def make_campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hybrid campaign",
        description="Durable, resumable scenario-grid campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run (or resume) a campaign")
    run_p.add_argument(
        "--dir",
        dest="directory",
        default=None,
        help="campaign directory (omit for an ephemeral in-memory run)",
    )
    _add_grid_args(run_p)
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument(
        "--retry-failed",
        action="store_true",
        help="re-run cells whose stored status is 'error'",
    )
    run_p.add_argument(
        "--filter",
        dest="filters",
        nargs="*",
        default=None,
        metavar="KEY=VALUE",
        help="with --retry-failed: only retry failures matching every "
        'pair, e.g. --filter "mechanism=N&PAA" seed=2',
    )
    run_p.add_argument(
        "--trace",
        dest="trace_out",
        default=None,
        metavar="FILE",
        help="capture instrumentation spans + metrics and write a "
        "Chrome/Perfetto trace-event JSON file (open in ui.perfetto.dev)",
    )
    run_p.add_argument(
        "--log-decisions",
        dest="log_decisions",
        default=None,
        metavar="DIR",
        help="write each cell's scheduler decision log to "
        "DIR/<cell key>.jsonl",
    )

    gc_p = sub.add_parser(
        "gc", help="compact results.jsonl (drop superseded records)"
    )
    gc_p.add_argument("--dir", dest="directory", required=True)
    gc_p.add_argument(
        "--drop-errors", action="store_true",
        help="also drop 'error' records so those cells re-run",
    )

    status_p = sub.add_parser("status", help="progress of a campaign dir")
    status_p.add_argument("--dir", dest="directory", required=True)
    status_p.add_argument(
        "--watch", action="store_true",
        help="refreshing dashboard: completion throughput, "
        "error counts, grid ETA",
    )
    status_p.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between --watch refreshes",
    )
    status_p.add_argument(
        "--frames", type=int, default=None,
        help="render this many --watch frames then exit "
        "(default: run until interrupted)",
    )
    status_p.add_argument(
        "--window", type=float, default=120.0,
        help="sliding window in seconds for --watch throughput/ETA",
    )

    report_p = sub.add_parser("report", help="pivoted summary / diff")
    report_p.add_argument("--dir", dest="directory", required=True)
    report_p.add_argument(
        "--by",
        nargs="*",
        default=None,
        help="config fields to group rows by (default: notice_mix mechanism)",
    )
    report_p.add_argument(
        "--metrics", nargs="*", default=None,
        help="summary fields to show ('throughput' expands to the "
        "simulator wall-time/events/passes columns)",
    )
    report_p.add_argument(
        "--diff",
        default=None,
        help="second campaign directory to diff against",
    )
    report_p.add_argument(
        "--html",
        dest="html_out",
        default=None,
        metavar="FILE",
        help="also write a self-contained HTML report (inline SVG "
        "charts, sortable pivot, diff dashboard; opens offline)",
    )
    report_p.add_argument(
        "--x",
        dest="chart_x",
        default=None,
        metavar="FIELD",
        help="config field for the HTML charts' x-axis "
        "(default: the last --by field)",
    )
    report_p.add_argument(
        "--open",
        dest="open_html",
        action="store_true",
        help="open the --html file in the default browser",
    )
    report_p.add_argument(
        "--trace",
        dest="trace_in",
        default=None,
        metavar="FILE",
        help="embed a span-timeline panel for this .trace.json in the "
        "--html report",
    )
    return parser


def make_obs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hybrid obs",
        description="Inspect and convert instrumentation traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summary_p = sub.add_parser(
        "summary",
        help="text tables (spans, counters, histograms) for a trace file",
    )
    summary_p.add_argument("trace", help=".trace.json produced by --trace")
    summary_p.add_argument(
        "--top", type=int, default=20,
        help="span rows to show (by total time)",
    )

    conv_p = sub.add_parser(
        "from-decisions",
        help="convert scheduler decision JSONL logs to a sim-time trace",
    )
    conv_p.add_argument(
        "logs", nargs="+",
        help="decision-log .jsonl file(s) from --log-decisions",
    )
    conv_p.add_argument(
        "-o", "--out", required=True,
        help="output trace-event JSON path",
    )
    return parser


def make_perf_parser() -> argparse.ArgumentParser:
    from repro.perf.regress import (
        DEFAULT_GATED_METRICS,
        DEFAULT_TOLERANCE,
        DEFAULT_WINDOW,
    )
    from repro.perf.scenarios import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="repro-hybrid perf",
        description="Continuous performance observatory: record, "
        "compare, and chart perf history.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_measure_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scenario",
            dest="scenarios",
            nargs="*",
            choices=sorted(SCENARIOS),
            default=["sim_core"],
            help="named scenario(s) to measure (default: sim_core)",
        )
        p.add_argument(
            "-p",
            "--param",
            dest="params",
            nargs="*",
            default=None,
            metavar="KEY=VALUE",
            help="scenario parameters (JSON-coerced), e.g. -p n_jobs=1000 "
            "backfill=conservative; params are part of the scenario hash",
        )
        p.add_argument("--warmup", type=int, default=1)
        p.add_argument("--repeat", type=int, default=3)
        p.add_argument(
            "--memory",
            action="store_true",
            help="add an untimed tracemalloc-profiled iteration "
            "(peak/current heap, peak RSS, GC collections)",
        )

    run_p = sub.add_parser(
        "run", help="measure scenario(s) and append to a history file"
    )
    _add_measure_args(run_p)
    run_p.add_argument(
        "--history",
        default=None,
        metavar="FILE",
        help="perf-history JSONL to append to (omit to just print)",
    )

    record_p = sub.add_parser(
        "record",
        help="measure scenario(s) into a committed baseline file",
    )
    _add_measure_args(record_p)
    record_p.add_argument(
        "--baseline",
        default="benchmarks/baselines/smoke.jsonl",
        metavar="FILE",
        help="baseline JSONL to append to; refreshing an existing file "
        "requires REPRO_UPDATE_BASELINE=1",
    )

    compare_p = sub.add_parser(
        "compare",
        help="judge the newest history records against a baseline "
        "(exit 1 on regression)",
    )
    compare_p.add_argument(
        "--history", required=True, metavar="FILE",
        help="perf-history JSONL holding the fresh records to judge",
    )
    compare_p.add_argument(
        "--baseline", required=True, metavar="FILE",
        help="baseline JSONL (the rolling-median window source)",
    )
    compare_p.add_argument(
        "--metrics", nargs="*", default=list(DEFAULT_GATED_METRICS),
        help="metric names to gate on",
    )
    compare_p.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="relative tolerance before a change counts (default 0.25)",
    )
    compare_p.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW,
        help="rolling-median window over the newest baselines",
    )
    compare_p.add_argument(
        "--ignore-machine",
        action="store_true",
        help="judge across machine fingerprints (CI runners)",
    )

    report_p = sub.add_parser(
        "report", help="render the perf-trend dashboard"
    )
    report_p.add_argument(
        "--history", nargs="+", required=True, metavar="FILE",
        help="history JSONL file(s), concatenated in order",
    )
    report_p.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="also judge the newest records against this baseline and "
        "embed the verdicts table",
    )
    report_p.add_argument(
        "--html",
        dest="html_out",
        default=None,
        metavar="FILE",
        help="write the self-contained trend dashboard here "
        "(default: print a text summary)",
    )
    report_p.add_argument(
        "--title", default="Performance trend",
    )
    return parser


def _perf_params(pairs: Optional[List[str]]) -> dict:
    params = _parse_filters(pairs) or {}
    return params


def _perf_measure(args: argparse.Namespace, store) -> List:
    """Run every requested scenario through the shared harness."""
    from repro.perf.harness import bench
    from repro.perf.scenarios import SCENARIOS

    params = _perf_params(args.params)
    records = []
    for name in args.scenarios:
        record = bench(
            name,
            params,
            SCENARIOS[name](params),
            store=store,
            warmup=args.warmup,
            repeat=args.repeat,
            memory=args.memory,
        )
        metrics = ", ".join(
            f"{k}={v:.6g}" for k, v in sorted(record.metrics.items())
        )
        print(
            f"{record.scenario} ({record.scenario_hash}) "
            f"@ {record.git_sha}: {metrics}"
        )
        records.append(record)
    return records


def perf_main(argv: List[str]) -> int:
    import os

    from repro.perf.regress import compare_latest, render_verdicts
    from repro.perf.store import PerfStore

    args = make_perf_parser().parse_args(argv)
    if args.command == "run":
        store = PerfStore(args.history) if args.history else None
        _perf_measure(args, store)
        if args.history:
            print(f"history appended to {args.history}")
        return 0
    if args.command == "record":
        exists = os.path.exists(args.baseline)
        if exists and os.environ.get("REPRO_UPDATE_BASELINE") != "1":
            raise SystemExit(
                f"{args.baseline} already exists; set "
                "REPRO_UPDATE_BASELINE=1 to append a refreshed baseline"
            )
        _perf_measure(args, PerfStore(args.baseline))
        print(f"baseline appended to {args.baseline}")
        return 0
    if args.command == "compare":
        current = PerfStore(args.history).load()
        baseline = PerfStore(args.baseline).load()
        if not current:
            raise SystemExit(f"no records in {args.history}")
        verdicts = compare_latest(
            current,
            baseline,
            metrics=tuple(args.metrics),
            tolerance=args.tolerance,
            window=args.window,
            ignore_machine=args.ignore_machine,
        )
        print(render_verdicts(verdicts))
        return 1 if any(v.failed for v in verdicts) else 0
    if args.command == "report":
        from repro.perf.report import render_perf_html

        records = []
        for path in args.history:
            records.extend(PerfStore(path).load())
        verdicts = None
        if args.baseline:
            verdicts = compare_latest(
                records, PerfStore(args.baseline).load()
            )
        if args.html_out:
            document = render_perf_html(
                records, verdicts=verdicts, title=args.title
            )
            parent = os.path.dirname(args.html_out)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(args.html_out, "w", encoding="utf-8") as fh:
                fh.write(document)
            print(
                f"perf-trend dashboard written to {args.html_out} "
                f"({len(records)} records)"
            )
        else:
            scenarios = {}
            for rec in records:
                scenarios.setdefault(rec.scenario_hash, []).append(rec)
            print(f"{len(records)} records, {len(scenarios)} scenario(s)")
            for group in scenarios.values():
                head, last = group[0], group[-1]
                wall = last.metrics.get("wall_time_s")
                wall_s = f"{wall:.4g}s" if wall is not None else "-"
                print(
                    f"  {head.scenario} ({head.scenario_hash}): "
                    f"{len(group)} record(s), last wall_time_s={wall_s} "
                    f"@ {last.git_sha}"
                )
            if verdicts:
                print(render_verdicts(verdicts))
        return 0
    raise AssertionError(args.command)  # pragma: no cover


def _campaign_spec_from_args(args: argparse.Namespace):
    from repro.campaign.spec import CampaignSpec

    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            return CampaignSpec.from_dict(json.load(fh))
    mechanisms: List[Optional[str]] = []
    for name in args.mechanisms:
        if name in ("all", "all+baseline"):
            if name == "all+baseline":
                mechanisms.append(None)
            mechanisms.extend(m.name for m in ALL_MECHANISMS)
        elif name.lower() == "baseline":
            mechanisms.append(None)
        else:
            mechanisms.append(Mechanism.parse(name).name)
    seeds = (
        args.seeds
        if args.seeds
        else [args.seed + i for i in range(args.traces)]
    )
    trace_file = tuple(args.trace_file) if args.trace_file else (None,)
    trace_options = (
        {"cores_per_node": args.cores_per_node}
        if args.trace_file and args.cores_per_node
        else {}
    )
    return CampaignSpec(
        name=args.name,
        days=tuple(args.days),
        target_load=tuple(args.load),
        system_size=tuple(args.nodes),
        notice_mix=tuple(args.mixes),
        mechanism=tuple(mechanisms),
        backfill_mode=tuple(args.backfill),
        checkpoint_multiplier=tuple(args.ckpt_multipliers),
        failure_mtbf_days=tuple(args.failure_mtbf_days),
        seeds=tuple(seeds),
        trace_file=trace_file,
        trace_options=trace_options,
        policy=tuple(args.policies) if args.policies else (None,),
        policy_params=_parse_policy_params(args.policy_params),
    )


def _parse_policy_params(pairs: Optional[List[str]]) -> dict:
    """``POLICY.KNOB=VALUE`` pairs → the per-policy params mapping the
    campaign spec expects (values JSON-coerced like ``--filter``)."""
    out: dict = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        policy, dot, knob = key.partition(".")
        if not sep or not dot or not policy or not knob:
            raise SystemExit(
                f"--policy-params expects POLICY.KNOB=VALUE pairs "
                f"(e.g. score.wait_weight=2), got {pair!r}"
            )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out.setdefault(policy, {})[knob] = value
    return out


def _parse_filters(pairs: Optional[List[str]]) -> Optional[dict]:
    """``KEY=VALUE`` pairs → a config-matching dict (values JSON-coerced,
    so ``seed=2`` matches the integer and ``mechanism=baseline`` maps to
    the stored ``None``)."""
    if not pairs:
        return None
    out = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"--filter expects KEY=VALUE pairs, got {pair!r}"
            )
        if key == "mechanism" and raw == "baseline":
            out[key] = None
            continue
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def campaign_main(argv: List[str]) -> int:
    from repro.campaign import (
        DEFAULT_GROUP_BY,
        DEFAULT_METRICS,
        THROUGHPUT_METRICS,
        diff_text,
        load_campaign,
        report_text,
        run_campaign,
    )

    args = make_campaign_parser().parse_args(argv)
    if args.command == "run":
        spec = _campaign_spec_from_args(args)
        obs = None
        if args.trace_out:
            from repro.obs import enable

            obs = enable()
        result = run_campaign(
            spec,
            directory=args.directory,
            workers=args.workers,
            retry_failed=args.retry_failed,
            retry_filter=_parse_filters(args.filters),
            allow_spec_update=args.grow,
            progress=print,
            log_dir=args.log_decisions,
        )
        print(
            f"campaign {spec.name!r}: {result.n_total} cells — "
            f"{result.n_cached} cached, {result.n_ran} ran, "
            f"{result.n_failed} failed"
        )
        if args.directory:
            print(f"results stored in {args.directory}")
        if obs is not None:
            from repro.obs.export import write_trace

            write_trace(args.trace_out, obs, process_name="campaign-run")
            print(f"trace written to {args.trace_out}")
        return 1 if result.n_failed else 0
    if args.command == "gc":
        from repro.campaign.store import ResultStore

        stats = ResultStore(args.directory).compact(
            drop_errors=args.drop_errors
        )
        print(
            f"gc {args.directory}: kept {stats.n_kept} records, dropped "
            f"{stats.n_superseded} superseded + "
            f"{stats.n_errors_dropped} errors"
        )
        return 0
    if args.command == "status":
        from repro.campaign.progress import status_report, watch_status

        if args.watch:
            return watch_status(
                args.directory,
                interval_s=args.interval,
                frames=args.frames,
                window_s=args.window,
                clear=sys.stdout.isatty(),
            )
        print(status_report(args.directory))
        return 0
    if args.command == "report":
        spec_dict, records = load_campaign(args.directory)
        by = tuple(args.by) if args.by else DEFAULT_GROUP_BY
        metrics = tuple(args.metrics) if args.metrics else DEFAULT_METRICS
        # 'throughput' expands to the simulator-performance columns
        # (wall time, events, executed/skipped scheduling passes)
        metrics = tuple(
            m2
            for m in metrics
            for m2 in (THROUGHPUT_METRICS if m == "throughput" else (m,))
        )
        other = None
        if args.diff:
            _, other = load_campaign(args.diff)
            print(
                diff_text(
                    records,
                    other,
                    metrics=metrics,
                    a_name=args.directory,
                    b_name=args.diff,
                )
            )
        else:
            print(report_text(records, by=by, metrics=metrics))
        if args.html_out:
            from repro.campaign.html import render_campaign_html

            trace_doc = None
            if args.trace_in:
                from repro.obs.export import load_trace

                trace_doc = load_trace(args.trace_in)
            document = render_campaign_html(
                records,
                spec_dict=spec_dict,
                by=by,
                metrics=metrics,
                x=args.chart_x,
                diff_records=other,
                a_name=args.directory,
                b_name=args.diff or "B",
                trace_doc=trace_doc,
            )
            with open(args.html_out, "w", encoding="utf-8") as fh:
                fh.write(document)
            print(f"HTML report written to {args.html_out}")
            if args.open_html:
                import webbrowser
                from pathlib import Path

                webbrowser.open(Path(args.html_out).resolve().as_uri())
        elif args.open_html:
            raise SystemExit("--open requires --html FILE")
        elif args.trace_in:
            raise SystemExit("--trace requires --html FILE")
        return 0
    raise AssertionError(args.command)  # pragma: no cover


def obs_main(argv: List[str]) -> int:
    from repro.obs.export import (
        events_from_schedlog,
        load_trace,
        render_summary,
        write_trace_data,
    )

    args = make_obs_parser().parse_args(argv)
    if args.command == "summary":
        print(render_summary(load_trace(args.trace), top=args.top))
        return 0
    if args.command == "from-decisions":
        from repro.sim.schedlog import iter_from_file

        events: List[dict] = []
        for path in args.logs:
            events.extend(events_from_schedlog(iter_from_file(path)))
        write_trace_data(
            args.out,
            {
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {},
            },
        )
        print(
            f"trace written to {args.out} "
            f"({len(events)} events from {len(args.logs)} log(s))"
        )
        return 0
    raise AssertionError(args.command)  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # piping into `head` closes stdout early; exit quietly instead of
        # tracebacking (os.devnull dance silences interpreter shutdown too)
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "campaign":
        return campaign_main(argv[1:])
    if argv and argv[0] == "obs":
        return obs_main(argv[1:])
    if argv and argv[0] == "perf":
        return perf_main(argv[1:])
    args = make_parser().parse_args(argv)
    if args.exhibit == "table3":
        out = figures.table3_mixes()
        print(out["text"])
        _write_exhibit_html(args, out)
        return 0
    config = _build_config(args)
    if args.exhibit == "table1":
        out = figures.table1_workload(config)
    elif args.exhibit == "table2":
        out = figures.table2_baseline(config)
    elif args.exhibit == "fig3":
        out = figures.fig3_size_mix(config)
    elif args.exhibit == "fig4":
        out = figures.fig4_type_mix(config)
    elif args.exhibit == "fig5":
        out = figures.fig5_burstiness(config)
    elif args.exhibit == "fig6":
        out = figures.fig6_mechanisms(config)
    elif args.exhibit == "fig7":
        out = figures.fig7_checkpointing(config, multipliers=args.multipliers)
    elif args.exhibit == "compare":
        out = figures.headline_comparison(config)
    else:  # pragma: no cover - argparse guards this
        raise AssertionError(args.exhibit)
    print(out["text"])
    _write_exhibit_html(args, out)
    return 0


def _write_exhibit_html(args: argparse.Namespace, out: dict) -> None:
    """Honor ``--html FILE`` for an exhibit driver's result dict."""
    if not getattr(args, "html_out", None):
        return
    from repro.campaign.html import render_exhibit_html

    document = render_exhibit_html(
        f"repro-hybrid {args.exhibit}",
        charts=out.get("charts", ()),
        text=out.get("text"),
    )
    with open(args.html_out, "w", encoding="utf-8") as fh:
        fh.write(document)
    print(f"HTML exhibit written to {args.html_out}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
