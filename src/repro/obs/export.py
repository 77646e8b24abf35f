"""Trace export: Chrome trace-event / Perfetto JSON and text summaries.

The on-disk format is the Chrome trace-event *JSON object* form —
``{"traceEvents": [...], "otherData": {...}}`` — loadable directly by
``chrome://tracing`` and https://ui.perfetto.dev.  Spans become ``"X"``
(complete) events with microsecond timestamps; process/thread labels
ride in ``"M"`` (metadata) events; the metrics registry snapshot rides
in ``otherData["metrics"]`` so one file carries the whole picture.

Multi-process runs (campaign pools) produce one event list per child,
tagged with its real pid; the parent absorbs them with
``Observability.ingest`` so one file carries every process — the
Perfetto timeline shows each pool worker as its own process track.

:func:`render_summary` is the ``repro-hybrid obs summary`` renderer: a
per-span-name aggregate table (count/total/mean/max) plus the counter
listing — the always-available text view when nobody wants a browser.

Scheduler decision logs (:mod:`repro.sim.schedlog`) feed the same
exporter via :func:`events_from_schedlog`: each decision becomes an
instant event on a synthetic "simulated time" track, where one trace
microsecond represents one simulated second.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional, Sequence

from repro.obs.tracing import SpanRecord

#: pid used for the synthetic simulated-time track of decision logs
SIM_TIME_PID = 9_999_999


def events_from_spans(
    spans: Sequence[SpanRecord],
    pid: Optional[int] = None,
    process_name: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Chrome trace events for completed spans (plus metadata labels)."""
    pid = os.getpid() if pid is None else pid
    events: List[Dict[str, object]] = []
    if process_name:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        )
    for rec in spans:
        event: Dict[str, object] = {
            "name": rec.name,
            "cat": rec.name.split(".", 1)[0],
            "ph": "X",
            "ts": round(rec.start_s * 1e6, 3),
            "dur": round(rec.duration_s * 1e6, 3),
            "pid": pid,
            "tid": rec.thread_id,
        }
        if rec.attrs:
            event["args"] = {k: v for k, v in rec.attrs}
        events.append(event)
    return events


def events_from_schedlog(entries) -> List[Dict[str, object]]:
    """Instant events from scheduler :class:`~repro.sim.schedlog.LogEntry`
    records, on a dedicated simulated-time track (1 µs ≡ 1 sim second)."""
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": SIM_TIME_PID,
            "tid": 0,
            "args": {"name": "simulated time (1us = 1s)"},
        }
    ]
    for e in entries:
        events.append(
            {
                "name": f"{e.kind.value} job={e.job_id}",
                "cat": "schedlog",
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "ts": round(e.time, 3),
                "pid": SIM_TIME_PID,
                "tid": 1,
                "args": {
                    "kind": e.kind.value,
                    "job_id": e.job_id,
                    "nodes": e.nodes,
                    "detail": e.detail,
                },
            }
        )
    return events


def trace_data(
    obs,
    extra_events: Sequence[Mapping[str, object]] = (),
    process_name: Optional[str] = None,
) -> Dict[str, object]:
    """The full exportable trace document for one Observability."""
    if obs.enabled:
        # stamp the process memory/GC state into the snapshot so every
        # trace document answers "how big did this run get"
        from repro.obs.memory import sample_process_gauges

        sample_process_gauges(obs.registry)
    events = events_from_spans(
        obs.tracer.records(),
        process_name=process_name or "repro-hybrid",
    )
    events.extend(dict(e) for e in extra_events)
    events.extend(dict(e) for e in obs.foreign_events)
    other: Dict[str, object] = {"metrics": obs.registry.snapshot()}
    dropped = getattr(obs.tracer, "n_dropped", 0)
    if dropped:
        other["spans_dropped"] = dropped
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_trace(
    path: os.PathLike,
    obs,
    extra_events: Sequence[Mapping[str, object]] = (),
    process_name: Optional[str] = None,
) -> Dict[str, object]:
    """Write one process's trace JSON; returns the document dict."""
    doc = trace_data(obs, extra_events, process_name)
    return write_trace_data(path, doc)


def write_trace_data(
    path: os.PathLike, doc: Mapping[str, object]
) -> Dict[str, object]:
    doc = dict(doc)
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return doc


def load_trace(path: os.PathLike) -> Dict[str, object]:
    """Load a trace file, accepting both the object and bare-array forms."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, list):
        return {"traceEvents": data, "otherData": {}}
    data.setdefault("traceEvents", [])
    data.setdefault("otherData", {})
    return data


# ----------------------------------------------------------------------
# Text summary
# ----------------------------------------------------------------------
def _span_aggregates(
    events: Sequence[Mapping[str, object]],
) -> List[List[object]]:
    """Per-name rows: [name, count, total ms, mean ms, max ms]."""
    agg: Dict[str, List[float]] = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        name = str(e.get("name", "?"))
        dur_ms = float(e.get("dur", 0.0)) / 1000.0
        row = agg.setdefault(name, [0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur_ms
        row[2] = max(row[2], dur_ms)
    rows = []
    for name, (count, total, peak) in sorted(
        agg.items(), key=lambda kv: -kv[1][1]
    ):
        rows.append(
            [
                name,
                int(count),
                f"{total:.1f}",
                f"{total / count:.3f}",
                f"{peak:.3f}",
            ]
        )
    return rows


def render_summary(doc: Mapping[str, object], top: int = 30) -> str:
    """Human-readable rollup of a trace document.

    Three blocks: span aggregates by name (sorted by total time),
    counters, and histogram summaries — the same data Perfetto shows,
    minus the browser.
    """
    from repro.metrics.report import format_table

    events = doc.get("traceEvents", ())
    other = doc.get("otherData", {}) or {}
    metrics = other.get("metrics", {}) or {}
    blocks: List[str] = []

    span_rows = _span_aggregates(events)[:top]
    if span_rows:
        blocks.append(
            format_table(
                ["span", "count", "total ms", "mean ms", "max ms"],
                span_rows,
                title="Spans (by total time)",
            )
        )
    counters = metrics.get("counters", {})
    if counters:
        blocks.append(
            format_table(
                ["counter", "value"],
                [[k, v] for k, v in sorted(counters.items())],
                title="Counters",
            )
        )
    gauges = metrics.get("gauges", {})
    if gauges:
        blocks.append(
            format_table(
                ["gauge", "value"],
                [[k, v] for k, v in sorted(gauges.items())],
                title="Gauges (process.* / mem.* sampled at export)",
            )
        )
    histograms = metrics.get("histograms", {})
    if histograms:
        blocks.append(
            format_table(
                ["histogram", "count", "mean", "p50", "p99", "max"],
                [
                    [
                        name,
                        h.get("count", 0),
                        f"{h.get('mean', 0.0):.6f}",
                        f"{h.get('p50', 0.0):.6f}",
                        f"{h.get('p99', 0.0):.6f}",
                        f"{h.get('max', 0.0):.6f}",
                    ]
                    for name, h in sorted(histograms.items())
                ],
                title="Histograms (seconds; p50/p99 bucket-approximate)",
            )
        )
    dropped = other.get("spans_dropped", 0)
    if dropped:
        blocks.append(
            f"note: ring buffer dropped {dropped} oldest spans "
            "(raise the tracing capacity to keep more)"
        )
    if not blocks:
        return "(empty trace: no spans, counters, or histograms)"
    return "\n\n".join(blocks)
