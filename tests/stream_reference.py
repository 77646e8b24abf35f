"""The recorded materialized reference the streaming suites compare against.

Before the simulator became stream-only, every streamed run was checked
against a materialized run of the same trace (the whole job list seeded
into the event heap up front).  ``golden/stream_reference.json`` freezes
what that materialized path produced: for each case the summary
(:func:`~repro.metrics.summary.deterministic_view`), the notice-class
and waste breakdowns, the run counters, and a SHA-256 of the decision
log; for campaign cases, every cell's status, summary and payload.

``REPRO_UPDATE_GOLDEN=1`` rewrites a case from the current code instead
of comparing — only do that for an intentional change, and review the
diff.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import pytest

from repro.metrics.breakdown import ondemand_by_notice_class, waste_by_type
from repro.metrics.summary import deterministic_view, summarize

PATH = pathlib.Path(__file__).parent / "golden" / "stream_reference.json"


def sim_view(result) -> dict:
    """Everything the metrics layer derives from one run, plus the
    run counters and a digest of the decision log (when logged)."""
    view = {
        "summary": deterministic_view(summarize(result)),
        "by_notice": [vars(o) for o in ondemand_by_notice_class(result)],
        "waste": waste_by_type(result),
        "run": {
            "events_processed": result.events_processed,
            "schedule_passes": result.schedule_passes,
            "makespan": result.makespan,
            "first_submit": result.first_submit,
            "last_end": result.last_end,
        },
    }
    if result.log is not None:
        lines = "\n".join(e.to_json_line() for e in result.log.entries)
        view["log_sha256"] = hashlib.sha256(lines.encode()).hexdigest()
    return view


def store_view(store) -> dict:
    """Every cell of a campaign store, keyed by its config.

    SWF-backed cells name their log by basename: the log lives in a
    per-test temporary directory, so its full path (and with it the
    content-addressed cell key) differs between runs.
    """
    out = {}
    for record in store.records():
        config = dict(record.config)
        if "trace_file" in config:
            config["trace_file"] = os.path.basename(config["trace_file"])
        out[json.dumps(config, sort_keys=True)] = {
            "status": record.status,
            "summary": (
                deterministic_view(dict(record.summary))
                if record.summary
                else None
            ),
            "payload": dict(record.payload) if record.payload else None,
        }
    return out


def _load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(case: str, view: dict) -> None:
    """Assert *view* equals the recorded reference for *case*."""
    # a JSON round trip gives the view the recorded shape (tuples to
    # lists, int keys to strings); floats survive it exactly
    view = json.loads(json.dumps(view, sort_keys=True))
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        data = _load() if PATH.exists() else {}
        data[case] = view
        PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"reference case {case} recorded")
    reference = _load()
    assert case in reference, (
        f"no recorded reference for {case!r} — record it with "
        "REPRO_UPDATE_GOLDEN=1"
    )
    assert view == reference[case], (
        f"{case} drifted from the recorded materialized reference"
    )
