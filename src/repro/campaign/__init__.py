"""Campaign engine: declarative scenario grids with a durable result store.

The paper's exhibits are each a hand-rolled grid of (workload mix x
mechanism x seed) cells; this package makes the *campaign* — not the
single run — the first-class object:

* :mod:`repro.campaign.spec` — :class:`CampaignSpec` declares the axes
  and expands them into content-addressed :class:`CampaignCell` s;
* :mod:`repro.campaign.store` — :class:`ResultStore` persists one
  strict-JSON record per cell, keyed by config hash, so identical cells
  are never recomputed and interrupted campaigns resume;
* :mod:`repro.campaign.executor` — :func:`run_campaign` fans missing
  cells out over a process pool with per-cell failure capture;
* :mod:`repro.campaign.report` — the report *model* layer (typed pivot
  rows, cell-matched diffs, error listings, chart series) plus the
  plain-text renderers;
* :mod:`repro.campaign.svg` / :mod:`repro.campaign.html` —
  zero-dependency inline-SVG chart primitives and the self-contained
  ``campaign report --html`` exporter built on the same models;
* :mod:`repro.campaign.timeline` — the flame-style span-timeline SVG
  panel for :mod:`repro.obs` trace documents (``report --html
  --trace``);
* :mod:`repro.campaign.progress` — :class:`ProgressIndex`, the
  incremental (byte-offset) completion index ``campaign status`` reads,
  and the ``campaign status --watch`` dashboard.

CLI: ``repro-hybrid campaign run|gc|status|report``.
"""

from repro.campaign.executor import (
    CampaignPlan,
    CampaignRunResult,
    collect_records,
    execute_cell,
    execute_cells,
    plan_campaign,
    run_campaign,
)
from repro.campaign.progress import (
    ProgressIndex,
    RefreshStats,
    StatusSnapshot,
    ThroughputTracker,
    status_report,
    take_snapshot,
    watch_status,
)
from repro.campaign.html import (
    render_campaign_html,
    render_exhibit_html,
)
from repro.campaign.report import (
    DEFAULT_GROUP_BY,
    DEFAULT_METRICS,
    METRIC_DIRECTIONS,
    THROUGHPUT_METRICS,
    DiffRow,
    DiffTable,
    ErrorEntry,
    MetricSeries,
    PivotRow,
    PivotTable,
    build_diff,
    build_errors,
    build_pivot,
    build_series,
    diff_text,
    load_campaign,
    report_text,
    status_text,
)
from repro.campaign.svg import bar_chart, chart_css, line_chart
from repro.campaign.timeline import timeline_summary_rows, trace_timeline_svg
from repro.campaign.spec import CampaignCell, CampaignSpec, canonical_json
from repro.campaign.store import (
    CellRecord,
    CompactStats,
    ResultStore,
    invalidate_indexes,
    iter_jsonl_records,
    read_jsonl_since,
)

__all__ = [
    "CampaignCell",
    "CampaignPlan",
    "CampaignSpec",
    "CampaignRunResult",
    "CellRecord",
    "CompactStats",
    "ProgressIndex",
    "RefreshStats",
    "ResultStore",
    "StatusSnapshot",
    "ThroughputTracker",
    "canonical_json",
    "collect_records",
    "execute_cell",
    "execute_cells",
    "plan_campaign",
    "run_campaign",
    "invalidate_indexes",
    "iter_jsonl_records",
    "read_jsonl_since",
    "status_report",
    "take_snapshot",
    "watch_status",
    "load_campaign",
    "report_text",
    "status_text",
    "diff_text",
    "DEFAULT_GROUP_BY",
    "DEFAULT_METRICS",
    "METRIC_DIRECTIONS",
    "THROUGHPUT_METRICS",
    "DiffRow",
    "DiffTable",
    "ErrorEntry",
    "MetricSeries",
    "PivotRow",
    "PivotTable",
    "build_diff",
    "build_errors",
    "build_pivot",
    "build_series",
    "render_campaign_html",
    "render_exhibit_html",
    "bar_chart",
    "chart_css",
    "line_chart",
    "timeline_summary_rows",
    "trace_timeline_svg",
]
