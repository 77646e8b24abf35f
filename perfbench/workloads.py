"""The benchmark's three closed-loop workloads.

Each workload submits a fixed amount of work per *pass* and waits for
it; a run repeats passes until its time is used.  All work enters the
system through public entry points only: ``repro.experiments.cli.main``,
``repro.experiments.runner.run_one`` and ``ResultStore``.

* ``paper_long`` — one 28-day default Theta-spec trace (4392 nodes, W5
  mix, load 0.82) under the baseline and all six mechanisms, serially
  in this process, trace generation included.  Long queues and a
  growing reservation book stress ``sim``, ``sched`` and ``core``.
* ``fig6_grid`` — ``campaign run`` of W1-W5 x (baseline + 6 mechanisms)
  x seeds on short traces with ``--workers 2`` into a fresh directory,
  then ``campaign report --html``.  Per-cell set-up, trace generation
  and cache reuse, pool dispatch and store writes dominate.
* ``report_read`` — a finished campaign store written in set-up as
  ``CellRecord.to_json`` lines, read back by a warm ``campaign run`` (all cells
  cached), ``campaign status``, ``campaign report --html`` and
  ``campaign report --diff``.  No simulation runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
import shutil
import time
import traceback
from typing import Dict, List, Optional, Tuple

from checks import digest_bytes, summary_digest
from hostspeed import HostClock

MIXES = ("W1", "W2", "W3", "W4", "W5")
#: pool size of the campaign workloads (the benchmark host's core count)
WORKERS = 2


@dataclasses.dataclass
class PassResult:
    """What one pass of a workload did and produced."""

    wall_s: float
    n_cells: int
    #: latency of each operation the caller waited on
    op_s: List[float]
    #: the operation each ``op_s`` entry timed, stable across passes
    op_ids: List[str]
    #: (operation id, output digest or None, error text or None)
    outputs: List[Tuple[str, Optional[str], Optional[str]]]
    sim_jobs: int = 0
    records: int = 0
    store_bytes: int = 0
    #: wall time of the pooled ``campaign run`` command, if any
    pool_wall_s: float = 0.0
    #: True when ``op_s`` ran one after another and fill ``wall_s``
    sequential: bool = True
    #: peak RSS of each pool worker that exited during the pass
    worker_rss_kib: List[int] = dataclasses.field(default_factory=list)
    #: host-speed kernel time around each ``op_s`` entry (``hostspeed``)
    op_host_s: List[float] = dataclasses.field(default_factory=list)
    #: host-speed kernel time over the whole pass
    host_s: float = 0.0
    #: pool workers whose layer statistics were collected (traced passes)
    workers_seen: int = 0


def _cli(argv: List[str]) -> Tuple[int, str, Optional[str]]:
    """Run the CLI in-process; returns (exit code, stdout, error)."""
    from repro.experiments.cli import main

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), f"exit {exc.code}"
    except Exception:
        return 1, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), None if code == 0 else f"exit {code}"


def _mech_names() -> List[Optional[str]]:
    from repro.core.mechanisms import ALL_MECHANISMS

    return [None] + [m.name for m in ALL_MECHANISMS]


# ----------------------------------------------------------------------
# paper_long
# ----------------------------------------------------------------------
@dataclasses.dataclass
class PaperLong:
    """One paper-scale Theta-spec trace, every mechanism on it.

    The trace is pinned (generator seed ``trace_seed``) instead of drawn
    from the run seed, as the paper evaluates on one fixed Theta log:
    the cost of simulating a congested trace varies by 25-35% from one
    generator seed to the next, which would swamp any regression bound.
    It spans 28 days rather than months so that a run repeats each cell
    often enough for a steady median on a shared host; the reservation
    book still grows all cell long.
    """

    days: float = 28.0
    trace_seed: int = 2022
    name: str = "paper_long"
    #: the run seed does not change this workload's inputs
    uses_seed = False

    def setup(self, data_dir: str, seed: int) -> None:
        from repro.workload.spec import theta_spec

        theta_spec(days=self.days)

    def run_pass(self, data_dir: str, seed: int, index: int,
                 host: HostClock) -> PassResult:
        from repro.core.mechanisms import Mechanism
        from repro.experiments.runner import run_one
        from repro.workload.spec import theta_spec
        from repro.workload.trace_cache import reset_trace_cache

        spec = theta_spec(days=self.days)
        mechanisms = [Mechanism.parse(n) if n else None
                      for n in _mech_names()]
        outputs, op_s, op_host_s, jobs = [], [], [], 0
        start = time.perf_counter()
        reset_trace_cache()  # every pass generates the trace again
        for mech in mechanisms:
            op_id = f"{self.trace_seed}/{mech.name if mech else 'baseline'}"
            t0 = time.perf_counter()
            try:
                summary = run_one(spec, self.trace_seed, mech)
            except Exception:
                outputs.append((op_id, None, traceback.format_exc()))
            else:
                jobs += summary.n_jobs
                outputs.append((op_id, summary_digest(summary), None))
            op_s.append(time.perf_counter() - t0)
            op_host_s.append(host.mark())
        wall = time.perf_counter() - start
        return PassResult(wall_s=wall, n_cells=len(outputs), op_s=op_s,
                          op_ids=[o[0] for o in outputs], outputs=outputs,
                          op_host_s=op_host_s,
                          host_s=sum(op_host_s) / len(op_host_s),
                          sim_jobs=jobs)


# ----------------------------------------------------------------------
# fig6_grid
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Fig6Grid:
    """The Fig. 6 campaign through the CLI: run, then an HTML report.

    Three seeds give 105 cells, enough for a p90 with ten samples beyond
    it, in passes short enough to repeat several times per run.

    The grid's trace seeds are pinned, like ``paper_long``'s trace: the
    five mixes share each seed's job shapes, so a pass holds only
    ``n_seeds`` independent traces, and with twelve seeds drawn from the
    run seed the pass wall still spread 19% across ten run seeds.
    """

    days: float = 3.0
    n_seeds: int = 3
    first_seed: int = 2022
    mixes: Tuple[str, ...] = MIXES
    nodes: int = 4392
    workers: int = WORKERS
    name: str = "fig6_grid"
    uses_seed = False

    def setup(self, data_dir: str, seed: int) -> None:
        os.makedirs(data_dir, exist_ok=True)

    def seeds(self) -> List[int]:
        return [self.first_seed + i for i in range(self.n_seeds)]

    def cell_ids(self) -> List[str]:
        return [f"{mix}/{mech or 'baseline'}/{s}" for mix in self.mixes
                for mech in _mech_names() for s in self.seeds()]

    def run_pass(self, data_dir: str, seed: int, index: int,
                 host: HostClock) -> PassResult:
        from repro.campaign.store import ResultStore

        cdir = os.path.join(data_dir, f"grid-{index}")
        shutil.rmtree(cdir, ignore_errors=True)
        run_argv = [
            "campaign", "run", "--dir", cdir,
            "--days", str(self.days), "--nodes", str(self.nodes),
            "--mixes", *self.mixes, "--mechanisms", "all+baseline",
            "--seeds", *map(str, self.seeds()),
            "--workers", str(self.workers),
        ]
        report_argv = ["campaign", "report", "--dir", cdir,
                       "--html", os.path.join(data_dir, "fig6.html")]
        start = time.perf_counter()
        _code, _out, run_err = _cli(run_argv)
        pool_wall = time.perf_counter() - start
        _code, _out, report_err = _cli(report_argv)
        wall = time.perf_counter() - start
        host_s = host.mark()

        outputs, op_s, op_ids = [], [], []
        records = {}
        try:
            for record in ResultStore(cdir).records():
                cfg = record.config
                mech = cfg["mechanism"] or "baseline"
                records[f"{cfg['notice_mix']}/{mech}/{cfg['seed']}"] = record
        except Exception:
            run_err = run_err or traceback.format_exc()
        for op_id in self.cell_ids():
            record = records.get(op_id)
            if record is None:
                outputs.append((op_id, None, run_err or "cell missing"))
            elif not record.ok:
                outputs.append((op_id, None, record.error))
                op_s.append(record.elapsed_s)
                op_ids.append(op_id)
            else:
                outputs.append((op_id, summary_digest(record.summary),
                                None))
                op_s.append(record.elapsed_s)
                op_ids.append(op_id)
        outputs.append(("report", "ok" if report_err is None else None,
                        report_err))
        results = os.path.join(cdir, "results.jsonl")
        size = os.path.getsize(results) if os.path.exists(results) else 0
        jobs = sum(int(r.summary["n_jobs"]) for r in records.values()
                   if r.ok)
        shutil.rmtree(cdir, ignore_errors=True)
        return PassResult(wall_s=wall, n_cells=len(self.cell_ids()),
                          op_s=op_s, op_ids=op_ids, outputs=outputs,
                          op_host_s=[host_s] * len(op_s), host_s=host_s,
                          sim_jobs=jobs,
                          store_bytes=size, pool_wall_s=pool_wall,
                          sequential=False)

    def cross_check(self, n: int = 3) -> List[Tuple]:
        """Recompute *n* cells of the grid directly through ``run_one``.

        The campaign path (pool worker, store round trip) must give the
        same summary as a direct in-process run of the cell's config;
        the caller compares these digests with the campaign's.
        """
        from repro.campaign.spec import CampaignSpec
        from repro.experiments.runner import run_one

        spec = CampaignSpec(
            days=(self.days,), system_size=(self.nodes,),
            notice_mix=self.mixes, mechanism=tuple(_mech_names()),
            seeds=tuple(self.seeds()),
        )
        cells = spec.expand()
        picks = [cells[i * (len(cells) - 1) // max(1, n - 1)]
                 for i in range(n)]
        out = []
        for cell in picks:
            mech = cell.mechanism or "baseline"
            op_id = f"{cell.notice_mix}/{mech}/{cell.seed}"
            try:
                summary = run_one(cell.workload_spec(), cell.seed,
                                  cell.mechanism_obj(), cell.sim_config())
                out.append((op_id, summary_digest(summary), None))
            except Exception:
                out.append((op_id, None, traceback.format_exc()))
        return out


# ----------------------------------------------------------------------
# report_read
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ReportRead:
    """Read commands over a large finished store (and a diff partner)."""

    n_seeds: int = 100
    days: float = 3.0
    mixes: Tuple[str, ...] = MIXES
    #: share of store B's cells re-put with perturbed summaries
    diff_share: float = 0.1
    name: str = "report_read"
    uses_seed = True

    def spec(self, seed: int):
        from repro.campaign.spec import CampaignSpec

        return CampaignSpec(
            name="report-read", days=(self.days,), notice_mix=self.mixes,
            mechanism=tuple(_mech_names()),
            seeds=tuple(seed * 1000 + i for i in range(self.n_seeds)),
        )

    def setup(self, data_dir: str, seed: int) -> None:
        """Write stores A and B: B is A with a share of cells re-put."""
        import json

        from repro.campaign.store import CellRecord, ResultStore

        spec = self.spec(seed)
        rng = random.Random(seed)
        os.makedirs(data_dir, exist_ok=True)
        with open(os.path.join(data_dir, "spec.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
        a_dir = os.path.join(data_dir, "A")
        store = ResultStore(a_dir)
        store.write_spec(spec.to_dict())
        cells = spec.expand()
        append_records(store, [CellRecord(
            key=cell.key(), config=cell.config(), status="ok",
            summary=fake_summary(rng, cell.mechanism),
            elapsed_s=rng.uniform(0.03, 0.09),
        ) for cell in cells])
        b_dir = os.path.join(data_dir, "B")
        os.makedirs(b_dir)
        for name in ("campaign.json", "results.jsonl"):
            shutil.copyfile(os.path.join(a_dir, name),
                            os.path.join(b_dir, name))
        append_records(ResultStore(b_dir, load=False), [CellRecord(
            key=cell.key(), config=cell.config(), status="ok",
            summary=fake_summary(rng, cell.mechanism),
            elapsed_s=rng.uniform(0.03, 0.09),
        ) for cell in rng.sample(cells, int(len(cells) * self.diff_share))])

    def run_pass(self, data_dir: str, seed: int, index: int,
                 host: HostClock) -> PassResult:
        from repro.campaign.store import invalidate_indexes

        a_dir = os.path.join(data_dir, "A")
        b_dir = os.path.join(data_dir, "B")
        html = os.path.join(data_dir, "report.html")
        n_cells = len(self.spec(seed).expand())
        invalidate_indexes(a_dir)  # every pass reads from a cold index
        commands = [
            ("run", ["campaign", "run", "--spec",
                     os.path.join(data_dir, "spec.json"), "--dir", a_dir,
                     "--workers", str(WORKERS)]),
            ("status", ["campaign", "status", "--dir", a_dir]),
            ("report_html", ["campaign", "report", "--dir", a_dir,
                             "--html", html]),
            ("report_diff", ["campaign", "report", "--dir", a_dir,
                             "--diff", b_dir]),
        ]
        outputs, op_s, op_host_s = [], [], []
        start = time.perf_counter()
        for op_id, argv in commands:
            t0 = time.perf_counter()
            _code, text, err = _cli(argv)
            op_s.append(time.perf_counter() - t0)
            op_host_s.append(host.mark())
            outputs.append((op_id, text, err))
        wall = time.perf_counter() - start

        all_cached = f"{n_cells} cells — {n_cells} cached, 0 ran"
        checked = []
        for op_id, text, err in outputs:
            if err is None and op_id == "run" and all_cached not in text:
                err = "warm run was not fully cached"
            if err is None and op_id == "report_html":
                with open(html, "rb") as fh:
                    text = text + digest_bytes(fh.read())
            checked.append((op_id, None if err else
                            digest_bytes(text.encode("utf-8")), err))
        size = sum(os.path.getsize(os.path.join(d, "results.jsonl"))
                   for d in (a_dir, b_dir))
        return PassResult(wall_s=wall, n_cells=n_cells, op_s=op_s,
                          op_ids=[o[0] for o in checked], outputs=checked,
                          op_host_s=op_host_s,
                          host_s=sum(op_host_s) / len(op_host_s),
                          records=n_cells,
                          store_bytes=size)


def append_records(store, records: List) -> None:
    """Append *records* to *store*'s JSONL as ``ResultStore.put`` would,
    with one fsync for all of them.

    ``put`` fsyncs every record.  Set-up writes thousands, and the fsync
    latency of the shared disk swung fivefold from one minute to the
    next, so with ``put`` the set-up time measured the host's disk more
    than the program.  The lines are ``CellRecord.to_json``, the bytes
    ``put`` writes, and every pass's warm ``campaign run`` checks that the
    store loads with every cell cached.
    """
    with open(store.results_path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(record.to_json() + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def fake_summary(rng: random.Random, mechanism: Optional[str]) -> Dict:
    """A Fig. 6-shaped ``SummaryMetrics.to_dict()`` with random values."""
    from repro.metrics.summary import SummaryMetrics

    out: Dict[str, object] = {}
    for fld in dataclasses.fields(SummaryMetrics):
        if fld.name == "mechanism":
            out[fld.name] = mechanism
        elif fld.type == "int":
            out[fld.name] = rng.randint(0, 3000)
        elif fld.name.endswith("_h"):
            out[fld.name] = rng.uniform(0.5, 48.0)
        elif fld.name.endswith("_s"):
            out[fld.name] = rng.uniform(1e-5, 1e-2)
        else:
            out[fld.name] = rng.uniform(0.0, 1.0)
    return out


WORKLOADS = {w.name: w for w in (PaperLong(), Fig6Grid(), ReportRead())}
