"""The incremental progress index and the status/watch dashboard.

Covers the tentpole properties:

* warm refreshes read only appended bytes (never reopening unchanged
  files), across process restarts via the persisted ``index/*.json``;
* torn trailing lines are tolerated — never consumed, warned about
  once, parsed once their newline lands;
* a file that shrinks or is replaced (``compact``, rsync) triggers an
  automatic full rescan of that file only;
* ``compact`` explicitly invalidates every cached index;
* golden snapshots of ``campaign status`` and a ``status --watch``
  frame (throughput, ETA, failure details);
* a ``campaign run`` SIGKILLed mid-grid and re-run on the same
  directory produces results canonically byte-identical to an
  uninterrupted run.
"""

import json
import logging
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    CellRecord,
    ProgressIndex,
    ResultStore,
    run_campaign,
)
from repro.campaign.progress import (
    ThroughputTracker,
    format_duration,
    spec_cell_keys,
    status_report,
    take_snapshot,
    watch_status,
)
from repro.campaign.store import iter_jsonl_records, read_jsonl_since

SMALL = {
    "name": "small",
    "days": 2,
    "target_load": 0.6,
    "system_size": 512,
    "mechanism": [None, "N&PAA"],
    "seeds": [1, 2],
}


def record(key, status="ok", elapsed=1.0, payload=None):
    return CellRecord(
        key=key,
        config={"seed": 1},
        status=status,
        payload=payload or {"x": 1},
        error=None if status == "ok" else "boom",
        elapsed_s=elapsed,
    )


def append_records(path: Path, records) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        for r in records:
            fh.write(r.to_json() + "\n")


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestReadJsonlSince:
    def test_reads_from_offset_only(self, tmp_path):
        path = tmp_path / "r.jsonl"
        append_records(path, [record("k1"), record("k2")])
        all_records, offset, torn = read_jsonl_since(path, 0)
        assert [r.key for r in all_records] == ["k1", "k2"]
        assert offset == path.stat().st_size and not torn
        append_records(path, [record("k3")])
        new, offset2, torn = read_jsonl_since(path, offset)
        assert [r.key for r in new] == ["k3"] and not torn
        assert offset2 == path.stat().st_size

    def test_torn_tail_not_consumed_then_healed(self, tmp_path):
        path = tmp_path / "r.jsonl"
        append_records(path, [record("k1")])
        boundary = path.stat().st_size
        line = record("k2").to_json()
        with path.open("a", encoding="utf-8") as fh:
            fh.write(line[:10])  # killed mid-append
        records, offset, torn = read_jsonl_since(path, 0)
        assert [r.key for r in records] == ["k1"]
        assert offset == boundary and torn
        # the writer resumes: complete the record in place
        with path.open("a", encoding="utf-8") as fh:
            fh.write(line[10:] + "\n")
        healed, offset2, torn = read_jsonl_since(path, offset)
        assert [r.key for r in healed] == ["k2"] and not torn
        assert offset2 == path.stat().st_size

    def test_unparsable_complete_line_skipped_with_warning(
        self, tmp_path, caplog
    ):
        path = tmp_path / "r.jsonl"
        append_records(path, [record("k1")])
        with path.open("a", encoding="utf-8") as fh:
            fh.write("{this is not json}\n")
        append_records(path, [record("k2")])
        with caplog.at_level(logging.WARNING, "repro.campaign.store"):
            records, offset, torn = read_jsonl_since(path, 0)
        assert [r.key for r in records] == ["k1", "k2"]
        assert offset == path.stat().st_size and not torn
        assert any("unparsable" in m for m in caplog.messages)

    def test_iter_jsonl_records_warns_on_torn_tail(self, tmp_path, caplog):
        """A truncated file loses only the torn record, with a warning."""
        path = tmp_path / "results.jsonl"
        append_records(path, [record("k1"), record("k2")])
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "k3", "config": {}, "sta')  # SIGKILL here
        with caplog.at_level(logging.WARNING, "repro.campaign.store"):
            records = list(iter_jsonl_records(path))
        assert [r.key for r in records] == ["k1", "k2"]
        assert any("torn trailing line" in m for m in caplog.messages)

    def test_missing_file(self, tmp_path):
        records, offset, torn = read_jsonl_since(tmp_path / "no.jsonl", 0)
        assert records == [] and offset == 0 and not torn


class TestProgressIndex:
    def test_cold_then_warm_refresh(self, tmp_path):
        d = tmp_path / "c"
        results = d / "results.jsonl"
        append_records(results, [record("k1"), record("k2", "error")])
        index = ProgressIndex(d)
        cold = index.refresh()
        assert cold.n_new_records == 2 and cold.n_rescans == 1
        assert index.keys() == {"k1", "k2"}
        assert index.statuses() == {"k1": "ok", "k2": "error"}
        # warm, unchanged: zero bytes read, zero files rescanned
        warm = index.refresh()
        assert warm.n_bytes_read == 0 and warm.n_new_records == 0
        assert warm.n_rescans == 0
        # append one record: only its bytes are read
        line_len = len(record("k3").to_json()) + 1
        append_records(results, [record("k3")])
        delta = index.refresh()
        assert delta.n_bytes_read == line_len
        assert delta.n_new_records == 1 and delta.n_rescans == 0
        assert index.keys() == {"k1", "k2", "k3"}

    def test_persists_across_instances(self, tmp_path):
        d = tmp_path / "c"
        append_records(d / "results.jsonl", [record("k1"), record("k2")])
        ProgressIndex(d).refresh()
        assert (d / "index" / "progress.json").exists()
        again = ProgressIndex(d)  # a different process, later
        assert again.keys() == {"k1", "k2"}  # loaded, pre-refresh
        warm = again.refresh()
        assert warm.n_bytes_read == 0 and warm.n_rescans == 0

    def test_shrunk_file_triggers_full_rescan(self, tmp_path):
        d = tmp_path / "c"
        results = d / "results.jsonl"
        append_records(results, [record("k1"), record("k2")])
        index = ProgressIndex(d)
        index.refresh()
        # truncate to the first record (keep the inode)
        lines = results.read_text().splitlines()
        with results.open("r+", encoding="utf-8") as fh:
            fh.truncate(len(lines[0]) + 1)
        stats = index.refresh()
        assert stats.n_rescans == 1
        assert index.keys() == {"k1"}

    def test_replaced_file_triggers_full_rescan(self, tmp_path):
        d = tmp_path / "c"
        results = d / "results.jsonl"
        append_records(results, [record("k1")])
        index = ProgressIndex(d)
        index.refresh()
        tmp = results.with_name("new.tmp")
        append_records(tmp, [record("k9")])
        os.replace(tmp, results)  # same size, new inode
        stats = index.refresh()
        assert stats.n_rescans == 1
        assert index.keys() == {"k9"}

    def test_vanished_file_dropped(self, tmp_path):
        d = tmp_path / "c"
        results = d / "results.jsonl"
        append_records(results, [record("k1")])
        index = ProgressIndex(d)
        index.refresh()
        results.unlink()
        stats = index.refresh()
        assert stats.n_dropped == 1
        assert index.keys() == set()

    def test_torn_tail_warned_once_then_healed(self, tmp_path, caplog):
        d = tmp_path / "c"
        results = d / "results.jsonl"
        append_records(results, [record("k1")])
        line = record("k2").to_json()
        with results.open("a", encoding="utf-8") as fh:
            fh.write(line[:8])
        index = ProgressIndex(d)
        with caplog.at_level(logging.WARNING, "repro.campaign.progress"):
            first = index.refresh()
            second = index.refresh()
        assert first.n_torn == 1 and second.n_torn == 1
        assert index.keys() == {"k1"}
        torn_warnings = [
            m for m in caplog.messages if "torn trailing line" in m
        ]
        assert len(torn_warnings) == 1  # throttled across refreshes
        with results.open("a", encoding="utf-8") as fh:
            fh.write(line[8:] + "\n")
        healed = index.refresh()
        assert healed.n_new_records == 1 and healed.n_torn == 0
        assert index.keys() == {"k1", "k2"}

    def test_compact_invalidates_indexes(self, tmp_path):
        d = tmp_path / "c"
        store = ResultStore(d)
        store.put(record("k1", "error"))
        store.put(record("k1", "ok"))
        index = ProgressIndex(d)
        index.refresh()
        assert index.path.exists()
        stats = store.compact()
        assert stats.n_superseded == 1
        assert not index.path.exists()
        # a fresh index rebuilds correctly from the compacted file
        rebuilt = ProgressIndex(d)
        rebuilt.refresh()
        assert rebuilt.statuses() == {"k1": "ok"}

    def test_statuses_last_write_wins(self, tmp_path):
        """A key's status is that of its last record — a retried cell
        heals to ok, and a later error supersedes an ok, exactly as
        :class:`ResultStore` replays the file."""
        d = tmp_path / "c"
        append_records(
            d / "results.jsonl",
            [record("k1", "error"), record("k1"),
             record("k2"), record("k2", "error")],
        )
        index = ProgressIndex(d)
        index.refresh()
        store = ResultStore(d)
        assert index.statuses() == {"k1": "ok", "k2": "error"}
        assert index.statuses() == {
            r.key: r.status for r in store.records()
        }

    def test_index_save_failure_is_tolerated(self, tmp_path, monkeypatch,
                                             caplog):
        """A read-only campaign mount: status/scan paths keep working with
        in-memory state instead of crashing on the cache write."""
        d = tmp_path / "c"
        append_records(d / "results.jsonl", [record("k1")])

        def deny(_src, _dst):
            raise PermissionError("read-only file system")

        monkeypatch.setattr("repro.campaign.progress.os.replace", deny)
        with caplog.at_level(logging.INFO, "repro.campaign.progress"):
            index = ProgressIndex(d)
            index.refresh()
        assert index.keys() == {"k1"}
        assert not (d / "index" / "progress.json").exists()
        assert any("not persisted" in m for m in caplog.messages)

    def test_no_directory_no_side_effects(self, tmp_path):
        d = tmp_path / "nothing"
        index = ProgressIndex(d)
        stats = index.refresh()
        assert stats.n_files == 0
        assert not d.exists()  # scanning nothing creates nothing

    def test_corrupt_index_file_rebuilds(self, tmp_path):
        d = tmp_path / "c"
        append_records(d / "results.jsonl", [record("k1")])
        (d / "index").mkdir()
        (d / "index" / "progress.json").write_text("{torn", "utf-8")
        index = ProgressIndex(d)
        stats = index.refresh()
        assert stats.n_rescans == 1
        assert index.keys() == {"k1"}


class TestResultStoreRefresh:
    def test_refresh_folds_appended_records(self, tmp_path):
        d = tmp_path / "c"
        store = ResultStore(d)
        store.put(record("k1"))
        other = ResultStore(d)
        store.put(record("k2"))
        assert "k2" not in other
        assert other.refresh() == 1
        assert "k2" in other and len(other) == 2
        assert other.refresh() == 0

    def test_refresh_reloads_after_rewrite(self, tmp_path):
        d = tmp_path / "c"
        store = ResultStore(d)
        store.put(record("k1", "error"))
        store.put(record("k1"))
        other = ResultStore(d)
        store.compact()
        other.refresh()
        assert len(other) == 1 and other.get("k1").ok

    def test_own_puts_do_not_rescan(self, tmp_path):
        d = tmp_path / "c"
        store = ResultStore(d)
        store.put(record("k1"))
        store.put(record("k2"))
        assert store.refresh() == 0  # offset tracked through puts


KEY_RE = re.compile(r"\b[0-9a-f]{16}\b")


def normalized(text: str) -> str:
    """Replace 16-hex cell keys with stable placeholders, in order of
    first appearance, so golden snapshots survive config hashing."""
    seen = {}

    def sub(match):
        key = match.group(0)
        if key not in seen:
            seen[key] = f"<KEY{len(seen)}>"
        return seen[key]

    return KEY_RE.sub(sub, text)


def build_fixture_dir(tmp_path) -> Path:
    """A deterministic campaign dir: 4-cell spec, 2 ok + 1 error."""
    d = tmp_path / "c"
    spec = CampaignSpec.from_dict(SMALL)
    ResultStore(d, load=False).write_spec(spec.to_dict())
    cells = spec.expand()
    append_records(
        d / "results.jsonl",
        [
            CellRecord(key=cells[0].key(), config=cells[0].config(),
                       status="ok", payload={"x": 1}, elapsed_s=2.0),
            CellRecord(key=cells[1].key(), config=cells[1].config(),
                       status="ok", payload={"x": 1}, elapsed_s=3.0),
            CellRecord(key=cells[2].key(), config=cells[2].config(),
                       status="error", error="RuntimeError: boom",
                       elapsed_s=0.5),
        ],
    )
    return d


class TestStatusGolden:
    def test_status_report_golden(self, tmp_path):
        d = build_fixture_dir(tmp_path)
        text = status_report(d, clock=FakeClock(1010.0))
        assert normalized(text) == "\n".join(
            [
                "campaign 'small': 2/4 cells done, 1 failed, 1 pending",
                "stored records: 3 (5.5s compute)",
                "  FAILED <KEY0>: RuntimeError: boom",
            ]
        )

    def test_watch_single_frame_golden(self, tmp_path):
        d = build_fixture_dir(tmp_path)
        frames = []
        watch_status(
            d,
            interval_s=30.0,
            frames=1,
            out=frames.append,
            clock=FakeClock(1010.0),
            sleep=lambda _s: pytest.fail("one frame must not sleep"),
        )
        assert len(frames) == 1
        assert normalized(frames[0]) == "\n".join(
            [
                "campaign 'small': 2/4 cells done, 1 failed, 1 pending",
                "stored records: 3 (5.5s compute)",
                "throughput: n/a — ETA n/a",
            ]
        )

    def test_watch_throughput_and_eta(self, tmp_path):
        """Second frame: completion rate from the appended cell, ETA
        from that rate."""
        d = build_fixture_dir(tmp_path)
        spec = CampaignSpec.from_dict(SMALL)
        clock = FakeClock(1000.0)
        frames = []

        def advance_and_append(_interval):
            clock.advance(60.0)
            cells = spec.expand()
            append_records(
                d / "results.jsonl",
                [CellRecord(key=cells[3].key(), config=cells[3].config(),
                            status="ok", payload={"x": 1}, elapsed_s=4.0)],
            )

        watch_status(
            d,
            interval_s=60.0,
            frames=2,
            out=frames.append,
            clock=clock,
            sleep=advance_and_append,
        )
        # out() is also called with "" as a frame separator
        frames = [f for f in frames if f]
        assert len(frames) == 2
        second = normalized(frames[1])
        assert "campaign 'small': 3/4 cells done, 1 failed, 0 pending" in second
        # 1 cell completed in 60s -> 1.0 cells/min, 0 pending -> ETA 0s
        assert "throughput: 1.0 cells/min — ETA 0s" in second
        assert "stored records: 4 (9.5s compute)" in second

    def test_status_without_spec(self, tmp_path):
        d = tmp_path / "c"
        append_records(d / "results.jsonl", [record("k1")])
        text = status_report(d, clock=FakeClock())
        assert "1 ok / 0 failed records (no campaign.json)" in text

    def test_cli_status_watch_frames(self, tmp_path, capsys):
        from repro.experiments.cli import main as cli_main

        d = build_fixture_dir(tmp_path)
        code = cli_main(
            [
                "campaign", "status", "--dir", str(d),
                "--watch", "--frames", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput:" in out and "cells done" in out


class TestThroughputTracker:
    def _snap(self, t, done, failed=0, n_records=None):
        from repro.campaign.progress import StatusSnapshot

        return StatusSnapshot(
            time=t, name="x", n_cells=100, n_done=done, n_failed=failed,
            n_records=done + failed if n_records is None else n_records,
            elapsed_s=0.0,
        )

    def test_single_sample_has_no_rate(self):
        tracker = ThroughputTracker()
        tracker.add(self._snap(0.0, 10))
        assert tracker.cells_per_min() is None
        assert tracker.eta_s(self._snap(0.0, 10)) is None

    def test_rate_and_eta(self):
        tracker = ThroughputTracker(window_s=300)
        tracker.add(self._snap(0.0, 10))
        snap = self._snap(60.0, 40)
        tracker.add(snap)
        assert tracker.cells_per_min() == pytest.approx(30.0)
        # 100 - 40 pending at 0.5 cells/s -> 120 s
        assert tracker.eta_s(snap) == pytest.approx(120.0)

    def test_window_prunes_old_samples(self):
        tracker = ThroughputTracker(window_s=100)
        for t, done in [(0, 0), (60, 60), (120, 90), (180, 105)]:
            tracker.add(self._snap(float(t), done))
        # the t=0 and t=60 samples fell out of the 100 s window
        assert tracker.cells_per_min() == pytest.approx(
            60.0 * (105 - 90) / 60.0
        )

    def test_duplicate_executions_do_not_inflate_rate(self):
        tracker = ThroughputTracker()
        tracker.add(self._snap(0.0, 10, n_records=10))
        # the file grew by 5 records but only 2 new unique cells completed
        tracker.add(self._snap(60.0, 12, n_records=15))
        assert tracker.cells_per_min() == pytest.approx(2.0)

    def test_format_duration(self):
        assert format_duration(None) == "n/a"
        assert format_duration(42) == "42s"
        assert format_duration(250) == "4m10s"
        assert format_duration(48245) == "13h24m"


class TestKillResumeByteIdentical:
    def test_sigkilled_campaign_run_resumes_to_solo_bytes(
        self, tmp_path, capsys
    ):
        """A pooled ``campaign run`` SIGKILLed once its first record
        lands, then re-run on the same directory, ends canonically
        byte-identical to an uninterrupted run: survivors are cached,
        the rest re-run."""
        from repro.experiments.cli import main as cli_main

        spec_file = tmp_path / "small.json"
        spec_file.write_text(json.dumps(SMALL), encoding="utf-8")
        d = tmp_path / "killed"
        argv = [
            "campaign", "run", "--dir", str(d), "--spec", str(spec_file),
            "--workers", "2",
        ]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        # own session, so the kill takes the pool children down with it
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", *argv],
            env=env,
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        results = d / "results.jsonl"
        try:
            deadline = time.time() + 60
            while proc.poll() is None and time.time() < deadline:
                if results.exists() and results.read_bytes().count(b"\n"):
                    break
                time.sleep(0.002)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        survivors = ResultStore(d).completed_keys()
        assert survivors, "the killed run stored no record"

        assert cli_main(argv) == 0
        n_cells = len(CampaignSpec.from_dict(SMALL).expand())
        assert (
            f"{len(survivors)} cached, {n_cells - len(survivors)} ran"
            in capsys.readouterr().out
        )
        solo = tmp_path / "solo"
        run_campaign(CampaignSpec.from_dict(SMALL), directory=solo)
        resumed_bytes = ResultStore(d).canonical_bytes()
        solo_bytes = ResultStore(solo).canonical_bytes()
        assert resumed_bytes and resumed_bytes == solo_bytes

    def test_canonical_bytes_ignore_wall_clock(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        a.put(record("k1", elapsed=1.0))
        a.put(record("k2", elapsed=2.0))
        b.put(record("k2", elapsed=9.0))  # different order + timings
        b.put(record("k1", elapsed=7.0))
        assert a.canonical_bytes() == b.canonical_bytes()


class TestSpecCellKeys:
    def test_round_trip(self, tmp_path):
        d = tmp_path / "c"
        spec = CampaignSpec.from_dict(SMALL)
        ResultStore(d, load=False).write_spec(spec.to_dict())
        name, keys = spec_cell_keys(d)
        assert name == "small"
        assert keys == {c.key() for c in spec.expand()}

    def test_missing_spec(self, tmp_path):
        assert spec_cell_keys(tmp_path) == (None, None)

    def test_take_snapshot_without_spec(self, tmp_path):
        d = tmp_path / "c"
        append_records(d / "results.jsonl", [record("k1"),
                                             record("k2", "error")])
        index = ProgressIndex(d)
        snap = take_snapshot(index, clock=FakeClock())
        assert snap.n_cells is None and snap.n_pending is None
        assert snap.n_done == 1 and snap.n_failed == 1
