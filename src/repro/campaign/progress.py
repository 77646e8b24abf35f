"""Incremental campaign progress accounting and the live status dashboard.

A ``campaign status`` that re-reads *all* of ``results.jsonl`` to learn
which cells already have records pays for everything finished so far,
every frame of ``--watch`` included, instead of for what is new.

:class:`ProgressIndex` avoids that.  It remembers the byte offset up to
which ``results.jsonl`` has been folded in, the file's inode, and the
key→status map those records produced, and persists the whole thing
atomically as ``index/<name>.json`` under the campaign directory.  A
refresh then:

* ``stat``\\ s the file and reads **only bytes appended** past the
  remembered offset (a file whose size equals its offset is not even
  opened);
* never consumes a torn trailing line (a writer killed — or caught —
  mid-append): the offset stops at the last newline, so the fragment is
  re-examined next pass and parsed once its newline lands;
* falls back to a **full rescan** when the inode changed or the file
  shrank (``compact``, rsync, truncation) — offsets into a rewritten
  file are meaningless;
* drops its state when the file vanished.

The index is a pure cache: deleting it (or ``ResultStore.compact``
invalidating it) merely makes the next scan cold.  Any number of
readers may share one index file — saves are atomic replaces, and a
lost save only means someone re-reads a few bytes.

On top of the index sit :func:`take_snapshot` /
:class:`ThroughputTracker` / :func:`watch_status`: the ``campaign
status --watch`` dashboard, with completion throughput (cells/min),
error counts, and a grid ETA.
"""

from __future__ import annotations

import json
import logging
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.campaign.store import (
    INDEX_DIR,
    RESULTS_FILE,
    read_jsonl_since,
)
from repro.obs import get_obs

logger = logging.getLogger(__name__)

INDEX_VERSION = 1


@dataclass
class FileState:
    """Index state for one tracked JSONL file."""

    #: byte offset of the last consumed line boundary
    offset: int = 0
    #: inode the offset belongs to; a different inode voids the offset
    inode: Optional[int] = None
    #: lines parsed so far (duplicates included — this is append volume)
    n_records: int = 0
    #: total recorded compute time of those lines
    elapsed_s: float = 0.0
    #: key → status of the *last* record seen per key (file-local
    #: last-write-wins, matching :class:`ResultStore` replay semantics)
    keys: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "offset": self.offset,
            "inode": self.inode,
            "n_records": self.n_records,
            "elapsed_s": self.elapsed_s,
            "keys": self.keys,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "FileState":
        return FileState(
            offset=int(data["offset"]),
            inode=(None if data["inode"] is None else int(data["inode"])),
            n_records=int(data.get("n_records", 0)),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            keys={str(k): str(v) for k, v in dict(data["keys"]).items()},
        )


@dataclass(frozen=True)
class RefreshStats:
    """What one :meth:`ProgressIndex.refresh` pass actually did — the
    observability hook for the ≥10x warm-scan claim."""

    n_files: int
    n_bytes_read: int
    n_new_records: int
    #: files read from byte 0 (new, shrunk, or inode changed)
    n_rescans: int
    #: tracked files that vanished since the last pass
    n_dropped: int
    #: files currently ending in an unconsumed torn line
    n_torn: int


class ProgressIndex:
    """Byte-offset index over a campaign directory's ``results.jsonl``.

    Persists to ``index/<name>.json``.  All state is revalidated
    against the file's size and inode on every :meth:`refresh`, so the
    persisted file is safe to share between readers — and safe to
    delete at any time.
    """

    def __init__(
        self,
        directory: os.PathLike,
        name: str = "progress",
        autosave: bool = True,
        save_interval_s: float = 5.0,
    ) -> None:
        self.directory = Path(directory)
        self.name = name
        self.autosave = autosave
        #: autosaves serialize the whole key set — O(total), the one
        #: cost that must NOT be paid per appended record — so refresh
        #: persists at most once per this interval; a skipped save only
        #: means the next loader re-reads a few recent lines
        self.save_interval_s = float(save_interval_s)
        self.files: Dict[str, FileState] = {}
        self._last_save_t = 0.0
        self._save_failed = False
        #: per-file offset of the last torn tail already warned about,
        #: so a live in-flight append does not warn on every refresh
        self._torn_warned: Dict[str, int] = {}
        self._load()

    @property
    def path(self) -> Path:
        return self.directory / INDEX_DIR / f"{self.name}.json"

    # --- persistence -------------------------------------------------------
    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
            # count the on-disk copy's age against the autosave
            # throttle, so short-lived processes (one status call)
            # don't each rewrite the whole index
            self._last_save_t = self.path.stat().st_mtime
        except (FileNotFoundError, OSError, json.JSONDecodeError):
            return
        if not isinstance(data, dict) or data.get("version") != INDEX_VERSION:
            return  # unknown format: treat as cold, rebuild on refresh
        try:
            self.files = {
                str(rel): FileState.from_dict(state)
                for rel, state in dict(data["files"]).items()
            }
        except (KeyError, TypeError, ValueError):
            self.files = {}

    def save(self) -> None:
        """Atomically persist the index (temp file + ``os.replace``).

        A directory that does not exist yet is never created just to
        cache a scan of nothing, and an unwritable directory (status
        watched from a host with a read-only mount) is tolerated — the
        index is a pure cache, so this process just stays in-memory.
        """
        if not self.directory.is_dir():
            return
        payload = json.dumps(
            {
                "version": INDEX_VERSION,
                "files": {
                    rel: state.to_dict() for rel, state in self.files.items()
                },
            },
            sort_keys=True,
        )
        tmp = self.path.with_name(
            f"{self.path.name}.tmp-{uuid.uuid4().hex[:8]}"
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(payload + "\n", encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError as exc:
            if not self._save_failed:
                self._save_failed = True
                logger.info(
                    "progress index %s not persisted (%s); continuing "
                    "with in-memory state only",
                    self.path,
                    exc,
                )
            try:
                tmp.unlink()
            except OSError:
                pass
        finally:
            # throttle retries too: re-serializing the key map every
            # refresh on a read-only mount would defeat the whole point
            self._last_save_t = time.time()

    def invalidate(self) -> None:
        """Forget everything and remove the persisted file."""
        self.files = {}
        self._torn_warned = {}
        try:
            self.path.unlink()
        except (FileNotFoundError, OSError):
            pass

    # --- scanning ----------------------------------------------------------
    def tracked_files(self) -> List[str]:
        """Directory-relative paths this index covers: ``results.jsonl``
        once it exists."""
        if (self.directory / RESULTS_FILE).exists():
            return [RESULTS_FILE]
        return []

    def refresh(self) -> RefreshStats:
        """Fold appended records in; O(appended bytes) when warm."""
        present = self.tracked_files()
        n_bytes = n_new = n_rescans = n_torn = 0
        vanished = [rel for rel in self.files if rel not in present]
        for rel in vanished:
            del self.files[rel]
            self._torn_warned.pop(rel, None)
        for rel in present:
            path = self.directory / rel
            try:
                st = path.stat()
            except FileNotFoundError:
                continue  # deleted between listing and stat
            state = self.files.get(rel)
            if state is None:
                state = self.files[rel] = FileState(inode=st.st_ino)
                n_rescans += 1
            elif state.inode != st.st_ino or st.st_size < state.offset:
                logger.info(
                    "progress index %s: full rescan of %s (%s)",
                    self.name,
                    rel,
                    "inode changed"
                    if state.inode != st.st_ino
                    else "file shrank",
                )
                state = self.files[rel] = FileState(inode=st.st_ino)
                n_rescans += 1
            if st.st_size == state.offset:
                continue  # nothing appended: not even opened
            records, new_offset, torn = read_jsonl_since(path, state.offset)
            n_bytes += new_offset - state.offset
            state.offset = new_offset
            for record in records:
                state.keys[record.key] = record.status
                state.n_records += 1
                state.elapsed_s += record.elapsed_s
            n_new += len(records)
            if torn:
                n_torn += 1
                if self._torn_warned.get(rel) != new_offset:
                    logger.warning(
                        "torn trailing line in %s at byte %d (writer "
                        "killed mid-append?) — skipped until completed",
                        path,
                        new_offset,
                    )
                    self._torn_warned[rel] = new_offset
            else:
                self._torn_warned.pop(rel, None)
        if n_bytes:
            get_obs().counter("progress.scan.bytes").inc(n_bytes)
        stats = RefreshStats(
            n_files=len(present),
            n_bytes_read=n_bytes,
            n_new_records=n_new,
            n_rescans=n_rescans,
            n_dropped=len(vanished),
            n_torn=n_torn,
        )
        if (
            self.autosave
            and (n_new or n_rescans or vanished)
            and time.time() - self._last_save_t >= self.save_interval_s
        ):
            self.save()
        return stats

    # --- aggregate views ---------------------------------------------------
    def keys(self) -> Set[str]:
        """Every key with a record (any status)."""
        out: Set[str] = set()
        for state in self.files.values():
            out.update(state.keys)
        return out

    def statuses(self) -> Dict[str, str]:
        """Key → status of its last record (last write wins, the
        :class:`ResultStore` replay rule)."""
        out: Dict[str, str] = {}
        for state in self.files.values():
            out.update(state.keys)
        return out

    def n_records(self) -> int:
        return sum(state.n_records for state in self.files.values())

    def elapsed_s(self) -> float:
        return sum(state.elapsed_s for state in self.files.values())


# --- status snapshots and the watch dashboard ------------------------------

@dataclass(frozen=True)
class StatusSnapshot:
    """Everything one dashboard frame needs, index-derived."""

    time: float
    name: Optional[str]
    #: grid size per the stored spec; None when no campaign.json exists
    n_cells: Optional[int]
    n_done: int
    n_failed: int
    n_records: int
    elapsed_s: float

    @property
    def n_pending(self) -> Optional[int]:
        if self.n_cells is None:
            return None
        return self.n_cells - self.n_done - self.n_failed


def spec_cell_keys(directory: os.PathLike) -> Tuple[Optional[str], Optional[frozenset]]:
    """(campaign name, cell key set) from ``campaign.json``; Nones when
    the directory has no stored spec.  O(grid) once — watch callers
    cache the result across frames."""
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import SPEC_FILE

    path = Path(directory) / SPEC_FILE
    if not path.exists():
        return None, None
    spec = CampaignSpec.from_dict(
        json.loads(path.read_text(encoding="utf-8"))
    )
    return spec.name, frozenset(c.key() for c in spec.expand())


def take_snapshot(
    index: ProgressIndex,
    spec_name: Optional[str] = None,
    spec_keys: Optional[frozenset] = None,
    clock: Callable[[], float] = time.time,
) -> StatusSnapshot:
    """Refresh the index and read one dashboard frame's worth of state."""
    index.refresh()
    statuses = index.statuses()
    if spec_keys is not None:
        n_done = sum(1 for k in spec_keys if statuses.get(k) == "ok")
        n_failed = sum(
            1 for k in spec_keys if statuses.get(k) == "error"
        )
        n_cells: Optional[int] = len(spec_keys)
    else:
        n_done = sum(1 for s in statuses.values() if s == "ok")
        n_failed = len(statuses) - n_done
        n_cells = None
    return StatusSnapshot(
        time=clock(),
        name=spec_name,
        n_cells=n_cells,
        n_done=n_done,
        n_failed=n_failed,
        n_records=index.n_records(),
        elapsed_s=index.elapsed_s(),
    )


class ThroughputTracker:
    """Sliding-window rates over a sequence of snapshots.

    Completion throughput comes from the done+failed cell count (unique
    keys, so re-executed cells never inflate it).
    """

    def __init__(self, window_s: float = 120.0) -> None:
        self.window_s = float(window_s)
        self._samples: List[StatusSnapshot] = []

    def add(self, snapshot: StatusSnapshot) -> None:
        self._samples.append(snapshot)
        cutoff = snapshot.time - self.window_s
        while len(self._samples) > 2 and self._samples[0].time < cutoff:
            self._samples.pop(0)

    def _span(self) -> Optional[Tuple[StatusSnapshot, StatusSnapshot]]:
        if len(self._samples) < 2:
            return None
        first, last = self._samples[0], self._samples[-1]
        if last.time <= first.time:
            return None
        return first, last

    def cells_per_min(self) -> Optional[float]:
        span = self._span()
        if span is None:
            return None
        first, last = span
        done = (last.n_done + last.n_failed) - (
            first.n_done + first.n_failed
        )
        return 60.0 * done / (last.time - first.time)

    def eta_s(self, snapshot: StatusSnapshot) -> Optional[float]:
        rate = self.cells_per_min()
        if not rate or rate <= 0 or snapshot.n_pending is None:
            return None
        return snapshot.n_pending / (rate / 60.0)


def format_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "n/a"
    seconds = max(0.0, seconds)
    if seconds >= 3600:
        return f"{int(seconds // 3600)}h{int(seconds % 3600 // 60):02d}m"
    if seconds >= 60:
        return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"
    return f"{seconds:.0f}s"


def _progress_line(snapshot: StatusSnapshot) -> str:
    if snapshot.n_cells is None:
        return (
            f"{snapshot.n_done} ok / {snapshot.n_failed} failed records "
            "(no campaign.json)"
        )
    return (
        f"campaign {snapshot.name!r}: {snapshot.n_done}/"
        f"{snapshot.n_cells} cells done, {snapshot.n_failed} failed, "
        f"{snapshot.n_pending} pending"
    )


def render_status(
    snapshot: StatusSnapshot,
    tracker: Optional[ThroughputTracker] = None,
) -> str:
    """Render one status frame.

    With a *tracker* (watch mode) a throughput and ETA line is included.
    """
    lines = [_progress_line(snapshot)]
    lines.append(
        f"stored records: {snapshot.n_records} "
        f"({snapshot.elapsed_s:.1f}s compute)"
    )
    if tracker is not None:
        rate = tracker.cells_per_min()
        rate_text = f"{rate:.1f} cells/min" if rate is not None else "n/a"
        eta = format_duration(tracker.eta_s(snapshot))
        lines.append(f"throughput: {rate_text} — ETA {eta}")
    return "\n".join(lines)


def status_report(
    directory: os.PathLike,
    index: Optional[ProgressIndex] = None,
    clock: Callable[[], float] = time.time,
) -> str:
    """One-shot ``campaign status``: index-backed progress plus
    per-failure detail (which needs record bodies, so the store is only
    read when failures exist)."""
    index = index or ProgressIndex(directory)
    spec_name, spec_keys = spec_cell_keys(directory)
    snapshot = take_snapshot(index, spec_name, spec_keys, clock=clock)
    text = render_status(snapshot)
    if snapshot.n_failed:
        # failure details need record bodies, which the index does not
        # keep — re-read the file, but only on the failure path
        from repro.campaign.store import iter_jsonl_records

        statuses = index.statuses()
        failed = {k for k, s in statuses.items() if s != "ok"}
        errors: Dict[str, Optional[str]] = {}
        for rel in index.tracked_files():
            for record in iter_jsonl_records(Path(directory) / rel):
                if not record.ok and record.key in failed:
                    errors[record.key] = record.error
        for key in sorted(failed):
            first = (errors.get(key) or "").strip().splitlines()
            text += f"\n  FAILED {key}: {first[-1] if first else '?'}"
    return text


def watch_status(
    directory: os.PathLike,
    interval_s: float = 2.0,
    frames: Optional[int] = None,
    window_s: float = 120.0,
    out: Callable[[str], None] = print,
    clock: Callable[[], float] = time.time,
    sleep: Callable[[float], None] = time.sleep,
    clear: bool = False,
) -> int:
    """The ``campaign status --watch`` loop.

    Renders a frame every *interval_s* seconds until interrupted (or
    for exactly *frames* frames — tests and scripted health checks use
    that).  Each frame costs one warm index refresh: O(bytes appended
    since the previous frame).  *clear* emits an ANSI home+clear before
    every frame after the first, terminal-dashboard style.
    """
    index = ProgressIndex(directory)
    spec_name, spec_keys = spec_cell_keys(directory)
    tracker = ThroughputTracker(window_s=window_s)
    n = 0
    try:
        while frames is None or n < frames:
            if n and clear:
                out("\x1b[2J\x1b[H")
            elif n:
                out("")
            if spec_keys is None:
                # a run may write campaign.json after the watch starts
                spec_name, spec_keys = spec_cell_keys(directory)
            snapshot = take_snapshot(index, spec_name, spec_keys, clock=clock)
            tracker.add(snapshot)
            out(render_status(snapshot, tracker=tracker))
            n += 1
            if frames is None or n < frames:
                sleep(interval_s)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0
