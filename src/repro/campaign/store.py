"""Persistent, append-only campaign result store.

One campaign lives in one directory::

    <dir>/campaign.json    the expanded spec (for status/report/resume)
    <dir>/results.jsonl    one strict-JSON record per completed cell
    <dir>/index/*.json     cached progress indexes (pure caches)

``campaign run`` is the directory's one writer: its process appends
every record, pool workers only compute them.

Records are keyed by the cell's content address (a SHA-256 prefix of its
canonical config), so the store is *content-addressed*: re-running a
campaign — or a different campaign that happens to share cells — skips
every cell whose key is already present with an ``ok`` status.  JSONL
with append-and-flush writes means a killed run loses at most the cell
in flight; the next run replays the file and resumes from the survivors.

The format is deliberately plain (no sqlite, no schema migrations): a
store can be inspected with ``jq``, concatenated from several partial
runs, or rsync'd between machines without tooling.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.metrics.summary import SummaryMetrics, deterministic_view
from repro.util.errors import ConfigurationError

logger = logging.getLogger(__name__)

RESULTS_FILE = "results.jsonl"
SPEC_FILE = "campaign.json"
#: cached progress indexes (see :mod:`repro.campaign.progress`) live here
INDEX_DIR = "index"


@dataclass(frozen=True)
class CellRecord:
    """One stored cell outcome (simulation summary or trace stats)."""

    key: str
    config: Mapping[str, object]
    status: str  # "ok" | "error"
    #: SummaryMetrics.to_dict() for sim cells; None for trace cells/errors
    summary: Optional[Mapping[str, object]] = None
    #: extra per-cell results (trace statistics, ...)
    payload: Optional[Mapping[str, object]] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def summary_metrics(self) -> SummaryMetrics:
        if self.summary is None:
            raise ValueError(f"cell {self.key} has no summary")
        return SummaryMetrics.from_dict(dict(self.summary))

    def to_json(self) -> str:
        return json.dumps(
            {
                "key": self.key,
                "config": dict(self.config),
                "status": self.status,
                "summary": dict(self.summary) if self.summary else None,
                "payload": dict(self.payload) if self.payload else None,
                "error": self.error,
                "elapsed_s": self.elapsed_s,
            },
            sort_keys=True,
            allow_nan=False,
        )

    @staticmethod
    def from_json(line: str) -> "CellRecord":
        data = json.loads(line)
        return CellRecord(
            key=data["key"],
            config=data["config"],
            status=data["status"],
            summary=data.get("summary"),
            payload=data.get("payload"),
            error=data.get("error"),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
        )


def read_jsonl_since(
    path: Path, offset: int = 0
) -> Tuple[List[CellRecord], int, bool]:
    """Parse the complete records appended to *path* after byte *offset*.

    Returns ``(records, new_offset, torn)``.  Only newline-terminated
    lines are consumed: ``new_offset`` always lands on a line boundary,
    so a caller that persists it re-reads nothing on the next pass.  A
    trailing fragment without a newline — a writer killed mid-append,
    or an append happening *right now* — is left unconsumed and flagged
    via ``torn``; it is re-examined (and, once its newline lands,
    parsed) on the next call.  A newline-terminated line that fails to
    parse can never heal, so it is skipped with a warning and its bytes
    are consumed.
    """
    records: List[CellRecord] = []
    torn = False
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
    except FileNotFoundError:
        return records, offset, torn
    pos = offset
    lines = data.split(b"\n")
    tail = lines.pop()  # bytes after the last newline; b"" if none
    for raw in lines:
        pos += len(raw) + 1
        line = raw.strip()
        if not line:
            continue
        try:
            records.append(CellRecord.from_json(line.decode("utf-8")))
        except (
            json.JSONDecodeError,
            KeyError,
            TypeError,
            ValueError,
            UnicodeDecodeError,
        ):
            logger.warning(
                "skipping unparsable record in %s at byte %d",
                path,
                pos - len(raw) - 1,
            )
    if tail.strip():
        torn = True
    return records, pos, torn


def iter_jsonl_records(path: Path):
    """Yield the valid :class:`CellRecord` s of a JSONL file, in order.

    Torn tail lines (a writer killed mid-append) are skipped with a
    warning — that cell simply re-runs.  Used by ``compact`` and by
    ``campaign status``'s failure details.
    """
    records, _offset, torn = read_jsonl_since(Path(path), 0)
    if torn:
        logger.warning(
            "torn trailing line in %s (writer killed mid-append?) — "
            "skipped; the cell re-runs",
            path,
        )
    yield from records


def invalidate_indexes(directory: Optional[os.PathLike]) -> int:
    """Delete every cached progress index under *directory*.

    Called whenever a tracked file is rewritten in place (``compact``):
    the indexes would notice the inode change and rescan anyway, but
    removing them makes the invalidation explicit and reclaims the
    space.  Returns the number of index files removed.
    """
    if directory is None:
        return 0
    index_dir = Path(directory) / INDEX_DIR
    if not index_dir.is_dir():
        return 0
    removed = 0
    for path in index_dir.glob("*.json"):
        try:
            path.unlink()
            removed += 1
        except FileNotFoundError:  # pragma: no cover - benign race
            pass
    return removed


class ResultStore:
    """Append-only record store, optionally backed by a directory.

    With ``directory=None`` the store is purely in-memory (useful for
    one-shot figure runs that want the campaign machinery without a
    cache directory).  ``load=False`` skips replaying the JSONL into
    memory, for callers that only need the spec or results paths.
    """

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        load: bool = True,
    ) -> None:
        self.directory: Optional[Path] = (
            Path(directory) if directory is not None else None
        )
        self._records: Dict[str, CellRecord] = {}
        #: byte offset up to which the JSONL has been folded into memory,
        #: and the inode it belonged to — `refresh()` reads only appended
        #: bytes unless the file was rewritten (inode change) or shrank
        self._load_offset = 0
        self._load_inode: Optional[int] = None
        if self.directory is not None and load:
            self._load()

    def _ensure_dir(self) -> None:
        # created lazily on first write, so read-only operations
        # (status/report) never leave empty directories behind
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    # --- persistence -------------------------------------------------------
    @property
    def results_path(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / RESULTS_FILE

    @property
    def spec_path(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / SPEC_FILE

    def _load(self) -> None:
        path = self.results_path
        if path is None:
            return
        self._records.clear()
        self._load_offset = 0
        try:
            self._load_inode = path.stat().st_ino
        except FileNotFoundError:
            self._load_inode = None
            return
        records, self._load_offset, torn = read_jsonl_since(path, 0)
        if torn:
            logger.warning(
                "torn trailing line in %s (writer killed mid-append?) — "
                "skipped; the cell re-runs",
                path,
            )
        for record in records:
            self._records[record.key] = record

    def refresh(self) -> int:
        """Fold records appended since the last load into memory.

        Reads only the bytes past the remembered offset — O(appended),
        not O(file).  A file that shrank or was replaced (``compact``,
        rsync) triggers a full reload; a vanished file empties the
        store.  Returns the number of records folded in.
        """
        path = self.results_path
        if path is None:
            return 0
        try:
            st = path.stat()
        except FileNotFoundError:
            n_before = len(self._records)
            self._records.clear()
            self._load_offset = 0
            self._load_inode = None
            return -n_before if n_before else 0
        if st.st_ino != self._load_inode or st.st_size < self._load_offset:
            n_before = len(self._records)
            self._load()
            return len(self._records) - n_before
        if st.st_size == self._load_offset:
            return 0
        records, self._load_offset, _torn = read_jsonl_since(
            path, self._load_offset
        )
        for record in records:
            self._records[record.key] = record
        return len(records)

    def write_spec(
        self, spec_dict: Mapping[str, object], overwrite: bool = False
    ) -> None:
        """Persist the campaign spec; reject a conflicting existing one.

        ``overwrite=True`` replaces a differing spec instead (growing a
        campaign in place — completed cells stay valid because they are
        keyed by content, not by spec).
        """
        path = self.spec_path
        if path is None:
            return
        self._ensure_dir()
        payload = json.dumps(dict(spec_dict), indent=2, sort_keys=True)
        if path.exists() and not overwrite:
            existing = json.loads(path.read_text(encoding="utf-8"))
            if existing != json.loads(payload):
                raise ConfigurationError(
                    f"campaign directory {self.directory} already holds a "
                    f"different spec ({existing.get('name')!r}); re-run "
                    "with --grow (allow_spec_update) to extend it, or use "
                    "a fresh directory"
                )
            return
        path.write_text(payload + "\n", encoding="utf-8")

    def read_spec(self) -> Optional[Dict[str, object]]:
        path = self.spec_path
        if path is None or not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    # --- record access -----------------------------------------------------
    def put(self, record: CellRecord) -> None:
        """Insert a record and durably append it to the JSONL file."""
        self._records[record.key] = record
        path = self.results_path
        if path is not None:
            self._ensure_dir()
            with path.open("a", encoding="utf-8") as fh:
                fh.write(record.to_json() + "\n")
                fh.flush()
                os.fsync(fh.fileno())
                # our own append is already in memory — advance the
                # refresh offset past it (O_APPEND writes land at the
                # end, so tell() after the flush is a line boundary)
                self._load_offset = fh.tell()
                if self._load_inode is None:
                    self._load_inode = os.fstat(fh.fileno()).st_ino

    def get(self, key: str) -> Optional[CellRecord]:
        return self._records.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[CellRecord]:
        return list(self._records.values())

    def keys(self) -> frozenset:
        """Every stored key, regardless of status."""
        return frozenset(self._records)

    def completed_keys(self) -> frozenset:
        """Keys whose cells finished successfully (cache hits)."""
        return frozenset(k for k, r in self._records.items() if r.ok)

    def failed_keys(self) -> frozenset:
        return frozenset(k for k, r in self._records.items() if not r.ok)

    def drop(self, keys: Iterable[str]) -> int:
        """Forget records in memory (e.g. to retry failures); the JSONL
        keeps history — last write per key wins on reload."""
        n = 0
        for key in list(keys):
            if self._records.pop(key, None) is not None:
                n += 1
        return n

    def compact(self, drop_errors: bool = False) -> "CompactStats":
        """Rewrite the JSONL keeping one line per key (``campaign gc``).

        Retries append superseding lines; history accumulates
        until compacted.  ``drop_errors=True`` additionally removes
        ``error`` records entirely, so those cells re-run on the next
        campaign pass.  The rewrite is atomic (temp file + rename): a
        kill mid-gc leaves either the old or the new file, never a
        truncated one.  Every cached progress index under the directory
        is invalidated — the rewrite moves bytes that index offsets
        point into.
        """
        n_errors = 0
        if drop_errors:
            errors = [k for k, r in self._records.items() if not r.ok]
            n_errors = self.drop(errors)
        path = self.results_path
        n_superseded = 0
        if path is not None and path.exists():
            n_lines = sum(
                1 for _ in iter_jsonl_records(path)
            )
            n_superseded = n_lines - len(self._records) - n_errors
            tmp = path.with_name(path.name + ".gc-tmp")
            with tmp.open("w", encoding="utf-8") as fh:
                for record in self._records.values():
                    fh.write(record.to_json() + "\n")
                fh.flush()
                os.fsync(fh.fileno())
                new_offset = fh.tell()
            os.replace(tmp, path)
            self._load_offset = new_offset
            self._load_inode = path.stat().st_ino
            invalidate_indexes(self.directory)
        return CompactStats(
            n_kept=len(self._records),
            n_superseded=max(0, n_superseded),
            n_errors_dropped=n_errors,
        )

    def canonical_bytes(self) -> bytes:
        """A machine- and schedule-independent serialization of the
        stored state: one line per key in sorted order, with wall-clock
        fields (``elapsed_s``, the summary's wall-clock metrics)
        stripped.  Two stores hold the same results iff their canonical
        bytes are equal — the equivalence used to assert that a killed
        and resumed ``campaign run`` matches an uninterrupted one.
        """
        lines = []
        for key in sorted(self._records):
            r = self._records[key]
            lines.append(
                json.dumps(
                    {
                        "key": r.key,
                        "config": dict(r.config),
                        "status": r.status,
                        "summary": (
                            deterministic_view(dict(r.summary))
                            if r.summary
                            else None
                        ),
                        "payload": dict(r.payload) if r.payload else None,
                        "error": r.error,
                    },
                    sort_keys=True,
                    allow_nan=False,
                )
            )
        return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


@dataclass(frozen=True)
class CompactStats:
    """What a :meth:`ResultStore.compact` pass removed."""

    n_kept: int
    n_superseded: int
    n_errors_dropped: int
