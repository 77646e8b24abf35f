"""The shared scheduling-availability layer (incremental core).

Every scheduling pass needs the same future-supply question answered:
*when do how many nodes come free?*  The seed implementation re-derived
that from scratch inside each planner call — EASY re-sorted every
running job's predicted end to find the head's shadow time, and
conservative backfilling rebuilt its whole step-function profile — so a
pass cost O(running · log running) even when nothing relevant had
changed since the last one.  This module makes the availability state
explicit and *incrementally maintained*:

:class:`AvailabilityTimeline`
    The persistent structure: one ``(predicted_release, nodes)`` block
    per running job, kept sorted **in place** across events.  The
    simulator updates it through its mutation funnel (start / finish /
    preempt / resize / failure-restart), so a scheduling pass never
    sorts — it only reads.

:class:`ProfileView`
    One scheduling instant's read surface, handed to the planners: the
    timeline plus a small per-pass *overlay* of reservation
    pseudo-blocks (their release times depend on ``now``, so they
    cannot live in the persistent structure).  Shadow time and the
    extra-node budget (EASY) and the full step-function profile
    (conservative) are queries on this view.  ``from_blocks`` builds a
    view from a plain block list — the ``force_full_replan`` escape
    hatch and unit tests use it; it re-sorts every call, which is
    exactly the seed behaviour the benchmark suite compares against.

:class:`AvailabilityProfile`
    The mutable free-node step function conservative backfilling plans
    against (moved here from :mod:`repro.sched.conservative`); building
    it from an already-sorted view skips the per-pass sort.

Block iteration order is ``(release_time, nodes)`` — the exact order the
seed's ``sorted(running_blocks)`` produced — so incremental and
full-replan planning make bit-identical decisions.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.util.errors import InvariantViolation

EPS = 1e-6

#: one future supply step: (release_time, nodes_released)
Block = Tuple[float, int]


@dataclass(frozen=True)
class ShadowInfo:
    """The head job's EASY reservation: when it can start, and the slack."""

    time: float
    extra_nodes: int


class AvailabilityTimeline:
    """Sorted ``(release, nodes)`` blocks for running jobs, updated in place.

    One block per running job, keyed by job id.  ``set_block`` is called
    on start, resize, and failure-restart (the predicted finish moved);
    ``remove_block`` on finish and preemption.  Both are O(log n) search
    plus an O(n) memmove on a flat list — far cheaper than the O(n log n)
    re-sort every scheduling pass used to pay, and the read side
    (:meth:`releases`) is a plain pre-sorted iteration.

    The sort key is ``(release, nodes, key)``: ties replicate the seed's
    ``sorted(running_blocks)`` tuple order, with the job key as a final
    deterministic tiebreaker (equal ``(release, nodes)`` entries are
    interchangeable to every query).
    """

    __slots__ = ("_blocks", "_order")

    def __init__(self) -> None:
        #: key -> (release_time, nodes)
        self._blocks: Dict[int, Block] = {}
        #: sorted [(release_time, nodes, key)]
        self._order: List[Tuple[float, int, int]] = []

    def __len__(self) -> int:
        return len(self._blocks)

    # ------------------------------------------------------------------
    def set_block(self, key: int, release: float, nodes: int) -> None:
        """Add or move the block for *key* (idempotent upsert)."""
        old = self._blocks.get(key)
        if old is not None:
            self._remove_entry(old, key)
        self._blocks[key] = (release, nodes)
        insort(self._order, (release, nodes, key))

    def remove_block(self, key: int) -> None:
        """Drop the block for *key*; raises if it was never added."""
        old = self._blocks.pop(key, None)
        if old is None:
            raise InvariantViolation(
                f"availability timeline has no block for key {key}"
            )
        self._remove_entry(old, key)

    def _remove_entry(self, block: Block, key: int) -> None:
        entry = (block[0], block[1], key)
        i = bisect_left(self._order, entry)
        if i >= len(self._order) or self._order[i] != entry:
            raise InvariantViolation(
                f"availability timeline drifted: expected entry {entry} "
                "missing from the sorted order"
            )
        del self._order[i]

    # ------------------------------------------------------------------
    def releases(self) -> Iterator[Block]:
        """All blocks in ``(release, nodes)`` order."""
        for release, nodes, _key in self._order:
            yield release, nodes

    def blocks(self) -> Dict[int, Block]:
        """Snapshot of ``key -> (release, nodes)`` (validation/debugging)."""
        return dict(self._blocks)

    def validate_against(self, expected: Dict[int, Block]) -> None:
        """Cross-check against a from-scratch rebuild (invariant runs)."""
        if self._blocks != expected:
            missing = expected.keys() - self._blocks.keys()
            extra = self._blocks.keys() - expected.keys()
            drifted = {
                k
                for k in expected.keys() & self._blocks.keys()
                if expected[k] != self._blocks[k]
            }
            raise InvariantViolation(
                "availability timeline out of sync with the running set: "
                f"missing={sorted(missing)} stale={sorted(extra)} "
                f"drifted={sorted(drifted)}"
            )
        if len(self._order) != len(self._blocks) or any(
            self._blocks.get(k) != (t, n) for t, n, k in self._order
        ):
            raise InvariantViolation(
                "availability timeline order list disagrees with its blocks"
            )


class ProfileView:
    """Availability at one scheduling instant, as the planners consume it.

    ``free`` is the usable free pool right now (cluster free minus all
    reserved holdings); :meth:`releases` walks future supply in
    ``(release, nodes)`` order.  Backed either by the shared
    :class:`AvailabilityTimeline` plus a small per-pass reservation
    overlay (incremental mode — no sorting beyond the tiny overlay) or
    by a plain re-sorted block list (:meth:`from_blocks`; the
    ``force_full_replan`` baseline and unit tests).
    """

    __slots__ = ("now", "free", "_timeline", "_overlay", "_static")

    def __init__(
        self,
        now: float,
        free: int,
        timeline: Optional[AvailabilityTimeline] = None,
        overlay: Sequence[Block] = (),
    ) -> None:
        self.now = now
        self.free = free
        self._timeline = timeline
        self._overlay: List[Block] = sorted(overlay) if overlay else []
        self._static: Optional[List[Block]] = None

    @classmethod
    def from_blocks(
        cls, now: float, free: int, blocks: Iterable[Block]
    ) -> "ProfileView":
        """A view over a plain block list (re-sorted on every call)."""
        view = cls(now, free)
        view._static = sorted(blocks)
        return view

    def reset(
        self, now: float, free: int, overlay: Optional[List[Block]] = None
    ) -> "ProfileView":
        """Re-point this view at a new scheduling instant, in place.

        The simulator owns one timeline-backed view (and one overlay
        list) for the whole run and re-seats it per pass instead of
        constructing a fresh view — planners never retain the view
        beyond their ``plan()`` call, so reuse is safe and keeps the
        hot path allocation-free.  *overlay* is sorted **in place** and
        adopted without copying.  Not valid on ``from_blocks`` views
        (the full-replan escape hatch rebuilds those per pass by
        design).
        """
        if self._static is not None:
            raise InvariantViolation(
                "reset() on a static-block ProfileView; only "
                "timeline-backed views are reusable"
            )
        self.now = now
        self.free = free
        if overlay:
            overlay.sort()
            self._overlay = overlay
        else:
            self._overlay = overlay if overlay is not None else []
        return self

    # ------------------------------------------------------------------
    def releases(self) -> Iterator[Block]:
        """Future supply steps in ``(release, nodes)`` order."""
        if self._static is not None:
            return iter(self._static)
        timeline = (
            self._timeline.releases() if self._timeline is not None else iter(())
        )
        if not self._overlay:
            return timeline
        return heapq.merge(timeline, iter(self._overlay))

    def shadow(self, head_need: int, free: Optional[int] = None) -> ShadowInfo:
        """Earliest time *head_need* nodes are free, plus the slack then.

        Walks the releases in time order accumulating freed nodes until
        the head fits.  If even all releases cannot satisfy the head
        (only possible when reservations pseudo-block nodes forever),
        the shadow is infinite and every backfill qualifies via the
        extra-node branch only.  *free* overrides the view's free pool —
        EASY phase 1 consumes free nodes before the shadow is computed.
        """
        avail = self.free if free is None else free
        if head_need <= avail:
            return ShadowInfo(time=self.now, extra_nodes=avail - head_need)
        for release, nodes in self.releases():
            avail += nodes
            if avail >= head_need:
                return ShadowInfo(
                    time=max(release, self.now), extra_nodes=avail - head_need
                )
        return ShadowInfo(time=math.inf, extra_nodes=avail - head_need)

    def build_profile(self) -> "AvailabilityProfile":
        """The mutable step-function profile conservative planning uses."""
        return AvailabilityProfile.from_sorted(self.now, self.free, self.releases())


class AvailabilityProfile:
    """Free-node step function over [now, inf).

    Kept as parallel lists ``times`` / ``avail`` where ``avail[i]`` holds
    on ``[times[i], times[i+1])``; the last segment extends to infinity.
    """

    def __init__(self, now: float, free: int, releases: Sequence[Block]):
        points: Dict[float, int] = {}
        for t, nodes in releases:
            key = max(t, now)
            points[key] = points.get(key, 0) + nodes
        self.times: List[float] = [now]
        self.avail: List[int] = [free]
        level = free
        for t in sorted(points):
            if t <= now + EPS:
                # already released (defensive; callers pass future ends)
                self.avail[0] += points[t]
                level = self.avail[0]
                continue
            level += points[t]
            self.times.append(t)
            self.avail.append(level)

    @classmethod
    def from_sorted(
        cls, now: float, free: int, releases: Iterable[Block]
    ) -> "AvailabilityProfile":
        """Build from releases already in time order, skipping the sort."""
        prof = cls.__new__(cls)
        prof.times = [now]
        prof.avail = [free]
        level = free
        for t, nodes in releases:
            if t <= now + EPS:
                prof.avail[0] += nodes
                if len(prof.times) == 1:
                    level = prof.avail[0]
                continue
            level += nodes
            if prof.times[-1] == t:
                prof.avail[-1] = level
            else:
                prof.times.append(t)
                prof.avail.append(level)
        return prof

    def earliest_start(self, nodes: int, duration: float) -> float:
        """Earliest time *nodes* nodes stay free for *duration* seconds."""
        i = 0
        while i < len(self.times):
            if self.avail[i] < nodes:
                i += 1
                continue
            start = self.times[i]
            end = start + duration
            # check the window [start, end) stays above `nodes`
            j = i + 1
            ok = True
            while j < len(self.times) and self.times[j] < end - EPS:
                if self.avail[j] < nodes:
                    ok = False
                    break
                j += 1
            if ok:
                return start
            i = j  # first violation: no point retrying inside the window
        raise AssertionError(
            "unreachable: the final profile segment extends to infinity"
        )

    def reserve(self, start: float, duration: float, nodes: int) -> None:
        """Subtract *nodes* over [start, start+duration)."""
        end = start + duration
        self._insert_breakpoint(start)
        self._insert_breakpoint(end)
        for i, t in enumerate(self.times):
            if start - EPS <= t < end - EPS:
                self.avail[i] -= nodes
                if self.avail[i] < 0:
                    raise AssertionError(
                        f"profile went negative at t={t}: {self.avail[i]}"
                    )

    def _insert_breakpoint(self, t: float) -> None:
        if t <= self.times[0] + EPS:
            return
        i = bisect_left(self.times, t - EPS)
        if i < len(self.times) and abs(self.times[i] - t) <= EPS:
            return
        if i == len(self.times):
            self.times.append(t)
            self.avail.append(self.avail[-1])
        else:
            self.times.insert(i, t)
            self.avail.insert(i, self.avail[i - 1])
