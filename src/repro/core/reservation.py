"""Reservations for on-demand jobs: holdings, loans, earmarks, plans.

A :class:`Reservation` tracks everything an advance-notice strategy has
lined up for one announced on-demand job:

* ``held`` — idle nodes set aside right now.  Held nodes live inside the
  cluster's *free* pool (the cluster does not know about reservations);
  the book guarantees ``sum(held) <= cluster.free`` by construction: every
  increment of ``held`` is backed by an explicit free-node budget passed
  in by the coordinator.
* ``loans`` — held nodes lent to *backfilled* jobs (§III-B.1: "the nodes
  reserved for on-demand jobs can be used to backfill jobs").  A loan
  stays *secured*: the borrower is preempted when the on-demand job
  arrives, or the nodes flow back into ``held`` if the borrower finishes
  first.
* ``earmarks`` — CUP's pledges on running jobs whose estimated end
  precedes the predicted arrival; honoured when the job releases nodes.
* ``planned`` — CUP's scheduled preemptions (rigid victims right after a
  checkpoint completion, malleable victims at the predicted arrival).

The book serialises competition between on-demand jobs: "the released
nodes are assigned to the on-demand job with the earliest advance notice".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.util.errors import InvariantViolation


@dataclass
class PlannedPreemption:
    """One CUP-scheduled preemption of a running job."""

    victim_job_id: int
    pledge: int
    cancelled: bool = False


@dataclass
class Reservation:
    """Everything lined up for one announced on-demand job."""

    od_job_id: int
    need: int
    notice_time: float
    estimated_arrival: float
    #: CUA-style passive absorption of free nodes (False for CUP)
    collecting: bool = False
    held: int = 0
    loans: Dict[int, int] = field(default_factory=dict)
    earmarks: Dict[int, int] = field(default_factory=dict)
    planned: Dict[int, PlannedPreemption] = field(default_factory=dict)
    arrived: bool = False

    @property
    def secured(self) -> int:
        """Nodes the on-demand job can count on at arrival (held + loans)."""
        return self.held + sum(self.loans.values())

    @property
    def deficit(self) -> int:
        """Nodes still missing relative to the request."""
        return max(0, self.need - self.secured)


class ReservationBook:
    """The live reservations, ordered by advance-notice time.

    A reservation is dropped the moment it is closed, so the book holds
    only in-flight on-demand jobs.  It is also the only writer of
    ``held`` and ``total_held`` (:meth:`_hold`).
    """

    def __init__(self) -> None:
        self._by_od: Dict[int, Reservation] = {}
        self.total_held = 0
        self.held_node_seconds = 0.0
        self._last_t = 0.0

    def __len__(self) -> int:
        """Number of live reservations."""
        return len(self._by_od)

    # ------------------------------------------------------------------
    def advance(self, t: float) -> None:
        """Integrate reserved-idle node-seconds up to *t*."""
        if t < self._last_t - 1e-6:
            raise InvariantViolation(
                f"reservation clock moved backwards: {self._last_t} -> {t}"
            )
        dt = max(0.0, t - self._last_t)
        self.held_node_seconds += dt * self.total_held
        self._last_t = t

    # ------------------------------------------------------------------
    def get(self, od_job_id: int) -> Optional[Reservation]:
        return self._by_od.get(od_job_id)

    def active_reservations(self) -> List[Reservation]:
        """Live reservations in earliest-notice order (priority order)."""
        return sorted(
            self._by_od.values(), key=lambda r: (r.notice_time, r.od_job_id)
        )

    def holding_reservations(self) -> List[Reservation]:
        """Live reservations currently holding nodes (unsorted).

        Used by the simulator's pass skipping to spot *clock-tracking*
        pseudo-blocks (see ``Simulation._has_clock_tracking_block``);
        unlike :meth:`active_reservations` it does not sort, because
        that check runs on every potentially-skippable batch.
        """
        return [r for r in self._by_od.values() if r.held > 0]

    def create(
        self,
        od_job_id: int,
        need: int,
        notice_time: float,
        estimated_arrival: float,
        collecting: bool,
    ) -> Reservation:
        if od_job_id in self._by_od:
            raise InvariantViolation(
                f"on-demand job {od_job_id} already has a live reservation"
            )
        res = Reservation(
            od_job_id=od_job_id,
            need=need,
            notice_time=notice_time,
            estimated_arrival=estimated_arrival,
            collecting=collecting,
        )
        self._by_od[od_job_id] = res
        return res

    # ------------------------------------------------------------------
    def _hold(self, res: Reservation, nodes: int) -> None:
        """Change *res*'s holding by *nodes* (negative to release)."""
        res.held += nodes
        self.total_held += nodes

    def grab_free(self, res: Reservation, usable_free: int) -> int:
        """Move up to ``deficit`` usable free nodes into ``held``."""
        take = min(max(0, usable_free), res.deficit)
        if take > 0:
            self._hold(res, take)
        return take

    def top_up(self, res: Reservation, usable_free: int) -> int:
        """Raise ``held`` toward ``need`` from *usable_free* nodes.

        Unlike :meth:`grab_free` the cap is ``need - held``: loans do
        not count, because an arrived job can only launch on held nodes
        (loans it cannot reclaim are forgiven).
        """
        take = min(max(0, usable_free), max(0, res.need - res.held))
        if take > 0:
            self._hold(res, take)
        return take

    def loan_out(self, res: Reservation, borrower_job_id: int, nodes: int) -> None:
        """Lend *nodes* of ``held`` to a backfilled job."""
        if nodes <= 0 or nodes > res.held:
            raise InvariantViolation(
                f"reservation {res.od_job_id}: cannot loan {nodes} of "
                f"{res.held} held nodes"
            )
        self._hold(res, -nodes)
        res.loans[borrower_job_id] = res.loans.get(borrower_job_id, 0) + nodes

    def add_earmark(self, res: Reservation, job_id: int, pledge: int) -> None:
        if pledge <= 0:
            raise InvariantViolation("earmark pledge must be positive")
        res.earmarks[job_id] = res.earmarks.get(job_id, 0) + pledge

    def add_planned(self, res: Reservation, plan: PlannedPreemption) -> None:
        if plan.victim_job_id in res.planned:
            raise InvariantViolation(
                f"reservation {res.od_job_id} already plans to preempt "
                f"job {plan.victim_job_id}"
            )
        res.planned[plan.victim_job_id] = plan

    def pledged_on(self, job_id: int) -> int:
        """Total nodes live reservations already expect from *job_id*.

        Counts earmarks plus non-cancelled planned preemptions; used by
        CUP planning so two reservations never pledge the same nodes.
        """
        total = 0
        for r in self._by_od.values():
            total += r.earmarks.get(job_id, 0)
            plan = r.planned.get(job_id)
            if plan is not None and not plan.cancelled:
                total += plan.pledge
        return total

    def loans_on(self, job_id: int) -> int:
        """Total reserved nodes *job_id* is currently borrowing."""
        return sum(r.loans.get(job_id, 0) for r in self._by_od.values())

    # ------------------------------------------------------------------
    def on_job_release(
        self,
        job_id: int,
        released: int,
        claim_for: Optional[int] = None,
    ) -> int:
        """Distribute a finished/preempted job's nodes among reservations.

        Order: (1) loans return to their owning reservations; (2) the
        targeted claim (PAA / planned preemption) for *claim_for*; (3) CUP
        earmarks registered on this job; (4) nothing else — passive CUA
        absorption is a separate step (:meth:`absorb_free`) because CUA
        may also soak up nodes that were already free.

        Returns the number of nodes the *claim_for* reservation captured.
        """
        remaining = released
        # the claim below moves nodes but opens or closes no reservation
        live = self.active_reservations()

        # (1) loans return to held (they were already "secured").
        for res in live:
            loan = res.loans.pop(job_id, 0)
            if loan > 0:
                if loan > remaining:
                    raise InvariantViolation(
                        f"job {job_id} released {released} nodes but owes "
                        f"{loan} loaned nodes to reservation {res.od_job_id}"
                    )
                self._hold(res, loan)
                remaining -= loan

        # (2) targeted claim for the on-demand job we preempted for.
        claimed = 0
        if claim_for is not None:
            res = self.get(claim_for)
            if res is not None:
                claimed = min(res.deficit, remaining)
                if claimed > 0:
                    self._hold(res, claimed)
                    remaining -= claimed

        # (3) CUP earmarks on this job, earliest notice first.
        for res in live:
            pledge = res.earmarks.pop(job_id, 0)
            if pledge <= 0 or remaining <= 0:
                continue
            take = min(pledge, res.deficit, remaining)
            if take > 0:
                self._hold(res, take)
                remaining -= take
        return claimed

    def absorb_free(self, usable_free: int) -> int:
        """Let CUA-style collectors soak up usable free nodes.

        Called whenever the free pool may have grown.  Collectors are
        served earliest-notice-first (§III-B.1 competition rule).  Returns
        the total absorbed.
        """
        absorbed = 0
        budget = max(0, usable_free)
        if budget == 0:
            return 0
        for res in self.active_reservations():
            if not res.collecting:
                continue
            take = min(res.deficit, budget)
            if take > 0:
                self._hold(res, take)
                budget -= take
                absorbed += take
            if budget == 0:
                break
        return absorbed

    # ------------------------------------------------------------------
    def cancel_plans(self, res: Reservation) -> None:
        """Cancel pending planned preemptions and drop earmarks."""
        for plan in res.planned.values():
            plan.cancelled = True
        res.earmarks.clear()

    def deactivate(self, od_job_id: int) -> int:
        """Drop a reservation; its held nodes melt back into plain free.

        Returns the number of nodes that were held.  Its loans become
        ordinary allocations of the borrowers, and its pending plans and
        earmarks go with it (a planned preemption finds no reservation
        and does not fire).
        """
        res = self._by_od.pop(od_job_id, None)
        if res is None:
            return 0
        held = res.held
        self._hold(res, -held)
        return held

    # ------------------------------------------------------------------
    def validate(self, cluster_free: int) -> None:
        """Consistency checks (used by tests and debug runs)."""
        total = 0
        for res in self._by_od.values():
            if res.held < 0:
                raise InvariantViolation(
                    f"reservation {res.od_job_id}: negative held {res.held}"
                )
            if res.secured > res.need:
                raise InvariantViolation(
                    f"reservation {res.od_job_id}: secured {res.secured} "
                    f"exceeds need {res.need}"
                )
            total += res.held
        if total != self.total_held:
            raise InvariantViolation(
                f"held total drifted: tracked {self.total_held}, actual {total}"
            )
        if total > cluster_free:
            raise InvariantViolation(
                f"held {total} exceeds cluster free pool {cluster_free}"
            )
