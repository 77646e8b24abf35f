"""Event types and ordering for the discrete-event engine.

Events at the *same* timestamp are processed in a fixed priority order so
simulations are deterministic regardless of heap insertion order:

1. ``JOB_FINISH`` — completions free nodes first;
2. ``JOB_FAILURE`` — failure injection (a finish at the same instant wins);
3. ``PLANNED_PREEMPT`` — CUP's scheduled preemptions fire next;
4. ``ADVANCE_NOTICE`` — on-demand notices;
5. ``JOB_SUBMIT`` — submissions / on-demand actual arrivals;
6. ``RESERVATION_TIMEOUT`` — reservation expiry.

A single scheduling pass runs after each same-timestamp batch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict


class EventType(enum.IntEnum):
    """Event kinds, ordered by same-timestamp processing priority."""

    JOB_FINISH = 0
    JOB_FAILURE = 1
    PLANNED_PREEMPT = 2
    ADVANCE_NOTICE = 3
    JOB_SUBMIT = 4
    RESERVATION_TIMEOUT = 5


@dataclass(frozen=True, order=True)
class Event:
    """A scheduled simulator event.

    Ordering key is ``(time, type, seq)``; ``payload`` is excluded from
    comparisons.  ``seq`` is a monotonically increasing tiebreaker assigned
    by the queue so FIFO order holds within a (time, type) group.
    """

    time: float
    type: EventType
    seq: int
    payload: Dict[str, Any] = field(compare=False, default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Event(t={self.time:.1f}, {self.type.name}, {self.payload})"
