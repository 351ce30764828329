"""Event queue for the discrete-event simulation engine.

A classic calendar queue over ``heapq`` with a monotonic sequence number
breaking ties so that simultaneous events fire in insertion order —
important for determinism across runs and platforms.

Determinism contract (DESIGN.md §15): the heap ordering key is the pair
``(time, insertion sequence)`` and nothing else — never object identity
or hash order — so (1) equal-timestamp events always fire in the order
they were pushed, (2) pickling the queue (daemon snapshots pickle the
whole engine, heap included) and resuming replays the identical event
order, because both the heap list and the ``itertools.count`` cursor
travel with the snapshot.  Producers rely on the tie-break: trace
arrivals are pushed before the first tick, and an iteration started
during a pass is pushed before that pass's next tick, which fixes the
admission/completion order at shared timestamps.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional


class EventKind(enum.Enum):
    """The kinds of events the engine processes."""

    JOB_ARRIVAL = "job_arrival"
    SCHEDULE_TICK = "schedule_tick"
    ITERATION_DONE = "iteration_done"


@dataclass(frozen=True, slots=True)
class Event:
    """One scheduled event.

    ``payload`` is kind-specific: the arriving job for ``JOB_ARRIVAL``;
    ``(job, token)`` for ``ITERATION_DONE`` where ``token`` guards
    against stale completions after preemption/migration; ``None`` for
    ticks.
    """

    time: float
    kind: EventKind
    payload: Any = None


@dataclass
class EventQueue:
    """A time-ordered queue of :class:`Event` objects."""

    _heap: list[tuple[float, int, Event]] = field(default_factory=list)
    _counter: "itertools.count" = field(default_factory=itertools.count)

    def push(self, event: Event) -> None:
        """Insert an event."""
        if event.time < 0:
            raise ValueError(f"event time must be non-negative, got {event.time}")
        heapq.heappush(self._heap, (event.time, next(self._counter), event))

    def pop(self) -> Event:
        """Remove and return the earliest event.

        Raises ``IndexError`` when empty.
        """
        _time, _seq, event = heapq.heappop(self._heap)
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the earliest event, or ``None`` when empty."""
        return self._heap[0][0] if self._heap else None

    def events_in_order(self) -> list[Event]:
        """Every pending event in firing order (non-destructive).

        Snapshot/restore tests use this to assert that a restored heap
        will fire the identical sequence; it is O(n log n) and must not
        appear on the hot path.
        """
        return [entry[2] for entry in sorted(self._heap, key=lambda e: e[:2])]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
