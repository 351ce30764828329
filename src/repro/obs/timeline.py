"""Per-job event timelines.

Every job's life is a sequence of transitions — ``admission`` (service
layer) → ``submitted`` → ``queued`` → ``placed`` → ``migrated`` /
``evicted`` → ``completed`` or ``stopped`` — each stamped with the
simulation clock, the scheduler round, and where applicable the task,
server/GPU ids and the task's priority at that moment.  The recorder is
the storage behind the daemon's ``history`` protocol verb and
``repro ctl history JOB``.

Timelines are plain data (they pickle with daemon snapshots) and the
recorder caps the number of tracked jobs so an immortal daemon does not
grow without bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["TimelineEvent", "TimelineRecorder", "JOB_EVENTS"]

#: The event vocabulary, in canonical lifecycle order.
JOB_EVENTS: tuple[str, ...] = (
    "admission",
    "submitted",
    "queued",
    "placed",
    "migrated",
    "evicted",
    "stopped",
    "completed",
)


@dataclass(frozen=True, slots=True)
class TimelineEvent:
    """One transition in a job's life."""

    time: float
    event: str
    round_index: Optional[int] = None
    task_id: Optional[str] = None
    server_id: Optional[int] = None
    gpu_id: Optional[int] = None
    priority: Optional[float] = None
    detail: Optional[str] = None
    extra: Optional[dict[str, Any]] = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict with ``None`` fields dropped."""
        out: dict[str, Any] = {"time": self.time, "event": self.event}
        for key in ("round_index", "task_id", "server_id", "gpu_id", "priority", "detail"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.extra:
            out.update(self.extra)
        return out


class TimelineRecorder:
    """Bounded per-job event log.

    Parameters
    ----------
    max_jobs:
        Oldest-tracked jobs are forgotten once this many are held
        (insertion order, which tracks submission order).
    """

    def __init__(self, max_jobs: int = 8192) -> None:
        self.max_jobs = max_jobs
        self._events: dict[str, list[TimelineEvent]] = {}

    def record(self, job_id: str, event: TimelineEvent) -> None:
        """Append one event to a job's timeline."""
        timeline = self._events.get(job_id)
        if timeline is None:
            while len(self._events) >= self.max_jobs:
                # dict preserves insertion order: drop the oldest job.
                self._events.pop(next(iter(self._events)))
            timeline = self._events[job_id] = []
        timeline.append(event)

    def history(self, job_id: str) -> list[dict[str, Any]]:
        """A job's timeline as JSON-safe dicts (empty when unknown)."""
        return [event.to_dict() for event in self._events.get(job_id, [])]

    def job_ids(self) -> list[str]:
        """Tracked jobs, oldest first."""
        return list(self._events)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._events

    def __len__(self) -> int:
        return len(self._events)
