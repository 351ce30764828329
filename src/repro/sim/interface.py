"""The scheduler ↔ simulator contract.

Every scheduler — MLFS and all baselines — implements
:class:`Scheduler`.  At each scheduling round the engine hands the
scheduler a :class:`SchedulingContext` snapshot and receives a
:class:`SchedulerDecision`: task placements, migrations out of
overloaded servers, evictions back to the queue, and early job stops.
This mirrors the paper's action space, "the selection of tasks in
overloaded nodes to move out and the assigned node (either underloaded
node or queue) for each task" (Section 3.4).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cluster.cluster import Cluster
from repro.workload.job import Job, Task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.learncurve.accuracy import AccuracyPredictor
    from repro.learncurve.runtime import RuntimePredictor


@dataclass(frozen=True, slots=True)
class Placement:
    """Assign a queued task to a server (and optionally a specific GPU)."""

    task: Task
    server_id: int
    gpu_id: Optional[int] = None


@dataclass(frozen=True, slots=True)
class Migration:
    """Move a running task to a different server."""

    task: Task
    dst_server_id: int
    gpu_id: Optional[int] = None


@dataclass(frozen=True, slots=True)
class Eviction:
    """Preempt a running task back to the waiting queue."""

    task: Task


@dataclass(frozen=True, slots=True)
class JobStop:
    """Terminate a job early (MLF-C load control)."""

    job: Job
    reason: str = ""


@dataclass
class SchedulerDecision:
    """The full output of one scheduling round.

    The engine applies evictions, then migrations, then placements, then
    stops.  An empty decision is valid (nothing to do).
    """

    placements: list[Placement] = field(default_factory=list)
    migrations: list[Migration] = field(default_factory=list)
    evictions: list[Eviction] = field(default_factory=list)
    stops: list[JobStop] = field(default_factory=list)
    #: Priority-ordered dequeue declaration for the invariant sanitizer
    #: (:mod:`repro.check.sanitize`): the ``(job_id, task_id)`` pool in
    #: the order the scheduler considered it, plus the scores that
    #: ordering used.  Empty for schedulers without a priority queue.
    dequeue_order: list[tuple[str, str]] = field(default_factory=list)
    dequeue_scores: dict[str, float] = field(default_factory=dict)

    def is_empty(self) -> bool:
        """True when the decision contains no actions."""
        return not (self.placements or self.migrations or self.evictions or self.stops)

    def record_dequeue(self, ordered: list[Task], scores: dict[str, float]) -> None:
        """Declare the priority-ordered pool this decision dequeued from.

        Called by priority-queue schedulers (the MLF family) so the
        runtime sanitizer can assert priority-monotone dequeue order.
        """
        self.dequeue_order = [(t.job_id, t.task_id) for t in ordered]
        self.dequeue_scores = dict(scores)


@dataclass
class SchedulingContext:
    """Read-only snapshot handed to the scheduler each round.

    Attributes
    ----------
    now:
        Simulation time in seconds.
    cluster:
        The cluster (live object — schedulers must not mutate it).
    queue:
        Tasks waiting for placement, in engine arrival order; schedulers
        impose their own ordering (e.g. the MLF-H priority queue).
    active_jobs:
        All jobs that have arrived and not completed.
    overload_threshold:
        The per-resource threshold ``h_r``.
    system_overload_threshold:
        The cluster threshold ``h_s`` used by MLF-C.
    accuracy_predictor / runtime_predictor:
        The shared prediction services of Section 3.1.
    """

    now: float
    cluster: Cluster
    queue: list[Task]
    active_jobs: list[Job]
    overload_threshold: float
    system_overload_threshold: float
    accuracy_predictor: "AccuracyPredictor"
    runtime_predictor: "RuntimePredictor"

    def running_jobs(self) -> list[Job]:
        """Active jobs that currently have at least one placed task."""
        return [j for j in self.active_jobs if j.placed_tasks()]

    def system_overloaded(self) -> bool:
        """MLF-C's predicate: queued tasks exist or ``O_c > h_s``."""
        return self.cluster.is_overloaded(
            self.system_overload_threshold, queue_nonempty=bool(self.queue)
        )


class Scheduler(abc.ABC):
    """Base class for every scheduling policy."""

    #: Human-readable policy name used in benchmark tables.
    name: str = "scheduler"

    @abc.abstractmethod
    def on_schedule(self, ctx: SchedulingContext) -> SchedulerDecision:
        """Produce the decision for one scheduling round."""

    def can_park(self, cluster: Cluster) -> bool:
        """Whether the event-driven engine may skip no-op passes now.

        Consulted under ``EngineConfig(pass_policy="event")`` once the
        engine's own park preconditions hold (empty queue, all jobs
        placed, no server over the engine's overload threshold, no
        armed fault).  With them, a pass must leave the decision empty
        and any clocked state must advance through :meth:`accrue` with
        bit-identical results.  Override to veto when the policy acts on
        conditions the engine cannot see — Gandiva's per-GPU threshold,
        MLF-C's per-pass OptStop.  Must be a pure read of ``cluster``.
        """
        return True

    def accrue(
        self,
        gap_seconds: float,
        *,
        skipped_passes: int,
        now: float,
        tick_seconds: float,
    ) -> None:
        """Advance clocked state across a parked gap (optional override).

        Called by the event-driven engine when it leaves the parked
        state, *before* the next scheduling pass runs:
        ``skipped_passes`` fixed-cadence passes (``k = 1..skipped_passes``
        periods of ``tick_seconds`` past the last pass, spanning
        ``gap_seconds = skipped_passes * tick_seconds``) were provably
        no-ops and did not execute.  An
        override must leave the scheduler in **bit-identical** state to
        having run those passes — see DESIGN.md §15.7 for the proof
        obligation and for which state may advance analytically (pass
        counters via :class:`repro.sim.clock.PassClock`; closed-form
        time integrals that fixed cadence never accumulates eagerly).
        State that is already a pure function of simulation time and of
        events that fire in both modes (arrivals, completions,
        iterations) needs no accrual — the default is a no-op.
        """

    def on_job_arrival(self, job: Job, now: float) -> None:
        """Hook: a job was submitted (optional override)."""

    def on_job_complete(self, job: Job, now: float) -> None:
        """Hook: a job finished (optional override)."""

    def on_iteration_complete(self, job: Job, now: float) -> None:
        """Hook: a job finished one iteration (optional override)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
