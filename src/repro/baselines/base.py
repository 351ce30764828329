"""Shared machinery for the comparison schedulers (Section 2 systems).

Most published ML-cluster schedulers are *gang* schedulers: a job runs
only when all of its workers hold resources.  :class:`GangScheduler`
implements the common round structure — optional preemption, then
admission of waiting jobs in a policy-specific order with all-or-nothing
packing — so each baseline only supplies its ordering (and preemption)
logic, mirroring how the paper describes them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.cluster.server import Server
from repro.sim.interface import (
    Eviction,
    Placement,
    Scheduler,
    SchedulerDecision,
    SchedulingContext,
)
from repro.sim.shadow import ShadowCluster
from repro.workload.job import Job, Task, TaskState


def waiting_jobs(ctx: SchedulingContext) -> list[Job]:
    """Active jobs that have at least one queued task."""
    queued_job_ids = {t.job_id for t in ctx.queue}
    return [j for j in ctx.active_jobs if j.job_id in queued_job_ids]


def pack_tasks(
    tasks: list[Task],
    shadow: ShadowCluster,
    threshold: float,
    preferred_servers: Optional[list[int]] = None,
) -> Optional[list[Placement]]:
    """All-or-nothing placement of a task group.

    Tries to host every task without overloading any server or GPU,
    preferring ``preferred_servers`` (affinity) and then lower-loaded
    servers.  On failure the shadow state is rolled back and ``None``
    returned.
    """
    rank = {sid: i for i, sid in enumerate(preferred_servers or [])}

    def sort_key(server: Server) -> tuple[int, float, int]:
        return (
            rank.get(server.server_id, len(rank)),
            shadow.overload_degree(server),
            server.server_id,
        )

    def choose(task: Task) -> Optional[tuple[int, int]]:
        candidates = [
            s
            for s in shadow.cluster.servers
            if not shadow.would_overload(s, task.demand, threshold)
        ]
        if not candidates:
            return None
        server = min(candidates, key=sort_key)
        return server.server_id, shadow.least_loaded_gpu(server)

    return shadow.place_all(tasks, choose)


@dataclass
class GangScheduler(Scheduler):
    """Base class: preempt (optional), then admit jobs in policy order."""

    name: str = "gang"

    @abc.abstractmethod
    def job_order(self, jobs: list[Job], ctx: SchedulingContext) -> list[Job]:
        """Order waiting jobs for admission (head admitted first)."""

    def begin_pass(self, ctx: SchedulingContext) -> None:
        """Hook run first in every scheduling pass (default: nothing).

        Policies with per-pass bookkeeping (Tiresias' service stints)
        reconcile state here, before preemption and admission read it.
        Implementations must be provable no-ops on a pass where every
        active job is fully placed with up-to-date bookkeeping —
        otherwise skipping that pass (parking) would change outcomes.
        """

    def note_admitted(self, job: Job, ctx: SchedulingContext) -> None:
        """Hook: ``job`` was fully packed for placement this pass.

        Fires at emission time — the one moment that exists identically
        in both pass policies — so service accounting (Tiresias) can
        anchor a stint at the exact pass that placed the job.
        """

    def preemptions(self, ctx: SchedulingContext) -> list[Job]:
        """Jobs whose tasks should be evicted this round (default: none)."""
        return []

    def preferred_servers(self, job: Job, ctx: SchedulingContext) -> list[int]:
        """Server preference for a job's packing (default: none)."""
        return []

    def extra_actions(
        self, ctx: SchedulingContext, shadow: ShadowCluster, decision: SchedulerDecision
    ) -> None:
        """Hook for policy-specific actions (e.g. Gandiva migrations)."""

    def on_schedule(self, ctx: SchedulingContext) -> SchedulerDecision:
        decision = SchedulerDecision()
        shadow = ShadowCluster(ctx.cluster)
        self.begin_pass(ctx)

        evicted_jobs = set()
        for job in self.preemptions(ctx):
            placed = job.placed_tasks()
            if not placed:
                continue
            evicted_jobs.add(job.job_id)
            for task in placed:
                shadow.commit_removal(task)
                decision.evictions.append(Eviction(task))

        candidates = [
            j for j in waiting_jobs(ctx) if j.job_id not in evicted_jobs
        ]
        for job in self.job_order(candidates, ctx):
            queued = [t for t in job.tasks if t.state is TaskState.QUEUED]
            if not queued:
                continue
            placements = pack_tasks(
                queued,
                shadow,
                ctx.overload_threshold,
                self.preferred_servers(job, ctx),
            )
            if placements is None:
                continue  # backfill: try the next job
            self.note_admitted(job, ctx)
            decision.placements.extend(placements)

        self.extra_actions(ctx, shadow, decision)
        return decision
