"""Tiresias (Gu et al., NSDI 2019) — as characterized in the paper.

Two priority principles (Section 2): "for jobs without prior knowledge
of its task running time, the least-attained-service principle gives
higher priorities to the jobs that received less service time; for jobs
with known task running time distribution …, the priority is determined
by how likely the job can complete within the next service epoch."

We implement the discretized two-dimensional attained-service queues
(2D-LAS) with preemption: when higher-priority jobs wait, the
longest-served running jobs are preempted.

Attained service is the real quantity Tiresias uses — GPU-count ×
wall-clock time the job has held its gang — accounted as *stints*: a
stint opens when the job's gang is packed (emission time), closes when
the job is evicted, killed or completes, and the open remainder is the
closed form ``(now - stint_start) * gpus``.  No per-pass accumulation
ever happens, so the counters are a pure function of simulation time
and of events that fire in both pass policies — which is what lets
Tiresias park with bit-identical outcomes to the fixed cadence
(DESIGN.md §15.7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.baselines.base import GangScheduler, waiting_jobs
from repro.sim.interface import SchedulingContext
from repro.workload.job import Job


@dataclass
class TiresiasScheduler(GangScheduler):
    """Discretized least-attained-service gang scheduling with preemption.

    Parameters
    ----------
    num_queues:
        Number of discretized priority queues; attained service doubles
        between queue boundaries.
    service_unit:
        GPU-seconds represented by the first queue boundary.
    epoch_seconds:
        Service epoch used by the known-runtime principle: jobs that can
        finish within one epoch get the top queue.
    """

    name: str = "Tiresias"
    num_queues: int = 5
    service_unit: float = 3600.0
    epoch_seconds: float = 600.0
    max_preemptions_per_round: int = 4
    #: Banked GPU-seconds from closed stints, per job.
    _service: dict[str, float] = field(default_factory=dict)
    #: Open stint start time per running job (absent = no open stint).
    _stint_since: dict[str, float] = field(default_factory=dict)

    # -- attained-service bookkeeping -----------------------------------------

    def attained_service(self, job: Job, now: float) -> float:
        """GPU-seconds of service ``job`` has received up to ``now``."""
        attained = self._service.get(job.job_id, 0.0)
        since = self._stint_since.get(job.job_id)
        if since is not None and now > since:
            attained += (now - since) * job.gpus_requested
        return attained

    def _open_stint(self, job: Job, now: float) -> None:
        self._stint_since.setdefault(job.job_id, now)

    def _close_stint(self, job: Job, now: float) -> None:
        since = self._stint_since.pop(job.job_id, None)
        if since is not None and now > since:
            self._service[job.job_id] = (
                self._service.get(job.job_id, 0.0) + (now - since) * job.gpus_requested
            )

    def begin_pass(self, ctx: SchedulingContext) -> None:
        """Close stints of jobs that lost their gang outside our control.

        Fault kills and stall-guard evictions unplace tasks without the
        scheduler acting; the first pass that sees the job no longer
        fully placed banks its stint.  Such a pass is never skippable
        (the job's tasks are queued or the stall guard is armed), and on
        a genuinely no-op pass every fully-placed job already has an
        open stint — so this reconciliation is a provable no-op exactly
        when the engine parks.
        """
        for job in ctx.active_jobs:
            if job.is_fully_placed:
                self._open_stint(job, ctx.now)
            else:
                self._close_stint(job, ctx.now)

    def note_admitted(self, job: Job, ctx: SchedulingContext) -> None:
        """A gang was packed this pass: its service stint starts now."""
        self._open_stint(job, ctx.now)

    def on_job_complete(self, job: Job, now: float) -> None:
        self._close_stint(job, now)
        self._service.pop(job.job_id, None)

    def queue_index(self, job: Job, ctx: SchedulingContext) -> int:
        """Discretized priority queue (0 = highest priority)."""
        remaining = ctx.runtime_predictor.remaining_time(job)
        if 0.0 < remaining <= self.epoch_seconds:
            return 0  # known-runtime principle: finishes within an epoch
        attained = self.attained_service(job, ctx.now)
        index = int(math.log2(attained / self.service_unit + 1.0)) + 1
        return min(index, self.num_queues - 1)

    # -- GangScheduler hooks ------------------------------------------------------

    def job_order(self, jobs: list[Job], ctx: SchedulingContext) -> list[Job]:
        return sorted(
            jobs,
            key=lambda j: (self.queue_index(j, ctx), j.arrival_time, j.job_id),
        )

    def preemptions(self, ctx: SchedulingContext) -> list[Job]:
        """Preempt long-served running jobs when better jobs wait."""
        waiting = waiting_jobs(ctx)
        if not waiting:
            return []
        best_waiting = min(self.queue_index(j, ctx) for j in waiting)
        running = [j for j in ctx.active_jobs if j.is_fully_placed]
        victims = [
            j for j in running if self.queue_index(j, ctx) > best_waiting
        ]
        victims.sort(
            key=lambda j: (
                -self.queue_index(j, ctx),
                -self.attained_service(j, ctx.now),
            )
        )
        victims = victims[: self.max_preemptions_per_round]
        for job in victims:
            # The base class evicts the whole gang right after this
            # returns; banking at emission keeps the stint exact.
            self._close_stint(job, ctx.now)
        return victims
