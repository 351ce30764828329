"""Graphene (Grandl et al., OSDI 2016) — as characterized in the paper.

"Within one job, Graphene tends to first assign the available resources
to the 'troublesome' tasks (the tasks [that] have more dependent tasks
and tough-to-pack resource demands) … For a set of jobs, Graphene
determines the order of multiple jobs based on a weighted score …
including average job completion time, cluster throughput and fairness"
(Section 2).  DAG-aware but ML-feature-blind: no accuracy or deadline
objective.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import GangScheduler
from repro.sim.interface import SchedulingContext
from repro.workload.job import Job, Task


@dataclass
class GrapheneScheduler(GangScheduler):
    """DAG- and packing-aware gang scheduling with a weighted job score.

    Weights follow Graphene's multi-objective ordering: shorter
    remaining work (JCT), higher per-GPU parallelism (throughput), and
    longer waiting (fairness).
    """

    name: str = "Graphene"
    weight_jct: float = 0.5
    weight_throughput: float = 0.3
    weight_fairness: float = 0.2

    def job_score(self, job: Job, ctx: SchedulingContext) -> float:
        """Weighted multi-objective score; higher = earlier admission."""
        remaining_h = max(ctx.runtime_predictor.remaining_time(job), 1.0) / 3600.0
        srpt = 1.0 / remaining_h
        throughput = job.gpus_requested / 32.0
        waiting = max(
            (t.waiting_time(ctx.now) for t in job.queued_tasks()), default=0.0
        )
        fairness = waiting / 3600.0
        return (
            self.weight_jct * srpt
            + self.weight_throughput * throughput
            + self.weight_fairness * fairness
        )

    def job_order(self, jobs: list[Job], ctx: SchedulingContext) -> list[Job]:
        ordered = sorted(
            jobs, key=lambda j: (-self.job_score(j, ctx), j.arrival_time, j.job_id)
        )
        # Troublesome-first task ordering within each job: more
        # dependents and tougher demands pack first.
        for job in ordered:
            job.tasks.sort(key=lambda t: -self._troublesomeness(t))
        return ordered

    def _troublesomeness(self, task: Task) -> float:
        dependents = task.job.dag.descendant_counts[task.task_id]
        demand = task.demand.gpu + task.demand.cpu / 32.0 + task.demand.mem / 244.0
        return dependents + demand
