"""The "RL" baseline (Mirhoseini et al., ICML 2017) — as characterized
in the paper.

"Mirhoseini et al. applied RL in job scheduling in a GPU cluster to
minimize the average JCT.  The scheduler scans all tasks and then maps
the tasks to the appropriate GPUs" (Section 2).  Unlike MLF-RL it
"do[es] not aim to improve accuracy or consider ML features": tasks are
ordered by shortest-remaining-time (the JCT objective) and a learned
policy picks the destination among feasible servers.  Its reward is
``g1`` (1 / average JCT) only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.placement import TaskCommIndex
from repro.core.state import FEATURE_SIZE, StateFeaturizer
from repro.rl.policy import ScoringPolicy
from repro.sim.interface import Scheduler, SchedulerDecision, SchedulingContext
from repro.sim.shadow import ShadowCluster, job_groups
from repro.workload.job import Job, Task


@dataclass
class RLScheduler(Scheduler):
    """JCT-only RL task mapping (no ML features, no load control).

    Parameters
    ----------
    policy:
        A trained scoring policy; ``None`` falls back to least-loaded
        placement (the untrained behaviour).
    """

    policy: Optional[ScoringPolicy] = None
    name: str = "RL"
    comm_index: TaskCommIndex = field(init=False)
    featurizer: StateFeaturizer = field(init=False)

    def __post_init__(self) -> None:
        self.comm_index = TaskCommIndex()
        self.featurizer = StateFeaturizer(comm_index=self.comm_index)
        if self.policy is not None and self.policy.feature_size != FEATURE_SIZE:
            raise ValueError("policy feature size mismatch")

    def on_job_complete(self, job: Job, now: float) -> None:
        # Drop the job's cached peer links; without this the index grows
        # for every job ever seen, leaking across long sweeps and the
        # service daemon's unbounded job stream.
        self.comm_index.forget(job)

    def on_schedule(self, ctx: SchedulingContext) -> SchedulerDecision:
        decision = SchedulerDecision()
        shadow = ShadowCluster(ctx.cluster)
        # Mirhoseini's RL optimizes *placement*, not queue ordering: the
        # scheduler "scans all tasks" in submission order and the learned
        # policy decides where each goes.
        pool = sorted(
            ctx.queue,
            key=lambda t: (t.job.arrival_time, t.job_id, t.task_id),
        )

        def choose(task: Task) -> Optional[tuple[int, int]]:
            return self._choose_host(task, shadow, ctx)

        # Per-job all-or-nothing admission: a partially placed job holds
        # GPUs without progressing, so failed groups roll back.
        for group in job_groups(pool):
            placements = shadow.place_all(group, choose)
            if placements is not None:
                decision.placements.extend(placements)
        return decision

    def _choose_host(
        self, task: Task, shadow: ShadowCluster, ctx: SchedulingContext
    ) -> Optional[tuple[int, int]]:
        candidates = [
            s
            for s in shadow.cluster.servers
            if not shadow.would_overload(s, task.demand, ctx.overload_threshold)
        ]
        if not candidates:
            return None
        if self.policy is None or len(candidates) == 1:
            server = min(
                candidates, key=lambda s: (shadow.overload_degree(s), s.server_id)
            )
        else:
            features = self.featurizer.candidate_matrix(
                task, candidates, shadow, ctx.now
            )
            picked = self.policy.choose(features, greedy=True)
            server = candidates[picked.index]
        return server.server_id, shadow.least_loaded_gpu(server)
