"""MLF-RL: ML-feature-based RL task scheduling (Section 3.4).

The RL scheduler keeps MLF-H's skeleton — priority-ordered task pool,
ideal-virtual-task migration selection — but delegates the *destination*
decision to a learned policy: for each task the candidate servers are
featurized (:mod:`repro.core.state`) and a softmax scoring network picks
one.  The policy is bootstrapped by imitating MLF-H's recorded decisions
and can be fine-tuned with REINFORCE on the Eq. 7 reward
(:mod:`repro.core.train`).

Beyond the imitated placement rule, MLF-RL orders tasks with a
*completion-lookahead* term the heuristic does not have (jobs whose
predicted remaining time fits within the next scheduling epoch are
boosted) — this is the mechanism by which "MLF-RL can better extract ML
job features … whereas MLF-H may not be able to set optimal parameter
values" shows up as lower JCT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import MLFSConfig
from repro.core.mlf_h import _job_groups, completion_boosts, order_pool
from repro.core.overload import MigrationSelector
from repro.core.placement import PlacementEngine, TaskCommIndex
from repro.core.priority import PriorityCalculator
from repro.core.state import FEATURE_SIZE, StateFeaturizer
from repro.obs.observer import publish_priorities as _publish_priorities
from repro.obs.observer import span as _span
from repro.rl.policy import ScoringPolicy
from repro.rl.replay import Decision, Trajectory
from repro.sim.interface import (
    Eviction,
    Migration,
    Placement,
    Scheduler,
    SchedulerDecision,
    SchedulingContext,
)
from repro.sim.shadow import ShadowCluster
from repro.workload.job import Job, Task


@dataclass
class MLFRLScheduler(Scheduler):
    """The RL scheduler of Section 3.4.

    Parameters
    ----------
    config:
        The MLFS parameterization (``η``, thresholds, ablations).
    policy:
        A trained :class:`ScoringPolicy`; when ``None`` the scheduler
        falls back to the heuristic placement rule (the pre-switch
        behaviour).
    explore:
        When true, actions are sampled from the softmax (training mode)
        and recorded into :attr:`trajectory`.
    completion_boost:
        Weight of the lookahead ordering bonus for jobs predicted to
        finish within the next epoch.
    epoch_seconds:
        The lookahead horizon (one scheduling epoch).
    """

    config: MLFSConfig = field(default_factory=MLFSConfig)
    policy: Optional[ScoringPolicy] = None
    explore: bool = False
    completion_boost: float = 0.5
    epoch_seconds: float = 1800.0
    name: str = "MLF-RL"

    calculator: PriorityCalculator = field(init=False)
    placement: PlacementEngine = field(init=False)
    migration: MigrationSelector = field(init=False)
    featurizer: StateFeaturizer = field(init=False)
    comm_index: TaskCommIndex = field(init=False)
    #: Exploration trajectory of the current episode (training mode).
    trajectory: Trajectory = field(default_factory=Trajectory, init=False)
    _finish_cache: dict[str, bool] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.config.validate()
        self.comm_index = TaskCommIndex()
        self.calculator = PriorityCalculator(config=self.config)
        self.placement = PlacementEngine(config=self.config, comm_index=self.comm_index)
        self.migration = MigrationSelector(config=self.config, comm_index=self.comm_index)
        self.featurizer = StateFeaturizer(comm_index=self.comm_index)
        if self.policy is not None and self.policy.feature_size != FEATURE_SIZE:
            raise ValueError(
                f"policy feature size {self.policy.feature_size} != {FEATURE_SIZE}"
            )

    # -- Scheduler API ------------------------------------------------------

    def on_schedule(self, ctx: SchedulingContext) -> SchedulerDecision:
        decision = SchedulerDecision()
        self._finish_cache.clear()
        with _span("priority", jobs=len(ctx.active_jobs)):
            priorities = self.calculator.priorities(ctx.active_jobs, ctx.now)
            _publish_priorities(priorities)
        shadow = ShadowCluster(ctx.cluster)
        boost = completion_boosts(ctx.active_jobs)

        def score(task: Task) -> float:
            return self._order_score(task, priorities, ctx) * boost.get(
                task.job_id, 1.0
            )

        with _span("migration"):
            migration_candidates: list[Task] = []
            if self.config.enable_migration:
                for server in ctx.cluster.overloaded_servers(
                    self.config.overload_threshold
                ):
                    migration_candidates.extend(
                        self.migration.select(server, shadow, priorities)
                    )
            for task in order_pool(
                migration_candidates,
                {t.task_id: score(t) for t in migration_candidates},
            ):
                choice = self._choose_host(task, shadow, ctx)
                if choice is None:
                    decision.evictions.append(Eviction(task))
                    continue
                server_id, gpu_id = choice
                # The selector already committed the removal; record the
                # destination side of the move.
                shadow.commit_placement(task, server_id, gpu_id)
                decision.migrations.append(Migration(task, server_id, gpu_id))

        with _span("placement", queued=len(ctx.queue)):
            queue_scores = {t.task_id: score(t) for t in ctx.queue}
            ordered = order_pool(list(ctx.queue), queue_scores)
            decision.record_dequeue(ordered, queue_scores)
            for group in _job_groups(ordered):
                snapshot = shadow.snapshot()
                placements = []
                for task in group:
                    choice = self._choose_host(task, shadow, ctx)
                    if choice is None:
                        placements = None
                        break
                    server_id, gpu_id = choice
                    shadow.commit_placement(task, server_id, gpu_id)
                    placements.append(Placement(task, server_id, gpu_id))
                if placements is None:
                    shadow.restore(snapshot)
                else:
                    decision.placements.extend(placements)
        return decision

    def on_job_complete(self, job: Job, now: float) -> None:
        self.calculator.forget(job)
        self.comm_index.forget(job)

    def reset_trajectory(self) -> Trajectory:
        """Detach and return the recorded episode; start a fresh one."""
        finished = self.trajectory
        self.trajectory = Trajectory()
        return finished

    # -- internals -------------------------------------------------------------

    def _order_score(
        self, task: Task, priorities: dict[str, float], ctx: SchedulingContext
    ) -> float:
        score = priorities.get(task.task_id, 0.0)
        if self.completion_boost > 0.0 and self._finishes_within_epoch(task.job, ctx):
            score *= 1.0 + self.completion_boost
        return score

    def _finishes_within_epoch(self, job: Job, ctx: SchedulingContext) -> bool:
        cached = self._finish_cache.get(job.job_id)
        if cached is None:
            remaining = ctx.runtime_predictor.remaining_time(job)
            cached = 0.0 < remaining <= self.epoch_seconds
            self._finish_cache[job.job_id] = cached
        return cached

    def _choose_host(
        self, task: Task, shadow: ShadowCluster, ctx: SchedulingContext
    ) -> Optional[tuple[int, int]]:
        candidates = self.placement.candidate_servers(task, shadow)
        if not candidates:
            return None
        if self.policy is None or len(candidates) == 1:
            with _span("rl_inference", mode="fallback", candidates=len(candidates)):
                choice = self.placement.select_host(task, shadow, candidates=candidates)
            if choice is None:
                return None
            return choice.server_id, choice.gpu_id

        with _span("rl_inference", mode="policy", candidates=len(candidates)):
            features = self.featurizer.candidate_matrix(
                task, candidates, shadow, ctx.now
            )
            picked = self.policy.choose(features, greedy=not self.explore)
            server = candidates[picked.index]
            gpu_id = shadow.least_loaded_gpu(server)
        if self.explore:
            self.trajectory.add_step(
                Decision(
                    features=features,
                    chosen_index=picked.index,
                    log_prob=picked.log_prob,
                ),
                reward=0.0,  # per-step rewards are credited at episode end
            )
        return server.server_id, gpu_id
