"""MLF-H: ML-feature-based heuristic task scheduling (Section 3.3).

Each scheduling round:

1. compute Eq. 6 priorities for the jobs the pass can act on: those
   with a queued task or a task on an overloaded server;
2. if migration is enabled, pick migration tasks out of each overloaded
   server (ideal-virtual-task rule, ``p_s``-restricted when GPUs are
   hot) — these are *virtually* queued;
3. order queued tasks and migration candidates by priority (descending)
   and assign each to the underloaded server closest to the ideal
   virtual host, onto its least-loaded GPU;
4. migration candidates that find a host move directly
   (``Migration``); candidates that don't are evicted to the real queue;
   queued tasks that don't fit simply wait.

MLF-H and MLF-RL (:mod:`repro.core.mlf_rl`) run this one pass,
:class:`MLFPass`, and differ only in its ordering score and host
choice.  An optional :class:`~repro.rl.replay.ImitationBuffer` captures
every MLF-H host choice with its candidate feature matrix — the
training data MLF-RL imitates.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import MLFSConfig
from repro.core.overload import MigrationSelector
from repro.obs.observer import publish_priorities as _publish_priorities
from repro.obs.observer import span as _span
from repro.core.placement import PlacementEngine, TaskCommIndex
from repro.core.priority import PriorityCalculator
from repro.core.state import StateFeaturizer
from repro.rl.replay import Decision, ImitationBuffer
from repro.sim.interface import (
    Eviction,
    Migration,
    Scheduler,
    SchedulerDecision,
    SchedulingContext,
)
from repro.sim.shadow import ShadowCluster, job_groups
from repro.workload.job import Job, Task


def order_pool(pool: list[Task], task_scores: dict[str, float]) -> list[Task]:
    """Order a scheduling pool job-grouped.

    Jobs are ranked by their best (boosted) task score and a job's tasks
    stay contiguous, ordered by their own scores.  Grouping matters: a
    job iterates only once *fully* placed, so interleaving tasks of many
    jobs within one round fragments the cluster into partially-placed
    jobs that hold resources without progressing.
    """
    job_best: dict[str, float] = {}
    for task in pool:
        score = task_scores.get(task.task_id, 0.0)
        if score > job_best.get(task.job_id, float("-inf")):
            job_best[task.job_id] = score
    return sorted(
        pool,
        key=lambda t: (
            -job_best[t.job_id],
            t.job_id,
            -task_scores.get(t.task_id, 0.0),
            t.task_id,
        ),
    )


def completion_boosts(jobs: list[Job]) -> dict[str, float]:
    """Priority multiplier favouring tasks of partially-placed jobs.

    A job iterates only when *all* its tasks hold resources; placing one
    more task of a 90%-placed job unlocks real progress, whereas seeding
    yet another job fragments the cluster.  The boost scales with the
    placed fraction (up to 3×), implementing the paper's rationale that
    a task's "completion enables more other tasks to start running".
    """
    boosts: dict[str, float] = {}
    for job in jobs:
        total = len(job.tasks)
        if not total:
            continue
        placed = len(job.placed_tasks())
        if 0 < placed < total:
            boosts[job.job_id] = 1.0 + 2.0 * (placed / total)
    return boosts


@dataclass
class MLFPass(Scheduler):
    """The MLF scheduling pass shared by MLF-H and MLF-RL.

    One pass scores the jobs it can act on, moves (or evicts)
    the migration candidates of overloaded servers, then admits queued
    jobs all-or-nothing in score order.  Subclasses supply two hooks:
    :meth:`_order_score` (the priority by default) and
    :meth:`_choose_host`, the destination of one task.
    """

    config: MLFSConfig = field(default_factory=MLFSConfig)

    calculator: PriorityCalculator = field(init=False)
    placement: PlacementEngine = field(init=False)
    migration: MigrationSelector = field(init=False)
    featurizer: StateFeaturizer = field(init=False)
    comm_index: TaskCommIndex = field(init=False)

    def __post_init__(self) -> None:
        self.config.validate()
        self.comm_index = TaskCommIndex()
        self.calculator = PriorityCalculator(config=self.config)
        self.placement = PlacementEngine(config=self.config, comm_index=self.comm_index)
        self.migration = MigrationSelector(config=self.config, comm_index=self.comm_index)
        self.featurizer = StateFeaturizer(comm_index=self.comm_index)

    # -- Scheduler API ------------------------------------------------------

    def on_schedule(self, ctx: SchedulingContext) -> SchedulerDecision:
        decision = SchedulerDecision()
        overloaded = (
            ctx.cluster.overloaded_servers(self.config.overload_threshold)
            if self.config.enable_migration
            else []
        )
        # Only queued tasks and tasks on overloaded servers (the victim
        # pool) are scored, and a job's map depends on that job alone.
        scored = {t.job_id for t in ctx.queue}
        scored.update(t.job_id for server in overloaded for t in server.tasks())
        jobs = [job for job in ctx.active_jobs if job.job_id in scored]
        with _span("priority", jobs=len(jobs)):
            priorities = self.calculator.priorities(jobs, ctx.now)
            _publish_priorities(priorities)
        shadow = ShadowCluster(ctx.cluster)
        boost = completion_boosts(jobs)

        def score(task: Task) -> float:
            return self._order_score(task, priorities, ctx) * boost.get(
                task.job_id, 1.0
            )

        def choose(task: Task) -> Optional[tuple[int, int]]:
            return self._choose_host(task, shadow, ctx)

        # Migration candidates move (or are evicted) individually.
        with _span("migration"):
            migration_candidates: list[Task] = []
            for server in overloaded:
                migration_candidates.extend(
                    self.migration.select(server, shadow, priorities)
                )
            for task in order_pool(
                migration_candidates,
                {t.task_id: score(t) for t in migration_candidates},
            ):
                choice = choose(task)
                if choice is None:
                    decision.evictions.append(Eviction(task))
                    continue
                server_id, gpu_id = choice
                # The selector already committed the removal; record the
                # destination side of the move.
                shadow.commit_placement(task, server_id, gpu_id)
                decision.migrations.append(Migration(task, server_id, gpu_id))

        # Queued tasks are admitted per job, all-or-nothing: a job only
        # iterates once fully placed, so partially seeding it would hold
        # resources without progress.
        with _span("placement", queued=len(ctx.queue)):
            queue_scores = {t.task_id: score(t) for t in ctx.queue}
            ordered = order_pool(list(ctx.queue), queue_scores)
            decision.record_dequeue(ordered, queue_scores)
            for group in job_groups(ordered):
                placements = shadow.place_all(group, choose)
                if placements is not None:
                    decision.placements.extend(placements)
        return decision

    def on_job_complete(self, job: Job, now: float) -> None:
        self.comm_index.forget(job)

    # -- hooks -----------------------------------------------------------------

    def _order_score(
        self, task: Task, priorities: dict[str, float], ctx: SchedulingContext
    ) -> float:
        """The task's ordering score before the completion boost."""
        return priorities.get(task.task_id, 0.0)

    @abc.abstractmethod
    def _choose_host(
        self, task: Task, shadow: ShadowCluster, ctx: SchedulingContext
    ) -> Optional[tuple[int, int]]:
        """``(server_id, gpu_id)`` to host ``task``, or ``None``."""


@dataclass
class MLFHScheduler(MLFPass):
    """The heuristic scheduler of Section 3.3."""

    recorder: Optional[ImitationBuffer] = None
    name: str = "MLF-H"

    # -- hooks -----------------------------------------------------------------

    def _choose_host(
        self, task: Task, shadow: ShadowCluster, ctx: SchedulingContext
    ) -> Optional[tuple[int, int]]:
        """Pick a host via the RIAL rule, recording the decision if asked."""
        candidates = self.placement.candidate_servers(task, shadow)
        if not candidates:
            return None
        choice = self.placement.select_host(task, shadow, candidates=candidates)
        if choice is None:
            return None
        if self.recorder is not None and len(candidates) > 1:
            features = self.featurizer.candidate_matrix(
                task, candidates, shadow, ctx.now
            )
            chosen_index = next(
                i for i, s in enumerate(candidates) if s.server_id == choice.server_id
            )
            self.recorder.add(Decision(features=features, chosen_index=chosen_index))
        return choice.server_id, choice.gpu_id
