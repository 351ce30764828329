"""MLF-H: ML-feature-based heuristic task scheduling (Section 3.3).

Each scheduling round:

1. compute Eq. 6 priorities for every task of every active job;
2. if migration is enabled, pick migration tasks out of each overloaded
   server (ideal-virtual-task rule, ``p_s``-restricted when GPUs are
   hot) — these are *virtually* queued;
3. order queued tasks and migration candidates by priority (descending)
   and assign each to the underloaded server closest to the ideal
   virtual host, onto its least-loaded GPU;
4. migration candidates that find a host move directly
   (``Migration``); candidates that don't are evicted to the real queue;
   queued tasks that don't fit simply wait.

An optional :class:`DecisionRecorder` captures every host choice with
its candidate feature matrix — the training data MLF-RL imitates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

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
    Placement,
    Scheduler,
    SchedulerDecision,
    SchedulingContext,
)
from repro.sim.shadow import ShadowCluster
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


def _job_groups(ordered_pool: list[Task]) -> list[list[Task]]:
    """Split an ordered pool into runs of same-job tasks (order kept)."""
    groups: list[list[Task]] = []
    for task in ordered_pool:
        if groups and groups[-1][0].job_id == task.job_id:
            groups[-1].append(task)
        else:
            groups.append([task])
    return groups


class DecisionRecorder(Protocol):
    """Sink for recorded (features, chosen index) placement decisions."""

    def record(self, features: np.ndarray, chosen_index: int) -> None:
        """Store one decision."""
        ...


@dataclass
class BufferRecorder:
    """Adapts :class:`~repro.rl.replay.ImitationBuffer` to the recorder
    protocol — the standard way to capture MLF-H decisions for MLF-RL
    imitation training."""

    buffer: "ImitationBuffer"

    def record(self, features: np.ndarray, chosen_index: int) -> None:
        """Append one expert decision to the buffer."""
        self.buffer.add(Decision(features=features, chosen_index=chosen_index))


@dataclass
class MLFHScheduler(Scheduler):
    """The heuristic scheduler of Section 3.3."""

    config: MLFSConfig = field(default_factory=MLFSConfig)
    recorder: Optional[DecisionRecorder] = None
    name: str = "MLF-H"

    calculator: PriorityCalculator = field(init=False)
    placement: PlacementEngine = field(init=False)
    migration: MigrationSelector = field(init=False)
    featurizer: StateFeaturizer = field(init=False)
    comm_index: TaskCommIndex = field(init=False)
    #: Number of placement decisions made so far (drives the RL switch).
    decisions_made: int = field(default=0, init=False)

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
        with _span("priority", jobs=len(ctx.active_jobs)):
            priorities = self.calculator.priorities(ctx.active_jobs, ctx.now)
            _publish_priorities(priorities)
        shadow = ShadowCluster(ctx.cluster)
        boost = completion_boosts(ctx.active_jobs)

        def score(task: Task) -> float:
            return priorities.get(task.task_id, 0.0) * boost.get(task.job_id, 1.0)

        # Migration candidates move (or are evicted) individually.
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
                choice = self._select_and_record(task, shadow, ctx)
                if choice is None:
                    decision.evictions.append(Eviction(task))
                    continue
                server_id, gpu_id = choice
                # The selector already committed the removal; record the
                # destination side of the move.
                shadow.commit_placement(task, server_id, gpu_id)
                decision.migrations.append(Migration(task, server_id, gpu_id))
                self.decisions_made += 1

        # Queued tasks are admitted per job, all-or-nothing: a job only
        # iterates once fully placed, so partially seeding it would hold
        # resources without progress.
        with _span("placement", queued=len(ctx.queue)):
            queue_scores = {t.task_id: score(t) for t in ctx.queue}
            ordered = order_pool(list(ctx.queue), queue_scores)
            decision.record_dequeue(ordered, queue_scores)
            for group in _job_groups(ordered):
                snapshot = shadow.snapshot()
                placements = []
                for task in group:
                    choice = self._select_and_record(task, shadow, ctx)
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
                    self.decisions_made += len(placements)
        return decision

    def on_job_complete(self, job: Job, now: float) -> None:
        self.calculator.forget(job)
        self.comm_index.forget(job)

    # -- internals -------------------------------------------------------------

    def _select_and_record(
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
            self.recorder.record(features, chosen_index)
        return choice.server_id, choice.gpu_id
