"""MLF-RL: ML-feature-based RL task scheduling (Section 3.4).

The RL scheduler runs MLF-H's pass (:class:`~repro.core.mlf_h.MLFPass`)
— priority-ordered task pool, ideal-virtual-task migration selection,
all-or-nothing admission — but delegates the *destination* decision
to a learned policy: for each task the candidate servers are featurized (:mod:`repro.core.state`) and a softmax scoring network picks
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

from repro.core.mlf_h import MLFPass
from repro.core.state import FEATURE_SIZE
from repro.obs.observer import span as _span
from repro.rl.policy import ScoringPolicy
from repro.rl.replay import Decision, Trajectory
from repro.sim.interface import SchedulerDecision, SchedulingContext
from repro.sim.shadow import ShadowCluster
from repro.workload.job import Job, Task


@dataclass
class MLFRLScheduler(MLFPass):
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

    policy: Optional[ScoringPolicy] = None
    explore: bool = False
    completion_boost: float = 0.5
    epoch_seconds: float = 1800.0
    name: str = "MLF-RL"

    #: Exploration trajectory of the current episode (training mode).
    trajectory: Trajectory = field(default_factory=Trajectory, init=False)
    _finish_cache: dict[str, bool] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.policy is not None and self.policy.feature_size != FEATURE_SIZE:
            raise ValueError(
                f"policy feature size {self.policy.feature_size} != {FEATURE_SIZE}"
            )

    # -- Scheduler API ------------------------------------------------------

    def on_schedule(self, ctx: SchedulingContext) -> SchedulerDecision:
        self._finish_cache.clear()
        return super().on_schedule(ctx)

    def reset_trajectory(self) -> Trajectory:
        """Detach and return the recorded episode; start a fresh one."""
        finished = self.trajectory
        self.trajectory = Trajectory()
        return finished

    # -- hooks -----------------------------------------------------------------

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
