"""MLFS: the full system — MLF-H → MLF-RL switch plus MLF-C.

"MLFS initially runs MLF-H for a certain time period and uses the data
to train a deep RL model, and it then switches to MLF-RL when the model
is well trained" (Section 3.4); "when the system is overloaded, MLF-C …
stops running or generating tasks once the desired accuracy is reached"
(Section 3.5).

Each round MLFS first applies MLF-C (collecting early stops), excludes
the stopped jobs' tasks from the round's pool, then delegates to the
active phase's scheduler.  The phase switches automatically once enough
heuristic decisions have been recorded and imitation training has
converged; callers that already hold a pretrained policy (the usual
benchmark path) pass it in and MLFS starts directly in the RL phase.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.core.config import MLFSConfig
from repro.core.mlf_c import MLFCController
from repro.core.mlf_h import MLFHScheduler
from repro.core.mlf_rl import MLFRLScheduler
from repro.core.state import FEATURE_SIZE
from repro.obs.observer import span as _span
from repro.rl.policy import ScoringPolicy
from repro.rl.reinforce import ImitationTrainer
from repro.rl.replay import ImitationBuffer
from repro.sim.interface import (
    Scheduler,
    SchedulerDecision,
    SchedulingContext,
)
from repro.workload.job import Job


class Phase(enum.Enum):
    """Which scheduling engine is active."""

    HEURISTIC = "heuristic"
    RL = "rl"


@dataclass
class MLFSScheduler(Scheduler):
    """The complete MLFS system.

    Parameters
    ----------
    config:
        Shared MLFS parameterization.
    pretrained_policy:
        Optional policy; when given MLFS starts in the RL phase.
    auto_switch:
        When true (and no pretrained policy), MLFS records MLF-H
        decisions and switches to MLF-RL after
        ``config.rl_switch_decisions`` decisions by training the policy
        via imitation in-line.
    """

    config: MLFSConfig = field(default_factory=MLFSConfig)
    pretrained_policy: Optional[ScoringPolicy] = None
    auto_switch: bool = True
    name: str = "MLFS"

    phase: Phase = field(init=False)
    heuristic: MLFHScheduler = field(init=False)
    rl: MLFRLScheduler = field(init=False)
    load_control: MLFCController = field(init=False)
    imitation_buffer: ImitationBuffer = field(init=False)

    def __post_init__(self) -> None:
        self.config.validate()
        self.imitation_buffer = ImitationBuffer(capacity=20_000)
        self.heuristic = MLFHScheduler(
            config=self.config, recorder=self.imitation_buffer
        )
        self.rl = MLFRLScheduler(config=self.config, policy=self.pretrained_policy)
        self.load_control = MLFCController(config=self.config)
        self.phase = Phase.RL if self.pretrained_policy is not None else Phase.HEURISTIC

    # -- Scheduler API ------------------------------------------------------

    def on_schedule(self, ctx: SchedulingContext) -> SchedulerDecision:
        with _span("load_control", active_jobs=len(ctx.active_jobs)):
            stops = self.load_control.apply(ctx)
        stopped_jobs = {stop.job.job_id for stop in stops}
        if stopped_jobs:
            ctx = dataclasses.replace(
                ctx,
                queue=[t for t in ctx.queue if t.job_id not in stopped_jobs],
                active_jobs=[
                    j for j in ctx.active_jobs if j.job_id not in stopped_jobs
                ],
            )
        self._maybe_switch()
        engine = self.heuristic if self.phase is Phase.HEURISTIC else self.rl
        decision = engine.on_schedule(ctx)
        decision.stops.extend(stops)
        return decision

    def can_park(self, cluster: Cluster) -> bool:
        """MLF-C evaluates OptStop on every pass (Section 3.5), so a
        skipped pass could move a stop decision; without it MLFS parks
        like MLF-H."""
        return not self.config.enable_load_control

    def on_job_complete(self, job: Job, now: float) -> None:
        self.heuristic.on_job_complete(job, now)
        self.rl.on_job_complete(job, now)

    # -- phase switch ---------------------------------------------------------

    def _maybe_switch(self) -> None:
        if (
            self.phase is Phase.HEURISTIC
            and self.auto_switch
            and self.pretrained_policy is None
            and len(self.imitation_buffer) >= self.config.rl_switch_decisions
        ):
            policy = ScoringPolicy(feature_size=FEATURE_SIZE, seed=7)
            trainer = ImitationTrainer(policy=policy)
            stats = trainer.train(self.imitation_buffer, epochs=2)
            if stats["agreement"] >= 0.5:
                self.rl.policy = policy
                self.phase = Phase.RL


def make_mlf_h(config: Optional[MLFSConfig] = None) -> MLFHScheduler:
    """MLF-H alone (the paper's "MLF-H" curves)."""
    cfg = config or MLFSConfig(enable_load_control=False)
    return MLFHScheduler(config=cfg, name="MLF-H")


def make_mlf_rl(
    policy: Optional[ScoringPolicy] = None, config: Optional[MLFSConfig] = None
) -> MLFRLScheduler:
    """MLF-RL alone, without load control (the paper's "MLF-RL" curves)."""
    cfg = config or MLFSConfig(enable_load_control=False)
    return MLFRLScheduler(config=cfg, policy=policy, name="MLF-RL")


def make_mlfs(
    policy: Optional[ScoringPolicy] = None, config: Optional[MLFSConfig] = None
) -> MLFSScheduler:
    """Full MLFS: RL scheduling plus MLF-C load control."""
    cfg = config or MLFSConfig(enable_load_control=True)
    return MLFSScheduler(config=cfg, pretrained_policy=policy, name="MLFS")
