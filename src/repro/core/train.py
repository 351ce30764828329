"""Training pipelines for MLF-RL.

Implements the paper's training recipe end-to-end:

1. **Collect** — run MLF-H over a workload with an imitation buffer
   attached ("MLFS initially runs MLF-H … and uses the data to train a
   deep RL model").
2. **Imitate** — supervised pretraining of the scoring policy on the
   recorded decisions.
3. **Fine-tune** — episodic REINFORCE on the Eq. 7 reward with discount
   ``η`` ("we utilize the gradient-descent to update θ").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.core.config import MLFSConfig
from repro.core.mlf_h import MLFHScheduler
from repro.core.mlf_rl import MLFRLScheduler
from repro.core.state import FEATURE_SIZE
from repro.rl.policy import ScoringPolicy
from repro.rl.reinforce import ImitationTrainer, ReinforceTrainer
from repro.rl.replay import ImitationBuffer
from repro.sim.engine import EngineConfig, SimulationEngine
from repro.workload.generator import WorkloadConfig, build_jobs
from repro.workload.trace import TraceRecord


@dataclass
class TrainingSetup:
    """Workload + cluster recipe used for RL training episodes."""

    records: Sequence[TraceRecord]
    cluster_factory: Callable[[], Cluster]
    config: MLFSConfig
    engine_config: EngineConfig
    workload_config: Optional[WorkloadConfig] = None
    workload_seed: int = 0


def collect_imitation_data(
    setup: TrainingSetup, capacity: int = 20_000
) -> ImitationBuffer:
    """Run MLF-H over the setup's workload, recording every host choice."""
    buffer = ImitationBuffer(capacity=capacity)
    scheduler = MLFHScheduler(config=setup.config, recorder=buffer)
    jobs = build_jobs(
        setup.records, seed=setup.workload_seed, config=setup.workload_config
    )
    engine = SimulationEngine(
        scheduler=scheduler,
        jobs=jobs,
        cluster=setup.cluster_factory(),
        config=setup.engine_config,
    )
    engine.run()
    return buffer


def pretrain_policy(
    buffer: ImitationBuffer,
    epochs: int = 3,
    hidden_sizes: tuple[int, ...] = (64, 32),
    seed: int = 7,
) -> tuple[ScoringPolicy, dict[str, float]]:
    """Imitation-pretrain a scoring policy from recorded decisions."""
    policy = ScoringPolicy(
        feature_size=FEATURE_SIZE, hidden_sizes=hidden_sizes, seed=seed
    )
    trainer = ImitationTrainer(policy=policy)
    stats = trainer.train(buffer, epochs=epochs)
    return policy, stats


def episode_reward(engine: SimulationEngine, config: MLFSConfig) -> float:
    """Eq. 7 reward of a finished simulation episode."""
    records = engine.metrics.job_records
    # Rebuild lightweight objective inputs from the records.
    jcts_h = [r.jct / 3600.0 for r in records]
    if not jcts_h:
        return 0.0
    avg_jct = sum(jcts_h) / len(jcts_h)
    values_tuple = (
        1.0 / avg_jct if avg_jct > 0 else 0.0,
        sum(1 for r in records if r.met_deadline) / len(records),
        1.0 / max(engine.metrics.total_bandwidth_mb() / 1024.0, 1e-6),
        sum(1 for r in records if r.met_accuracy) / len(records),
        sum(r.accuracy_at_deadline for r in records) / len(records),
    )
    betas = config.reward.as_tuple()
    return sum(b * g for b, g in zip(betas, values_tuple))


def reinforce_finetune(
    policy: ScoringPolicy,
    setup: TrainingSetup,
    episodes: int = 5,
    learning_rate: float = 5e-4,
) -> list[dict[str, float]]:
    """Fine-tune a policy with episodic REINFORCE on Eq. 7.

    Each episode replays the workload with sampled (exploring) actions;
    the episode's Eq. 7 reward is credited to the final step and
    discounted backwards with ``η``, the REINFORCE-with-baseline form
    used by the RL schedulers the paper builds on.
    """
    trainer = ReinforceTrainer(
        policy=policy, discount=setup.config.eta, learning_rate=learning_rate
    )
    history = []
    for episode in range(episodes):
        scheduler = MLFRLScheduler(config=setup.config, policy=policy, explore=True)
        jobs = build_jobs(
            setup.records, seed=setup.workload_seed, config=setup.workload_config
        )
        engine = SimulationEngine(
            scheduler=scheduler,
            jobs=jobs,
            cluster=setup.cluster_factory(),
            config=setup.engine_config,
        )
        engine.run()
        trajectory = scheduler.reset_trajectory()
        if len(trajectory) == 0:
            history.append({"steps": 0.0, "mean_return": 0.0})
            continue
        trajectory.rewards[-1] = episode_reward(engine, setup.config)
        history.append(trainer.train_on_trajectory(trajectory))
    return history


def train_mlf_rl_policy(
    setup: TrainingSetup,
    imitation_epochs: int = 3,
    reinforce_episodes: int = 0,
) -> ScoringPolicy:
    """The full pipeline: collect → imitate → (optionally) fine-tune."""
    buffer = collect_imitation_data(setup)
    policy, _stats = pretrain_policy(buffer, epochs=imitation_epochs)
    if reinforce_episodes > 0:
        reinforce_finetune(policy, setup, episodes=reinforce_episodes)
    return policy

