#!/usr/bin/env python3
"""The full MLF-RL training pipeline (Section 3.4).

1. Run MLF-H over a workload, recording every placement decision.
2. Imitation-pretrain the scoring policy on the recorded decisions.
3. Fine-tune with REINFORCE on the Eq. 7 reward (discount η = 0.95).
4. Compare MLF-H vs the trained MLF-RL on a held-out workload.

Run:  python examples/train_rl_scheduler.py
"""

from repro.analysis import format_table
from repro.cluster import Cluster
from repro.core import (
    MLFSConfig,
    TrainingSetup,
    collect_imitation_data,
    make_mlf_h,
    make_mlf_rl,
    pretrain_policy,
    reinforce_finetune,
)
from repro.sim import EngineConfig, SimulationEngine
from repro.workload import build_jobs, generate_trace


def main() -> None:
    config = MLFSConfig(enable_load_control=False)
    engine_config = EngineConfig()

    # --- 1+2: collect MLF-H decisions and imitate them -----------------
    train_records = generate_trace(60, duration_seconds=3600.0, seed=31)
    training = TrainingSetup(
        records=train_records,
        cluster_factory=lambda: Cluster.build(5, 4),
        config=config,
        engine_config=engine_config,
        workload_seed=32,
    )
    buffer = collect_imitation_data(training)
    print(f"collected {len(buffer)} MLF-H placement decisions")
    policy, stats = pretrain_policy(buffer, epochs=3)
    print(
        f"imitation: {stats['epochs']:.0f} epochs, "
        f"loss {stats['loss']:.3f}, expert agreement {stats['agreement']:.1%}"
    )

    # --- 3: REINFORCE fine-tuning on the Eq. 7 reward ------------------
    history = reinforce_finetune(policy, training, episodes=3)
    for i, episode in enumerate(history):
        print(
            f"REINFORCE episode {i}: {episode['steps']:.0f} decisions, "
            f"mean return {episode['mean_return']:.4f}"
        )

    # --- 4: held-out comparison ----------------------------------------
    test_records = generate_trace(60, duration_seconds=3600.0, seed=41)
    keys = ["avg_jct_s", "deadline_ratio", "avg_accuracy", "bandwidth_gb", "overhead_ms"]
    rows = []
    for scheduler in (make_mlf_h(), make_mlf_rl(policy)):
        jobs = build_jobs(test_records, seed=42)
        engine = SimulationEngine(scheduler, jobs, Cluster.build(5, 4), engine_config)
        summary = engine.run().summary()
        rows.append([scheduler.name] + [round(summary[k], 3) for k in keys])
    print()
    print(format_table(["scheduler"] + keys, rows))


if __name__ == "__main__":
    main()
