#!/usr/bin/env python3
"""MLF-C under overload: stop options and early stopping.

Floods a small cluster (3 servers) with 80 jobs so the system is
genuinely overloaded, then shows what MLF-C does about it: jobs whose
users permit it are downgraded (fixed-iterations → OptStop →
stop-at-required-accuracy) and stopped as soon as their target is met,
freeing capacity for the rest.

Run:  python examples/overloaded_cluster.py
"""

from repro.analysis import format_table
from repro.cluster import Cluster
from repro.core import make_mlf_rl, make_mlfs
from repro.sim import SimulationEngine
from repro.workload import WorkloadConfig, build_jobs, generate_trace


def main() -> None:
    records = generate_trace(num_jobs=80, duration_seconds=3600.0, seed=21)
    config = WorkloadConfig(deadline_uniform_range_hours=(0.5, 6.0))
    rows = []
    # MLFS = MLF-RL + MLF-C; MLF-RL alone is the no-load-control ablation.
    for scheduler in (make_mlfs(), make_mlf_rl()):
        jobs = build_jobs(records, seed=22, config=config)
        metrics = SimulationEngine(scheduler, jobs, Cluster.build(3, 4)).run()
        summary = metrics.summary()
        stopped = [r for r in metrics.job_records if r.stopped_early]
        saved = sum(r.max_iterations - r.iterations_completed for r in stopped)
        rows.append(
            [
                scheduler.name,
                len(stopped),
                saved,
                round(summary["avg_jct_s"] / 60.0, 1),
                round(summary["deadline_ratio"], 3),
                round(summary["accuracy_ratio"], 3),
                round(summary["avg_accuracy"], 3),
            ]
        )
    print(
        format_table(
            [
                "scheduler",
                "jobs stopped early",
                "iterations saved",
                "avg JCT (min)",
                "deadline ratio",
                "accuracy ratio",
                "avg accuracy",
            ],
            rows,
        )
    )
    print(
        "\nMLF-C trades surplus iterations (accuracy beyond the requirement)"
        "\nfor queue drain: stopped jobs release GPUs that let waiting jobs"
        "\nrun their important early iterations before their deadlines."
    )


if __name__ == "__main__":
    main()
