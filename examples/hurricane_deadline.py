#!/usr/bin/env python3
"""Urgent jobs with hard deadlines — the paper's hurricane scenario.

The paper motivates MLFS with time-critical prediction jobs: "an ML job
for predicting a hurricane path must be completed by a certain time
before the hurricane landfall with a high prediction accuracy" (§1).

This example submits a background workload plus a burst of *urgent*
jobs (urgency 10, tight deadlines) and compares how MLFS and a fair
scheduler treat the urgent jobs: MLFS's urgency coefficient ``L_J``
(Eq. 2) pushes them ahead, the fair scheduler treats them like any
other job.

Run:  python examples/hurricane_deadline.py
"""

from repro.analysis import format_table
from repro.baselines import FairScheduler
from repro.cluster import Cluster
from repro.core import make_mlfs
from repro.sim import SimulationEngine
from repro.workload import TraceRecord, WorkloadConfig, build_jobs, generate_trace


def build_workload() -> list[TraceRecord]:
    """Background jobs plus a burst of urgent hurricane-track jobs."""
    background = generate_trace(
        num_jobs=50, duration_seconds=3600.0, seed=7, urgency_levels=5
    )
    urgent = [
        TraceRecord(
            job_id=f"hurricane{i}",
            arrival_time=600.0 + i * 120.0,
            gpus_requested=8,
            model_name="lstm",  # sequence model for track forecasting
            max_iterations=30,
            accuracy_requirement=0.9,
            urgency=10,
            training_data_mb=800.0,
        )
        for i in range(5)
    ]
    return sorted(background + urgent, key=lambda r: r.arrival_time)


def main() -> None:
    records = build_workload()
    # Tight deadline draw: urgency has to matter.
    config = WorkloadConfig(deadline_uniform_range_hours=(0.5, 3.0))
    rows = []
    for scheduler in (make_mlfs(), FairScheduler()):
        jobs = build_jobs(records, seed=8, config=config)
        metrics = SimulationEngine(scheduler, jobs, Cluster.build(5, 4)).run()
        urgent = [r for r in metrics.job_records if r.urgency > 8]
        met = sum(1 for r in urgent if r.met_deadline)
        rows.append(
            [
                scheduler.name,
                f"{met}/{len(urgent)}",
                round(metrics.urgent_deadline_ratio(8), 3),
                round(
                    sum(r.jct for r in urgent) / max(len(urgent), 1) / 60.0, 1
                ),
                round(metrics.deadline_guarantee_ratio(), 3),
            ]
        )
    print(
        format_table(
            [
                "scheduler",
                "urgent met",
                "urgent deadline ratio",
                "urgent avg JCT (min)",
                "overall deadline ratio",
            ],
            rows,
        )
    )


if __name__ == "__main__":
    main()
