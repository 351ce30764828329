#!/usr/bin/env python3
"""Quickstart: schedule a synthetic ML workload with MLFS.

Builds a Philly-like trace of 40 jobs, runs it through the full MLFS
system (MLF-H priorities + RIAL placement + MLF-C load control) on a
10-server cluster, and prints the headline metrics next to a FIFO
baseline.

Run:  python examples/quickstart.py
"""

from repro import api
from repro.analysis import format_table
from repro.analysis.report import metrics_of


def main() -> None:
    # 1. The scenario: a synthetic trace shaped like the Microsoft Philly
    #    workload, a 10-server cluster and the trace → job seed.
    spec = api.RunSpec(
        scheduler=api.SchedulerSpec("MLFS"),
        workload=api.WorkloadSpec(num_jobs=40, duration_hours=2.0, trace_seed=42),
        cluster=api.ClusterSpec(num_servers=10, gpus_per_server=4),
        engine=api.EngineConfig(tick_seconds=60.0),
        seed=43,
    )

    # 2. Run MLFS and FIFO over the identical workload.
    results = {
        name: metrics_of(
            api.run(api.replace_path(spec, "scheduler", api.SchedulerSpec(name)))
        )
        for name in ("MLFS", "FIFO")
    }

    # 3. Report.
    keys = [
        "avg_jct_s",
        "makespan_s",
        "deadline_ratio",
        "avg_accuracy",
        "accuracy_ratio",
        "bandwidth_gb",
        "overhead_ms",
    ]
    rows = [
        [name] + [round(summary[k], 3) for k in keys]
        for name, summary in results.items()
    ]
    print(format_table(["scheduler"] + keys, rows))

    mlfs = results["MLFS"]
    fifo = results["FIFO"]
    speedup = (fifo["avg_jct_s"] - mlfs["avg_jct_s"]) / fifo["avg_jct_s"]
    print(f"\nMLFS reduces average JCT by {speedup:.0%} vs FIFO on this workload.")


if __name__ == "__main__":
    main()
