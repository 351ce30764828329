#!/usr/bin/env python3
"""Failure recovery demo: crash a server mid-run and watch the stack heal.

Two acts, one failure model (``repro.faults``):

1. **Planned faults, offline.**  A :class:`FaultPlan` crashes a server
   mid-run and revives it later; the simulation engine kills the
   resident tasks, rolls the victims back to their last checkpoint,
   and the scheduler re-places them through the ordinary queue.  The
   same plan attached to the same spec is bit-reproducible — run the
   script twice and the numbers do not move.

2. **Runtime faults, online.**  The scheduler daemon takes a
   ``faultctl`` verb: crash a server under live jobs, inspect the
   failure from the client, then revive it and drain.  The injected
   events queue and apply at the next round, so even operator-injected
   chaos replays deterministically from a snapshot.

Run:  python examples/failure_recovery.py
"""

import random
import tempfile
from pathlib import Path

from repro import api
from repro.service import JobSpec, ServiceClient, ServiceConfig
from repro.service.daemon import SchedulerService, ThreadedDaemon

MODELS = ["alexnet", "resnet", "lstm", "svm"]


def planned_faults() -> None:
    """Act 1: a scripted crash/revive plan through ``api.run``."""
    print("=== Act 1: planned server crash (offline, reproducible) ===")
    plan = api.FaultPlan(
        events=(
            api.FaultEvent(round_index=16, kind="server_crash", server_id=0),
            api.FaultEvent(round_index=18, kind="straggler_start", server_id=1, slowdown=3.0),
            api.FaultEvent(round_index=24, kind="server_revive", server_id=0),
            api.FaultEvent(round_index=28, kind="straggler_end", server_id=1),
        ),
        checkpoint_period=5,
    )
    spec = api.RunSpec(
        scheduler=api.SchedulerSpec("MLF-H"),
        workload=api.WorkloadSpec(num_jobs=40, duration_hours=1.0, trace_seed=11),
        cluster=api.ClusterSpec(num_servers=4, gpus_per_server=4),
        faults=plan,
    )
    baseline = api.run(api.replace_path(spec, "faults", None))
    faulted = api.run(spec)
    for label, record in (("fault-free", baseline), ("with faults", faulted)):
        s = record["summary"]
        print(
            f"  {label:11}  avg JCT {s['avg_jct_s']:8.1f}s"
            f"  kills {s.get('tasks_killed', 0.0):4.0f}"
            f"  iterations lost {s.get('iterations_lost', 0.0):4.0f}"
        )
    print(f"  plan digest {plan.digest()[:16]}… (rides in the spec digest)\n")


def runtime_faults() -> None:
    """Act 2: crash a server under a live daemon via ``faultctl``."""
    print("=== Act 2: live server crash via the daemon (faultctl) ===")
    # The daemon's socket and telemetry live in a directory removed on exit.
    with tempfile.TemporaryDirectory(prefix="repro-faults-demo-") as workdir:
        crash_under_daemon(Path(workdir))


def crash_under_daemon(workdir: Path) -> None:
    """Submit jobs, crash and revive server 0, drain; print the effects."""
    rng = random.Random(42)
    config = ServiceConfig(
        socket_path=str(workdir / "repro.sock"),
        telemetry_path=str(workdir / "telemetry.jsonl"),
        servers=4,
        scheduler="MLF-H",
        round_interval=0,  # rounds advance only when stepped/drained
    )
    core = SchedulerService(config)
    with ThreadedDaemon(config, core=core) as daemon:
        with ServiceClient(daemon.socket_path) as client:
            job_ids = []
            for _ in range(12):
                out = client.submit(
                    JobSpec(
                        model_name=rng.choice(MODELS),
                        gpus_requested=rng.choice([2, 4]),
                        max_iterations=rng.randint(10, 30),
                        accuracy_requirement=0.7,
                        urgency=rng.randint(0, 10),
                    )
                )
                job_ids.append(out["job_id"])
            client.step(rounds=3)

            crash = client.faultctl("server_crash", server_id=0)
            print(f"  injected: {crash['queued']} (applies at round {crash['applies_at_round']})")
            client.step(rounds=2)

            status = client.faultctl("status")
            print(
                f"  after crash: failed servers {status['failed_servers']},"
                f" tasks killed {status['counters']['tasks_killed']}"
            )

            client.faultctl("server_revive", server_id=0)
            client.step(rounds=2)
            status = client.faultctl("status")
            print(f"  after revive: failed servers {status['failed_servers']}")

            result = client.drain()
            print(
                f"  drained in {result['rounds']} rounds,"
                f" completed {int(result['summary']['jobs'])} jobs"
            )

            history = client.history(job_ids[0])
            fault_lines = [
                e for e in history["events"] if e["event"] in ("fault_killed", "rolled_back")
            ]
            if fault_lines:
                print(f"  {job_ids[0]} fault timeline:")
                for event in fault_lines:
                    print(f"    {event['time']:>8.1f}s  {event['event']}")


if __name__ == "__main__":
    planned_faults()
    runtime_faults()
