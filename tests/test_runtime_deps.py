"""The runtime needs no networkx: only the graph oracle test imports it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Blocks networkx (``sys.modules[name] = None`` makes every import of it
#: raise), then runs the CLI import, an MLF-H and a Graphene episode and
#: a daemon snapshot round trip.
SCRIPT = """
import sys
import tempfile

sys.modules["networkx"] = None

import repro.cli
from repro import api
from repro.service import JobSpec, SchedulerService, ServiceConfig

for name in ("MLF-H", "Graphene"):
    record = api.run(
        api.RunSpec(
            scheduler=api.SchedulerSpec(name),
            workload=api.WorkloadSpec(
                num_jobs=6, duration_hours=0.5, trace_seed=1, deadline_hours=(0.5, 6.0)
            ),
            cluster=api.ClusterSpec(num_servers=2, gpus_per_server=4),
            seed=2,
        )
    )
    assert record["status"] == "ok", record
    assert record["summary"]["jobs"] == 6, record["summary"]

with tempfile.TemporaryDirectory() as tmp:
    core = SchedulerService(
        ServiceConfig(
            socket_path=tmp + "/repro.sock",
            servers=2,
            gpus_per_server=4,
            seed=7,
            round_interval=0.0,
            snapshot_dir=tmp + "/snaps",
            telemetry_path=None,
        )
    )
    core.submit(JobSpec(model_name="resnet", gpus_requested=4, max_iterations=4))
    core.advance_round()
    assert core.snapshot_now() is not None
    restored = SchedulerService.restore(tmp + "/snaps")
    restored.drain()
    assert restored.metrics()["summary"]["jobs"] == 1

print("ok")
"""


def test_runtime_runs_without_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
