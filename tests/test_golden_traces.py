"""Golden-trace regression suite: telemetry must not drift, bit for bit.

Each scenario replays a small, fully seeded simulation and serializes
every per-pass telemetry record exactly as the daemon would write it
(``json.dumps(..., sort_keys=True, separators=(",", ":"))``).  The
lines are diffed against the checked-in golden file under
``tests/golden/`` — any divergence (a changed field, a reordered
round, a float that moved in the 15th digit) fails the test and names
the first differing round.

When a change is *supposed* to alter the schedule (a new scheduler
phase, a fault-model change), regenerate the files and review the diff
like any other code change::

    pytest tests/test_golden_traces.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines import GandivaScheduler, SLAQScheduler, TiresiasScheduler
from repro.cluster import Cluster
from repro.core import make_mlf_h, make_mlf_rl
from repro.core.state import FEATURE_SIZE
from repro.faults import FaultEvent, FaultPlan
from repro.rl.policy import ScoringPolicy
from repro.service.telemetry import RunningJctStats, pass_record
from repro.sim import EngineConfig, SimulationEngine
from repro.workload import build_jobs, generate_trace

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The fault scenario's plan: a crash + revive and a straggler phase
#: over the busy part of the run, with checkpoint-restart every 3
#: iterations.
FAULT_PLAN = FaultPlan(
    events=(
        FaultEvent(round_index=6, kind="server_crash", server_id=0),
        FaultEvent(round_index=9, kind="straggler_start", server_id=2, slowdown=2.5),
        FaultEvent(round_index=12, kind="server_revive", server_id=0),
        FaultEvent(round_index=15, kind="straggler_end", server_id=2),
        FaultEvent(round_index=18, kind="gpu_fail", server_id=1, gpu_id=0),
        FaultEvent(round_index=22, kind="gpu_revive", server_id=1, gpu_id=0),
    ),
    checkpoint_period=3,
)


def _mlf_rl_policy() -> ScoringPolicy:
    """A seeded scoring policy — deterministic without pretraining."""
    return ScoringPolicy(feature_size=FEATURE_SIZE, seed=7)


#: scenario name -> (scheduler factory, fault plan or None)
SCENARIOS = {
    "mlf_h": (make_mlf_h, None),
    "mlf_rl": (lambda: make_mlf_rl(policy=_mlf_rl_policy()), None),
    "mlf_h_faults": (make_mlf_h, FAULT_PLAN),
    # The baselines with clocked state — Tiresias' attained-service
    # stints, Gandiva's slice rotation, SLAQ's quality EWMA and epoch —
    # pinned here the same way the MLF suite is.
    "tiresias": (TiresiasScheduler, None),
    "gandiva": (GandivaScheduler, None),
    "slaq": (SLAQScheduler, None),
}


def trace_scenario(name: str) -> list[str]:
    """Run one scenario; return its telemetry JSONL lines."""
    factory, plan = SCENARIOS[name]
    records = generate_trace(10, duration_seconds=3600.0, seed=29)
    jobs = build_jobs(records, seed=30)
    engine = SimulationEngine(
        factory(),
        jobs,
        Cluster.build(4, 4),
        EngineConfig(seed=31, max_time=14 * 24 * 3600.0),
        sanitize=True,
        faults=plan,
    )
    engine.start()
    stats = RunningJctStats()
    lines: list[str] = []
    while True:
        result = engine.advance()
        record = pass_record(result, engine.metrics, jct_stats=stats)
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        if result.drained or result.events_processed == 0:
            break
    engine.finalize()
    assert engine.sanitizer.violations_raised == 0
    return lines


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.jsonl"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trace(name, update_golden):
    lines = trace_scenario(name)
    assert lines, f"scenario {name} produced no telemetry"
    path = golden_path(name)
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        pytest.skip(f"golden file {path.name} regenerated")
    assert path.exists(), (
        f"missing golden file {path}; generate it with"
        " `pytest tests/test_golden_traces.py --update-golden`"
    )
    golden = path.read_text(encoding="utf-8").splitlines()
    if lines != golden:
        limit = min(len(lines), len(golden))
        for index in range(limit):
            assert lines[index] == golden[index], (
                f"scenario {name} diverges from {path.name} at round {index}:\n"
                f"  golden : {golden[index]}\n"
                f"  current: {lines[index]}"
            )
        pytest.fail(
            f"scenario {name}: round count changed"
            f" ({len(golden)} golden vs {len(lines)} current)"
        )


def test_fault_scenario_actually_faults(update_golden):
    """Guard: the fault golden trace is not silently fault-free."""
    records = [json.loads(line) for line in trace_scenario("mlf_h_faults")]
    assert sum(r["faults"] for r in records) > 0
    assert sum(r["tasks_killed"] for r in records) > 0
