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
from repro.core import MLFSConfig, Phase, make_mlf_h, make_mlf_rl, make_mlfs
from repro.core.state import FEATURE_SIZE
from repro.faults import FaultEvent, FaultPlan
from repro.learncurve import CurveEnsemble
from repro.rl.policy import ScoringPolicy
from repro.service.telemetry import RunningJctStats, pass_record
from repro.sim import EngineConfig, SimulationEngine
from repro.workload import build_jobs, generate_trace
from repro.workload.synthetic import (
    PHILLY_DURATION_SECONDS,
    PHILLY_NUM_JOBS,
    PhillyLikeTraceGenerator,
    philly_cluster,
    philly_scale_config,
)

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


#: The Philly scenario's plan: a busy server crashes and comes back, and
#: one GPU of another busy server fails and comes back.
PHILLY_FAULT_PLAN = FaultPlan(
    events=(
        FaultEvent(round_index=20, kind="server_crash", server_id=0),
        FaultEvent(round_index=30, kind="gpu_fail", server_id=2, gpu_id=0),
        FaultEvent(round_index=45, kind="server_revive", server_id=0),
        FaultEvent(round_index=55, kind="gpu_revive", server_id=2, gpu_id=0),
    ),
    checkpoint_period=3,
)
#: Jobs in the Philly scenario, at the full trace's arrival density.
PHILLY_JOBS = 180


def small_setup() -> tuple[list, Cluster, EngineConfig]:
    """10 jobs on 4 servers of 4 GPUs, fixed passes."""
    records = generate_trace(10, duration_seconds=3600.0, seed=29)
    return (
        build_jobs(records, seed=30),
        Cluster.build(4, 4),
        EngineConfig(seed=31, max_time=14 * 24 * 3600.0),
    )


def philly_setup() -> tuple[list, Cluster, EngineConfig]:
    """A window of the Philly trace on the 550-server fleet, event passes."""
    config = philly_scale_config(
        num_jobs=PHILLY_JOBS,
        duration_seconds=PHILLY_DURATION_SECONDS * PHILLY_JOBS / PHILLY_NUM_JOBS,
    )
    records = PhillyLikeTraceGenerator(config=config, seed=29).generate()
    return (
        build_jobs(records, seed=30),
        philly_cluster(),
        EngineConfig(seed=31, max_time=14 * 24 * 3600.0, pass_policy="event"),
    )


def _mlf_rl_policy() -> ScoringPolicy:
    """A seeded scoring policy — deterministic without pretraining."""
    return ScoringPolicy(feature_size=FEATURE_SIZE, seed=7)


#: scenario name -> (scheduler factory, fault plan or None[, set-up]);
#: the set-up defaults to :func:`small_setup`.
SCENARIOS = {
    "mlf_h": (make_mlf_h, None),
    "mlf_rl": (lambda: make_mlf_rl(policy=_mlf_rl_policy()), None),
    "mlf_h_faults": (make_mlf_h, FAULT_PLAN),
    # MLF-H at the scale the paper targets: 550 mixed 4/5-GPU servers,
    # so every pass's overload_degree pins O_c over the whole fleet.
    "philly": (make_mlf_h, PHILLY_FAULT_PLAN, philly_setup),
    # Full MLFS: MLF-C's learning-curve fits and stops, and an early
    # switch from MLF-H to MLF-RL.
    "mlfs": (
        lambda: make_mlfs(
            config=MLFSConfig(enable_load_control=True, rl_switch_decisions=10)
        ),
        None,
    ),
    # The baselines with clocked state — Tiresias' attained-service
    # stints, Gandiva's slice rotation, SLAQ's quality EWMA and epoch —
    # pinned here the same way the MLF suite is.
    "tiresias": (TiresiasScheduler, None),
    "gandiva": (GandivaScheduler, None),
    "slaq": (SLAQScheduler, None),
}


def trace_scenario(name: str) -> list[str]:
    """Run one scenario; return its telemetry JSONL lines."""
    return run_scenario(name)[0]


def run_scenario(name: str) -> tuple[list[str], SimulationEngine]:
    """Run one scenario; return its telemetry lines and the finished engine."""
    factory, plan, *setup = SCENARIOS[name]
    jobs, cluster, config = (setup[0] if setup else small_setup)()
    engine = SimulationEngine(
        factory(), jobs, cluster, config, sanitize=True, faults=plan
    )
    if name == "philly":
        # A 550-server engine takes ~0.1 s to pickle: round-trip it on
        # every 10th pass rather than every pass.
        engine.sanitizer.snapshot_every = 10
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
    return lines, engine


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


@pytest.mark.parametrize("name", ["mlf_h_faults", "philly"])
def test_fault_scenario_actually_faults(name, update_golden):
    """Guard: the fault golden traces are not silently fault-free."""
    records = [json.loads(line) for line in trace_scenario(name)]
    assert sum(r["faults"] for r in records) > 0
    assert sum(r["tasks_killed"] for r in records) > 0


def test_mlfs_scenario_exercises_every_phase(monkeypatch):
    """Guard: the MLFS golden trace fits curves, stops jobs and reaches RL."""
    fits = []
    original = CurveEnsemble.fit.__func__

    def counting_fit(cls, iterations, accuracies):
        fits.append(len(iterations))
        return original(cls, iterations, accuracies)

    monkeypatch.setattr(CurveEnsemble, "fit", classmethod(counting_fit))
    lines, engine = run_scenario("mlfs")
    assert fits, "MLF-C never fitted a learning curve"
    assert sum(json.loads(line)["stops"] for line in lines) > 0
    assert engine.scheduler.phase is Phase.RL
