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

import numpy as np
import pytest

from repro.baselines import (
    GandivaScheduler,
    GrapheneScheduler,
    RLScheduler,
    SLAQScheduler,
    TiresiasScheduler,
)
from repro.cluster import Cluster
from repro.core import (
    MLFRLScheduler,
    MLFSConfig,
    Phase,
    make_mlf_h,
    make_mlf_rl,
    make_mlfs,
)
from repro.core.state import FEATURE_SIZE, StateFeaturizer
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


def contended_setup() -> tuple[list, Cluster, EngineConfig]:
    """30 jobs on 2 servers of 4 GPUs, fixed passes: a standing queue.

    :func:`small_setup` rarely queues more than one job, so its traces
    do not pin the order in which a scheduler considers tasks; here
    every pass has to choose among many waiting jobs.
    """
    records = generate_trace(30, duration_seconds=3600.0, seed=29)
    return (
        build_jobs(records, seed=30),
        Cluster.build(2, 4),
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
    # Under a standing queue: the MLF pass's ordering and all-or-nothing
    # admission with each host choice (RIAL, a policy, a sampled policy,
    # the JCT-only RL baseline with and without a policy), and MLFS's
    # switch from MLF-H to MLF-RL.
    "contended_mlf_h": (make_mlf_h, None, contended_setup),
    "contended_mlf_rl": (
        lambda: make_mlf_rl(policy=_mlf_rl_policy()),
        None,
        contended_setup,
    ),
    "contended_mlf_rl_fallback": (make_mlf_rl, None, contended_setup),
    "contended_mlf_rl_explore": (
        lambda: MLFRLScheduler(
            config=MLFSConfig(enable_load_control=False),
            policy=_mlf_rl_policy(),
            explore=True,
        ),
        None,
        contended_setup,
    ),
    "contended_rl": (
        lambda: RLScheduler(policy=_mlf_rl_policy()),
        None,
        contended_setup,
    ),
    "contended_rl_fallback": (RLScheduler, None, contended_setup),
    "contended_mlfs": (
        lambda: make_mlfs(
            config=MLFSConfig(enable_load_control=True, rl_switch_decisions=10)
        ),
        None,
        contended_setup,
    ),
    # Graphene orders each job's tasks by descendant count, so a standing
    # queue pins how it reads the job graph.
    "graphene": (GrapheneScheduler, None, contended_setup),
}

#: Scenarios whose snapshot round-trip runs on every n-th pass only:
#: pickling the 550-server engine takes ~0.1 s, and the contended
#: scenarios run hundreds of passes each.
SNAPSHOT_EVERY = {
    "philly": 10,
    "graphene": 10,
    **{name: 10 for name in SCENARIOS if name.startswith("contended_")},
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
    if name in SNAPSHOT_EVERY:
        engine.sanitizer.snapshot_every = SNAPSHOT_EVERY[name]
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
def test_fault_scenario_actually_faults(name):
    """Guard: the fault golden traces are not silently fault-free.

    Reads the checked-in lines; ``test_golden_trace`` proves they equal
    the current run.
    """
    lines = golden_path(name).read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
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


@pytest.mark.parametrize("name", ["mlfs", "contended_mlfs"])
def test_candidate_matrix_equals_per_row_features(monkeypatch, name):
    """Every feature matrix an MLFS run builds equals, byte for byte, the
    rows :meth:`StateFeaturizer.candidate_features` computes one by one."""
    original = StateFeaturizer.candidate_matrix
    matrices = []

    def checked(self, task, servers, shadow, now):
        matrix = original(self, task, servers, shadow, now)
        task_part = self.task_features(task, now)
        volumes = self.comm_index.volumes_by_server(task, shadow)
        rows = np.vstack(
            [
                self.candidate_features(
                    task, server, shadow, now, volumes.get(server.server_id, 0.0), task_part
                )
                for server in servers
            ]
        )
        assert matrix.dtype == rows.dtype and matrix.shape == rows.shape
        assert matrix.tobytes() == rows.tobytes()
        matrices.append(matrix)
        return matrix

    monkeypatch.setattr(StateFeaturizer, "candidate_matrix", checked)
    run_scenario(name)
    assert len(matrices) > 10


def test_contended_scenarios_pin_distinct_schedules():
    """Guard: every contended scenario's host choice shows in its golden."""
    traces = {
        name: golden_path(name).read_text(encoding="utf-8")
        for name in SCENARIOS
        if name.startswith("contended_")
    }
    assert len(set(traces.values())) == len(traces)


def test_contended_scenarios_exercise_rl():
    """Guard: MLFS switches to MLF-RL under contention, and exploring
    MLF-RL records a trajectory step per policy choice."""
    lines, engine = run_scenario("contended_mlfs")
    assert engine.scheduler.phase is Phase.RL
    assert sum(json.loads(line)["stops"] for line in lines) > 0
    _lines, engine = run_scenario("contended_mlf_rl_explore")
    assert len(engine.scheduler.trajectory) > 0
