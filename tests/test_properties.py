"""Property-based tests on simulator-wide invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FIFOScheduler, TiresiasScheduler
from repro.cluster import Cluster
from repro.core import make_mlf_h
from repro.faults import FaultEvent, FaultPlan
from repro.sim import EngineConfig, SimulationEngine
from repro.workload import build_jobs, generate_trace

# Hypothesis sweeps over whole simulations: minutes of wall clock.  Run
# in the dedicated slow CI step, not the tier-1 gate.
pytestmark = pytest.mark.slow


def run_workload(scheduler, num_jobs, servers, seed):
    records = generate_trace(num_jobs, duration_seconds=1200.0, seed=seed)
    jobs = build_jobs(records, seed=seed + 1)
    cluster = Cluster.build(servers, 4)
    engine = SimulationEngine(
        scheduler, jobs, cluster, EngineConfig(max_time=10 * 24 * 3600.0)
    )
    metrics = engine.run()
    return engine, metrics


def assert_accounted_once(engine, metrics, num_jobs):
    """Each submitted job is in exactly one of ``job_records`` and
    ``rejected``, and a job is rejected only for being infeasible."""
    recorded = [r.job_id for r in metrics.job_records]
    rejected = list(metrics.rejected)
    assert len(recorded) + len(rejected) == num_jobs
    assert sorted(recorded + rejected) == sorted(j.job_id for j in engine.jobs)
    for reason in metrics.rejected.values():
        assert reason.startswith("infeasible: ")


@given(
    num_jobs=st.integers(min_value=1, max_value=12),
    servers=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=12, deadline=None)
def test_conservation_of_jobs(num_jobs, servers, seed):
    """Every submitted job is accounted exactly once: in the records, or
    rejected at arrival as never placeable."""
    engine, metrics = run_workload(FIFOScheduler(), num_jobs, servers, seed)
    assert_accounted_once(engine, metrics, num_jobs)


@given(
    num_jobs=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=10, deadline=None)
def test_resources_fully_released(num_jobs, seed):
    """After a run the cluster holds no residual load and no queue."""
    engine, _metrics = run_workload(make_mlf_h(), num_jobs, 4, seed)
    assert engine.cluster.total_load().norm() < 1e-6
    assert engine.queue == []
    for server in engine.cluster.servers:
        assert server.task_count == 0
        for gpu in server.gpus:
            assert gpu.task_count == 0


@given(
    num_jobs=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=10, deadline=None)
def test_time_ordering_invariants(num_jobs, seed):
    """Completion ≥ arrival; waiting ≤ JCT; makespan covers every job."""
    _engine, metrics = run_workload(TiresiasScheduler(), num_jobs, 3, seed)
    makespan = metrics.makespan()
    for record in metrics.job_records:
        assert record.completion_time >= record.arrival_time
        assert 0.0 <= record.waiting_time <= record.jct + 1e-6
        assert record.jct <= makespan + 1e-6


@given(
    num_jobs=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=10, deadline=None)
def test_accuracy_invariants(num_jobs, seed):
    """Accuracy at deadline never exceeds final accuracy or the ceiling."""
    _engine, metrics = run_workload(make_mlf_h(), num_jobs, 4, seed)
    for record in metrics.job_records:
        assert 0.0 <= record.accuracy_at_deadline <= record.final_accuracy + 1e-9
        assert record.final_accuracy <= 1.0
        assert record.iterations_completed <= record.max_iterations


@given(seed=st.integers(min_value=0, max_value=30))
@settings(max_examples=8, deadline=None)
def test_identical_seeds_identical_outcomes(seed):
    """The whole pipeline is deterministic per (workload, engine) seed."""
    records = generate_trace(6, duration_seconds=900.0, seed=seed)

    def run_once():
        jobs = build_jobs(records, seed=seed + 1)
        engine = SimulationEngine(
            make_mlf_h(), jobs, Cluster.build(4, 4), EngineConfig(seed=seed)
        )
        return engine.run()

    a, b = run_once(), run_once()
    assert [r.jct for r in a.job_records] == [r.jct for r in b.job_records]
    assert a.bandwidth_mb == b.bandwidth_mb


@given(
    seed=st.integers(min_value=0, max_value=30),
    servers=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=8, deadline=None)
def test_bandwidth_nonnegative_and_bounded(seed, servers):
    """Cross-server traffic is non-negative and zero for 1-server runs."""
    _engine, metrics = run_workload(FIFOScheduler(), 5, servers, seed)
    assert metrics.bandwidth_mb >= 0.0
    _engine1, metrics1 = run_workload(FIFOScheduler(), 5, 1, seed)
    assert metrics1.bandwidth_mb == 0.0


# ---------------------------------------------------------------------------
# Fault-injection properties (repro.faults)
# ---------------------------------------------------------------------------

#: Servers in every faulted run below; plans target ids within range.
FAULT_SERVERS = 4

_rounds = st.integers(min_value=1, max_value=40)
_server_ids = st.integers(min_value=0, max_value=FAULT_SERVERS - 1)

#: Any structurally valid fault event against a FAULT_SERVERS cluster —
#: including nonsensical sequences (reviving a healthy server, double
#: crashes); the engine must treat those as no-ops, not corruption.
fault_events = st.one_of(
    st.builds(
        FaultEvent,
        round_index=_rounds,
        kind=st.sampled_from(["server_crash", "server_revive"]),
        server_id=_server_ids,
    ),
    st.builds(
        FaultEvent,
        round_index=_rounds,
        kind=st.sampled_from(["gpu_fail", "gpu_revive"]),
        server_id=_server_ids,
        gpu_id=st.integers(min_value=0, max_value=3),
    ),
    st.builds(
        FaultEvent,
        round_index=_rounds,
        kind=st.just("straggler_start"),
        server_id=_server_ids,
        slowdown=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
    ),
    st.builds(
        FaultEvent,
        round_index=_rounds,
        kind=st.just("straggler_end"),
        server_id=_server_ids,
    ),
)

fault_plans = st.builds(
    FaultPlan,
    events=st.lists(fault_events, max_size=10).map(tuple),
    checkpoint_period=st.integers(min_value=1, max_value=5),
)


def run_faulted(scheduler, num_jobs, seed, plan, sanitize=True):
    records = generate_trace(num_jobs, duration_seconds=1200.0, seed=seed)
    jobs = build_jobs(records, seed=seed + 1)
    cluster = Cluster.build(FAULT_SERVERS, 4)
    # A plan may crash every server and never revive one, in which case
    # the engine ticks until max_time; one day bounds that worst case
    # while leaving fault-free jobs (minutes long) room to finish.
    engine = SimulationEngine(
        scheduler,
        jobs,
        cluster,
        EngineConfig(max_time=24 * 3600.0),
        sanitize=sanitize,
        faults=plan,
    )
    metrics = engine.run()
    return engine, metrics


@given(
    num_jobs=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=30),
    plan=fault_plans,
)
@settings(max_examples=10, deadline=None)
def test_faults_every_job_accounted(num_jobs, seed, plan):
    """Killed tasks re-queue and finish: each job lands in the records
    (or, never placeable, in ``rejected``) exactly once, with its
    iteration count within bounds, no matter what the plan does to the
    cluster."""
    engine, metrics = run_faulted(make_mlf_h(), num_jobs, seed, plan)
    assert_accounted_once(engine, metrics, num_jobs)
    for record in metrics.job_records:
        assert 0 <= record.iterations_completed <= record.max_iterations
    assert engine.sanitizer.violations_raised == 0


@given(
    num_jobs=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=20),
    plan=fault_plans,
)
@settings(max_examples=10, deadline=None)
def test_faults_conserve_resources(num_jobs, seed, plan):
    """Kill/revive cycles leak nothing: after the run every server —
    dead or alive — holds zero tasks and zero residual load."""
    engine, _metrics = run_faulted(FIFOScheduler(), num_jobs, seed, plan, sanitize=False)
    assert engine.cluster.total_load().norm() < 1e-6
    assert engine.queue == []
    for server in engine.cluster.servers:
        assert server.task_count == 0
        for gpu in server.gpus:
            assert gpu.task_count == 0


@given(seed=st.integers(min_value=0, max_value=30))
@settings(max_examples=8, deadline=None)
def test_empty_fault_plan_is_bit_identical(seed):
    """An attached-but-empty plan must not perturb the schedule at all:
    the fault phase short-circuits before touching engine state."""
    def run_once(plan):
        records = generate_trace(6, duration_seconds=900.0, seed=seed)
        jobs = build_jobs(records, seed=seed + 1)
        engine = SimulationEngine(
            make_mlf_h(),
            jobs,
            Cluster.build(FAULT_SERVERS, 4),
            EngineConfig(seed=seed),
            faults=plan,
        )
        metrics = engine.run()
        return [
            (r.job_id, r.jct, r.iterations_completed, r.final_accuracy)
            for r in metrics.job_records
        ], metrics.bandwidth_mb

    bare = run_once(None)
    empty = run_once(FaultPlan())
    assert bare == empty
