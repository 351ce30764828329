"""Cross-policy fixed≡event equivalence harness (the PR-10 correctness spine).

Every scheduler in the registry — parkable or not — must produce
bit-identical telemetry under ``pass_policy="event"`` and the fixed
60-second cadence, across three workload shapes:

* ``sparse``  — a handful of jobs spread over hours: long quiet gaps
  where parking pays (and where analytic accrual must be exact);
* ``bursty``  — arrivals clustered inside ten minutes: constant queue
  pressure, parking rarely engages;
* ``faulted`` — sparse plus an armed :class:`FaultPlan`: pending fault
  rounds must unpark the pass timer on schedule.

Every policy parks unless its ``can_park`` vetoes; of the registry only
MLFS with MLF-C on does (OptStop runs on every pass).  For every other
policy the harness additionally proves that a mid-run snapshot taken *at
a parked gap* restores and resumes to the exact fixed-cadence outcome,
and that parking genuinely engages on the sparse shape (fewer passes
executed) — without that check the identity assertions would pass
vacuously.  MLFS with MLF-C on must run the fixed pass count; with
MLF-C off it parks, and its MLF-H→MLF-RL switch still fires identically.

Also here: unit tests for the integer
:class:`~repro.sim.clock.PassClock` that backs Gandiva's slice rotation
and SLAQ's epoch (``advance(n)`` must equal n explicit ticks).

The slow leg scales the spine up to the 100-job sparse long-job trace,
where parking must stay bit-identical *and* cut scheduling passes by at
least 100× — a deterministic count, not a CPU-time ratio.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cluster import Cluster
from repro.core import make_mlfs
from repro.core.config import MLFSConfig
from repro.core.mlfs import Phase
from repro.faults import FaultEvent, FaultPlan
from repro.schedulers import SCHEDULER_FACTORIES, build_scheduler
from repro.sim import EngineConfig, SimulationEngine
from repro.sim.clock import PassClock
from repro.workload import build_jobs, generate_trace
from repro.workload.synthetic import PhillyLikeTraceGenerator, sparse_trace_config

WEEK = 7 * 24 * 3600.0

ALL_POLICIES = sorted(SCHEDULER_FACTORIES)
#: Policies whose ``can_park`` does not veto on an idle cluster.
PARKABLE = sorted(
    name for name in ALL_POLICIES if build_scheduler(name).can_park(Cluster.build(1))
)

FAULT_PLAN = FaultPlan(
    events=(
        FaultEvent(round_index=2, kind="server_crash", server_id=1),
        FaultEvent(round_index=8, kind="server_revive", server_id=1),
        FaultEvent(round_index=4, kind="gpu_fail", server_id=0, gpu_id=1),
        FaultEvent(round_index=10, kind="gpu_revive", server_id=0, gpu_id=1),
    ),
)

#: Workload shape -> (num_jobs, trace duration, trace seed, fault plan).
WORKLOADS = {
    "sparse": (6, 4 * 3600.0, 101, None),
    "bursty": (10, 600.0, 102, None),
    "faulted": (6, 4 * 3600.0, 103, FAULT_PLAN),
}


def build(policy, workload, pass_policy):
    """An engine for a registry name (or a scheduler instance)."""
    num_jobs, duration, seed, faults = WORKLOADS[workload]
    records = generate_trace(num_jobs, duration_seconds=duration, seed=seed)
    jobs = build_jobs(records, seed=seed + 1)
    cluster = Cluster.build(4, 4)
    config = EngineConfig(max_time=WEEK, seed=seed + 2, pass_policy=pass_policy)
    kwargs = {"faults": faults} if faults is not None else {}
    scheduler = build_scheduler(policy) if isinstance(policy, str) else policy
    return SimulationEngine(scheduler, jobs, cluster, config, **kwargs)


def signature(metrics):
    """The telemetry that must be bit-identical across pass policies.

    Per-job outcomes plus every cumulative counter.  Float fields are
    compared exactly — analytic accrual promises *bit* identity, not
    tolerance-identity.
    """
    jobs = sorted(
        (r.job_id, r.jct, r.completion_time, r.iterations_completed, r.final_accuracy)
        for r in metrics.job_records
    )
    return (
        jobs,
        metrics.num_evictions,
        metrics.num_migrations,
        metrics.bandwidth_mb,
        metrics.migration_bandwidth_mb,
        metrics.overload_occurrences,
        metrics.tasks_killed,
        metrics.iterations_lost,
        metrics.first_arrival,
        metrics.last_completion,
    )


def drain(engine):
    """Advance an already-started engine to completion."""
    while True:
        result = engine.advance()
        if result.drained or result.events_processed == 0:
            break
    return engine.finalize()


# ---------------------------------------------------------------------------
# The spine: every policy x every workload, fixed == event
# ---------------------------------------------------------------------------


class TestCrossPolicyEquivalence:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_fixed_and_event_telemetry_bit_identical(self, policy, workload):
        fixed = build(policy, workload, "fixed")
        event = build(policy, workload, "event")
        assert signature(fixed.run()) == signature(event.run())
        # Event mode may skip passes, never add them.
        assert event.pass_index <= fixed.pass_index

    @pytest.mark.parametrize("policy", PARKABLE)
    def test_parking_engages_on_sparse_workload(self, policy):
        """Guards the spine against vacuity: on the sparse shape each
        parkable policy must actually skip passes, not merely match."""
        fixed = build(policy, "sparse", "fixed")
        event = build(policy, "sparse", "event")
        fixed.run()
        event.run()
        assert event.pass_index < fixed.pass_index

    def test_only_mlfs_with_load_control_vetoes(self):
        assert set(ALL_POLICIES) - set(PARKABLE) == {"MLFS"}
        assert build_scheduler("MLFS").config.enable_load_control

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_mlfs_with_load_control_runs_the_fixed_pass_count(self, workload):
        fixed = build("MLFS", workload, "fixed")
        event = build("MLFS", workload, "event")
        assert signature(fixed.run()) == signature(event.run())
        assert event.pass_index == fixed.pass_index

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_mlfs_without_load_control_parks_through_its_phase_switch(self, workload):
        """MLF-C off: MLFS parks, switches MLF-H→MLF-RL after 10
        recorded decisions, and matches the fixed cadence bit for bit."""
        engines = {
            pass_policy: build(
                make_mlfs(
                    config=MLFSConfig(enable_load_control=False, rl_switch_decisions=10)
                ),
                workload,
                pass_policy,
            )
            for pass_policy in ("fixed", "event")
        }
        fixed, event = engines["fixed"], engines["event"]
        assert signature(fixed.run()) == signature(event.run())
        assert fixed.scheduler.phase is event.scheduler.phase is Phase.RL
        assert event.pass_index < fixed.pass_index


    @pytest.mark.slow
    @pytest.mark.parametrize("policy", ["MLF-H", "MLF-RL", "Tiresias", "Gandiva", "SLAQ"])
    def test_sparse_long_trace_parks_at_least_100x(self, policy):
        """100 long jobs over 90 days on 40 servers: fixed ≡ event, and
        the fixed cadence runs at least 100 passes per event-mode pass."""
        records = PhillyLikeTraceGenerator(
            config=sparse_trace_config(num_jobs=100), seed=11
        ).generate()
        engines = {
            pass_policy: SimulationEngine(
                build_scheduler(policy),
                build_jobs(records, seed=11),
                Cluster.build(40, 4),
                EngineConfig(seed=5, max_time=400 * 24 * 3600.0, pass_policy=pass_policy),
            )
            for pass_policy in ("fixed", "event")
        }
        fixed, event = engines["fixed"], engines["event"]
        assert signature(fixed.run()) == signature(event.run())
        assert fixed.pass_index >= 100 * event.pass_index


# ---------------------------------------------------------------------------
# Snapshot/restore taken at a parked gap
# ---------------------------------------------------------------------------


class TestSnapshotAtParkedGap:
    @pytest.mark.parametrize("policy", PARKABLE)
    def test_restore_from_parked_snapshot_is_bit_identical(self, policy):
        expected = signature(build(policy, "sparse", "fixed").run())

        engine = build(policy, "sparse", "event")
        engine.start()
        parked_once = False
        while True:
            result = engine.advance()
            if engine.parked:
                parked_once = True
                break
            if result.drained or result.events_processed == 0:
                break
        # The cut must land inside a genuine parked gap, else this test
        # proves nothing for the accrual path.
        assert parked_once, f"{policy} never parked on the sparse workload"

        restored = pickle.loads(pickle.dumps(engine))
        assert restored.parked
        assert signature(drain(restored)) == expected


# ---------------------------------------------------------------------------
# PassClock: advance(n) is the closed form of n ticks
# ---------------------------------------------------------------------------


class TestPassClock:
    def test_fires_every_nth_tick(self):
        clock = PassClock(period_passes=3)
        fires = [clock.tick() for _ in range(9)]
        assert fires == [False, False, True] * 3

    def test_period_one_fires_every_tick(self):
        clock = PassClock(period_passes=1)
        assert [clock.tick() for _ in range(4)] == [True] * 4

    @pytest.mark.parametrize("period", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("skipped", [0, 1, 2, 4, 9, 23])
    def test_advance_equals_explicit_ticks(self, period, skipped):
        """advance(n) after any prefix leaves the same state as n
        tick() calls — the bit-identity obligation of accrue()."""
        for prefix in range(period):
            ticked = PassClock(period_passes=period)
            jumped = PassClock(period_passes=period)
            for _ in range(prefix):
                ticked.tick()
                jumped.tick()
            for _ in range(skipped):
                ticked.tick()
            jumped.advance(skipped)
            assert ticked.passes_since_fire == jumped.passes_since_fire
            # Next real tick agrees on both fire decision and state.
            assert ticked.tick() == jumped.tick()
            assert ticked.passes_since_fire == jumped.passes_since_fire

    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            PassClock(period_passes=0)
