"""Tests for the event-driven engine core and the time-based stepping API.

Covers the PR-9 redesign: ``pass_policy="event"`` outcome-equivalence
against the fixed cadence (including under fault plans and as a
hypothesis sweep), the ``advance``/``run_until``/``fast_forward``
surface, the lazy-deletion :class:`TaskQueue`, mid-heap
snapshot/restore bit-identity, the daemon's ``step until=``/``events=``
verb modes, and (slow) a 10,000-job synthetic-Philly slice draining end
to end in event mode.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import make_mlf_h
from repro.faults import FaultEvent, FaultPlan
from repro.service import (
    JobSpec,
    SchedulerService,
    ServiceClient,
    ServiceError,
    ServiceConfig,
)
from repro.service.daemon import ThreadedDaemon
from repro.sim import EngineConfig, SimulationEngine
from repro.sim.engine import TaskQueue
from repro.workload import build_jobs, generate_trace
from repro.workload.synthetic import (
    PhillyLikeTraceGenerator,
    philly_cluster,
    philly_scale_config,
)
from tests.conftest import make_job

WEEK = 7 * 24 * 3600.0


def build_engine(pass_policy, num_jobs=16, servers=4, seed=21, **engine_kwargs):
    records = generate_trace(num_jobs, duration_seconds=1800.0, seed=seed)
    jobs = build_jobs(records, seed=seed + 1)
    cluster = Cluster.build(servers, 4)
    config = EngineConfig(max_time=WEEK, seed=seed, pass_policy=pass_policy)
    return SimulationEngine(make_mlf_h(), jobs, cluster, config, **engine_kwargs)


def job_tuples(metrics):
    return sorted(
        (r.job_id, r.jct, r.completion_time, r.iterations_completed, r.final_accuracy)
        for r in metrics.job_records
    )


# ---------------------------------------------------------------------------
# Event-driven passes: outcome-identical to the fixed cadence
# ---------------------------------------------------------------------------


class TestEventEquivalence:
    def test_event_matches_fixed_outcomes(self):
        fixed = build_engine("fixed")
        event = build_engine("event")
        assert job_tuples(fixed.run()) == job_tuples(event.run())

    def test_event_runs_fewer_passes(self):
        fixed = build_engine("fixed")
        event = build_engine("event")
        fixed.run()
        event.run()
        assert event.pass_index < fixed.pass_index

    def test_event_matches_fixed_under_faults(self):
        # Armed fault events must unpark the pass timer: a crash during
        # a quiet stretch still fires (and kills) on schedule.
        plan = FaultPlan(
            events=(
                FaultEvent(round_index=3, kind="server_crash", server_id=1),
                FaultEvent(round_index=9, kind="server_revive", server_id=1),
                FaultEvent(round_index=5, kind="gpu_fail", server_id=0, gpu_id=2),
                FaultEvent(round_index=12, kind="gpu_revive", server_id=0, gpu_id=2),
            ),
        )
        fixed = build_engine("fixed", faults=plan)
        event = build_engine("event", faults=plan)
        assert job_tuples(fixed.run()) == job_tuples(event.run())

    @pytest.mark.slow
    @given(
        num_jobs=st.integers(min_value=1, max_value=12),
        servers=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=15, deadline=None)
    def test_event_equivalence_property(self, num_jobs, servers, seed):
        """Park/unpark never changes outcomes, whatever the workload."""
        fixed = build_engine("fixed", num_jobs=num_jobs, servers=servers, seed=seed)
        event = build_engine("event", num_jobs=num_jobs, servers=servers, seed=seed)
        assert job_tuples(fixed.run()) == job_tuples(event.run())


# ---------------------------------------------------------------------------
# Philly scale: a 10,000-job slice drains in event mode
# ---------------------------------------------------------------------------


class TestPhillyScale:
    @pytest.mark.slow
    def test_ten_thousand_job_slice_completes(self):
        trace = PhillyLikeTraceGenerator(
            config=philly_scale_config(num_jobs=10_000), seed=7
        ).generate()
        engine = SimulationEngine(
            make_mlf_h(),
            build_jobs(trace, seed=7),
            philly_cluster(),
            EngineConfig(seed=7, max_time=400 * 24 * 3600.0, pass_policy="event"),
        )
        records = engine.run().job_records
        assert len(records) == 10_000
        # Every job ran all its iterations: none was force-completed at max_time.
        assert all(r.iterations_completed == r.max_iterations for r in records)


# ---------------------------------------------------------------------------
# Time-based stepping API
# ---------------------------------------------------------------------------


class TestTimeBasedApi:
    def test_run_until_advances_clock_to_bound(self):
        engine = build_engine("fixed")
        results = engine.run_until(3600.0)
        assert engine.now == 3600.0
        assert results
        assert all(r.sim_time <= 3600.0 for r in results)

    def test_chunked_run_until_matches_run(self):
        whole = build_engine("fixed")
        metrics = whole.run()

        chunked = build_engine("fixed")
        t = 1800.0
        while True:
            results = chunked.run_until(t)
            if any(r.drained for r in results):
                break
            t += 1800.0
        chunked.finalize()
        assert job_tuples(chunked.metrics) == job_tuples(metrics)

    def test_fast_forward_clamps_and_never_rewinds(self):
        engine = build_engine("fixed")
        engine.start()
        engine.fast_forward(120.0)
        assert engine.now == 120.0
        engine.fast_forward(60.0)  # never rewinds
        assert engine.now == 120.0
        engine.fast_forward(WEEK * 100)  # clamped to max_time
        assert engine.now == engine.config.max_time


# ---------------------------------------------------------------------------
# TaskQueue: lazy-deletion FIFO
# ---------------------------------------------------------------------------


class TestTaskQueue:
    def _tasks(self, n, prefix="j"):
        return [make_job(job_id=f"{prefix}{i}", gpus=1).tasks[0] for i in range(n)]

    def test_fifo_order_preserved(self):
        tasks = self._tasks(5)
        queue = TaskQueue(tasks)
        assert [t.task_id for t in queue] == [t.task_id for t in tasks]
        assert len(queue) == 5

    def test_remove_is_order_preserving(self):
        tasks = self._tasks(4)
        queue = TaskQueue(tasks)
        queue.remove(tasks[1])
        assert [t.task_id for t in queue] == [
            tasks[0].task_id,
            tasks[2].task_id,
            tasks[3].task_id,
        ]
        assert tasks[1] not in queue
        assert tasks[0] in queue

    def test_requeue_after_removal_lands_at_tail(self):
        tasks = self._tasks(3)
        queue = TaskQueue(tasks)
        queue.remove(tasks[0])
        queue.append(tasks[0])
        assert [t.task_id for t in queue] == [
            tasks[1].task_id,
            tasks[2].task_id,
            tasks[0].task_id,
        ]

    def test_duplicate_append_rejected(self):
        tasks = self._tasks(2)
        queue = TaskQueue(tasks)
        with pytest.raises(ValueError):
            queue.append(tasks[0])

    def test_remove_missing_rejected(self):
        queue = TaskQueue(self._tasks(2))
        stranger = make_job(job_id="stranger", gpus=1).tasks[0]
        with pytest.raises(ValueError):
            queue.remove(stranger)

    def test_compaction_bounds_backing_list(self):
        tasks = self._tasks(300)
        queue = TaskQueue(tasks)
        for task in tasks[:250]:
            queue.remove(task)
        assert len(queue) == 50
        # Lazy deletion compacts once half the entries are dead, so the
        # backing list cannot retain all 250 tombstones.
        assert len(queue._items) < 300
        assert [t.task_id for t in queue] == [t.task_id for t in tasks[250:]]

    def test_eq_against_lists(self):
        tasks = self._tasks(3)
        queue = TaskQueue(tasks)
        assert queue == tasks
        queue.remove(tasks[0])
        assert queue == tasks[1:]
        assert TaskQueue(tasks[1:]) == queue
        assert bool(TaskQueue()) is False


# ---------------------------------------------------------------------------
# Mid-heap snapshot/restore
# ---------------------------------------------------------------------------


class TestMidHeapSnapshot:
    def test_pickled_engine_resumes_bit_identically(self):
        """Snapshot taken mid-run — with arrivals still in the heap and
        fault events still pending — resumes to the exact outcome."""
        plan = FaultPlan(
            events=(
                FaultEvent(round_index=2, kind="server_crash", server_id=0),
                FaultEvent(round_index=20, kind="server_revive", server_id=0),
            ),
        )
        baseline = build_engine("event", num_jobs=12, seed=9, faults=plan)
        expected = job_tuples(baseline.run())
        # Job j3 (33 svm tasks, 130 CPU cores on a 128-core cluster) can
        # never be placed: it is rejected at arrival instead of spinning
        # the engine to ``max_time``.
        assert list(baseline.metrics.rejected) == ["j3"]

        engine = build_engine("event", num_jobs=12, seed=9, faults=plan)
        engine.start()
        for _ in range(5):
            engine.advance()
        # The cut is genuinely mid-stream: future arrivals and the
        # revive event are still pending.
        assert any(j.arrival_time > engine.now for j in engine.jobs)
        assert engine.now < baseline.now
        pending = engine._events.events_in_order()
        assert pending
        blob = pickle.dumps(engine)

        restored = pickle.loads(blob)
        # The restored heap holds the identical pending sequence, and
        # fires it in exactly that order.
        assert restored._events.events_in_order() == pending
        probe = pickle.loads(blob)._events
        assert [probe.pop() for _ in range(len(probe))] == pending
        while True:
            result = restored.advance()
            if result.drained or result.events_processed == 0:
                break
        restored.finalize()
        assert job_tuples(restored.metrics) == expected

    def test_divergence_free_double_restore(self):
        """Restoring the same blob twice yields the same continuation —
        the pickled heap and RNG carry the whole future."""
        engine = build_engine("event", num_jobs=10, seed=17)
        engine.start()
        for _ in range(4):
            engine.advance()
        blob = pickle.dumps(engine)

        outcomes = []
        for _ in range(2):
            restored = pickle.loads(blob)
            while True:
                result = restored.advance()
                if result.drained or result.events_processed == 0:
                    break
            restored.finalize()
            outcomes.append(job_tuples(restored.metrics))
        assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Daemon step verb: until= / events= modes
# ---------------------------------------------------------------------------


def _daemon_config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        socket_path=str(tmp_path / "repro.sock"),
        servers=4,
        gpus_per_server=4,
        seed=7,
        round_interval=0.0,
        snapshot_dir=None,
        telemetry_path=None,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestDaemonStepModes:
    def test_step_until_fast_forwards_sim_time(self, tmp_path):
        with ThreadedDaemon(_daemon_config(tmp_path)) as daemon:
            with ServiceClient(daemon.socket_path) as client:
                client.submit(
                    JobSpec(model_name="svm", gpus_requested=1, max_iterations=3)
                )
                out = client.step(until=3600.0)
                assert out["sim_time"] == 3600.0
                assert out["passes"] >= 1
                assert out["events_processed"] >= 1

    def test_step_events_processes_at_least_n(self, tmp_path):
        with ThreadedDaemon(_daemon_config(tmp_path)) as daemon:
            with ServiceClient(daemon.socket_path) as client:
                client.submit(
                    JobSpec(model_name="svm", gpus_requested=1, max_iterations=3)
                )
                out = client.step(events=2)
                assert out["events_processed"] >= 2

    def test_step_until_and_events_mutually_exclusive(self, tmp_path):
        with ThreadedDaemon(_daemon_config(tmp_path)) as daemon:
            with ServiceClient(daemon.socket_path) as client:
                # Client-side guard...
                with pytest.raises(ValueError):
                    client.step(until=60.0, events=5)
                # ...and the wire protocol enforces it for raw clients.
                with pytest.raises(ServiceError):
                    client.call("step", until=60.0, events=5)

    @pytest.mark.parametrize("pass_policy", ["fixed", "event"])
    def test_daemon_emits_v2_telemetry(self, tmp_path, pass_policy):
        telemetry_path = tmp_path / "telemetry.jsonl"
        config = _daemon_config(
            tmp_path,
            telemetry_path=str(telemetry_path),
            pass_policy=pass_policy,
        )
        core = SchedulerService(config)
        core.submit(JobSpec(model_name="svm", gpus_requested=1, max_iterations=3))
        core.drain()
        records = core.telemetry.records
        assert records
        assert all(r["v"] == 2 for r in records)
        assert all("pass_index" in r and "round" not in r for r in records)
