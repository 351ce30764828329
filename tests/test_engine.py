"""Unit and behavioural tests for the discrete-event engine."""

import pytest

from repro.cluster import Cluster
from repro.obs import Observer
from repro.sim import (
    EngineConfig,
    Eviction,
    JobStop,
    Migration,
    Placement,
    Scheduler,
    SchedulerDecision,
    SimulationEngine,
)
from repro.workload import JobState, TaskState, build_jobs, generate_trace
from tests.conftest import make_job


class PlaceAllScheduler(Scheduler):
    """Places every queued task on the first server that fits."""

    name = "place-all"

    def on_schedule(self, ctx):
        decision = SchedulerDecision()
        from repro.sim.shadow import ShadowCluster

        shadow = ShadowCluster(ctx.cluster)
        for task in ctx.queue:
            for server in ctx.cluster.servers:
                if not shadow.would_overload(server, task.demand, 0.95):
                    gpu = shadow.least_loaded_gpu(server)
                    shadow.commit_placement(task, server.server_id, gpu)
                    decision.placements.append(
                        Placement(task, server.server_id, gpu)
                    )
                    break
        return decision


class IdleScheduler(Scheduler):
    """Never places anything (starvation scenario)."""

    name = "idle"

    def on_schedule(self, ctx):
        return SchedulerDecision()


def run_small(scheduler, num_jobs=6, seed=1, config=None):
    records = generate_trace(num_jobs, duration_seconds=1800.0, seed=seed)
    jobs = build_jobs(records, seed=seed + 1)
    cluster = Cluster.build(6, 4)
    engine = SimulationEngine(
        scheduler, jobs, cluster, config or EngineConfig(seed=seed)
    )
    return engine, engine.run()


class TestEngineLifecycle:
    def test_all_jobs_complete(self):
        engine, metrics = run_small(PlaceAllScheduler())
        assert len(metrics.job_records) == 6
        assert not engine.active_jobs
        assert all(r.iterations_completed == r.max_iterations for r in metrics.job_records)

    def test_cluster_empty_at_end(self):
        engine, _metrics = run_small(PlaceAllScheduler())
        assert engine.cluster.total_load().norm() == pytest.approx(0.0, abs=1e-6)
        assert not engine.queue

    def test_jct_at_least_compute_time(self):
        engine, metrics = run_small(PlaceAllScheduler())
        for record in metrics.job_records:
            assert record.jct > 0.0
            assert record.completion_time >= record.arrival_time

    def test_waiting_time_nonnegative_and_bounded(self):
        _engine, metrics = run_small(PlaceAllScheduler())
        for record in metrics.job_records:
            assert 0.0 <= record.waiting_time <= record.jct + 1e-6

    def test_deterministic_given_seed(self):
        _e1, m1 = run_small(PlaceAllScheduler(), seed=5)
        _e2, m2 = run_small(PlaceAllScheduler(), seed=5)
        assert [r.jct for r in m1.job_records] == [r.jct for r in m2.job_records]
        assert m1.bandwidth_mb == m2.bandwidth_mb

    def test_idle_scheduler_hits_max_time(self):
        config = EngineConfig(max_time=7200.0)
        engine, metrics = run_small(IdleScheduler(), config=config)
        # Jobs are force-finalized with zero iterations.
        assert len(metrics.job_records) == 6
        assert all(r.iterations_completed == 0 for r in metrics.job_records)
        assert all(r.final_accuracy == 0.0 for r in metrics.job_records)

    def test_overhead_recorded(self):
        _engine, metrics = run_small(PlaceAllScheduler())
        assert metrics.scheduler_overhead_seconds
        assert metrics.average_overhead_ms() >= 0.0

    def test_accuracy_at_deadline_behaviour(self):
        _engine, metrics = run_small(PlaceAllScheduler())
        for record in metrics.job_records:
            if record.met_deadline:
                assert record.accuracy_at_deadline == pytest.approx(
                    record.final_accuracy
                )
            else:
                assert record.accuracy_at_deadline <= record.final_accuracy + 1e-9


class TestDecisionApplication:
    def setup_engine(self):
        records = generate_trace(1, duration_seconds=10.0, seed=2)
        jobs = build_jobs(records, seed=3)
        cluster = Cluster.build(4, 4)
        engine = SimulationEngine(IdleScheduler(), jobs, cluster, EngineConfig())
        job = jobs[0]
        engine._handle_arrival(job)
        return engine, job

    def test_place_task(self):
        engine, job = self.setup_engine()
        task = job.tasks[0]
        engine._apply_decision(
            SchedulerDecision(placements=[Placement(task, 0, 0)])
        )
        assert task.is_placed
        assert task not in engine.queue
        assert engine.cluster.server(0).task_count == 1

    def test_place_unqueued_raises(self):
        engine, job = self.setup_engine()
        task = job.tasks[0]
        engine._apply_decision(SchedulerDecision(placements=[Placement(task, 0, 0)]))
        with pytest.raises(ValueError):
            engine._apply_decision(
                SchedulerDecision(placements=[Placement(task, 1, 0)])
            )

    def test_evict_returns_to_queue(self):
        engine, job = self.setup_engine()
        task = job.tasks[0]
        engine._apply_decision(SchedulerDecision(placements=[Placement(task, 0, 0)]))
        engine._apply_decision(SchedulerDecision(evictions=[Eviction(task)]))
        assert task.state is TaskState.QUEUED
        assert task in engine.queue
        assert engine.metrics.num_evictions == 1

    def test_evict_unplaced_raises(self):
        engine, job = self.setup_engine()
        with pytest.raises(ValueError):
            engine._apply_decision(
                SchedulerDecision(evictions=[Eviction(job.tasks[0])])
            )

    def test_migration_accounting(self):
        engine, job = self.setup_engine()
        task = job.tasks[0]
        engine._apply_decision(SchedulerDecision(placements=[Placement(task, 0, 0)]))
        engine._apply_decision(
            SchedulerDecision(migrations=[Migration(task, 2, 1)])
        )
        assert task.server_id == 2 and task.gpu_id == 1
        assert task.num_migrations == 1
        assert engine.metrics.num_migrations == 1
        assert engine.metrics.migration_bandwidth_mb > 0.0
        assert engine.cluster.server(0).task_count == 0
        assert engine.cluster.server(2).task_count == 1

    def test_migration_same_server_noop(self):
        engine, job = self.setup_engine()
        task = job.tasks[0]
        engine._apply_decision(SchedulerDecision(placements=[Placement(task, 0, 0)]))
        engine._apply_decision(SchedulerDecision(migrations=[Migration(task, 0, 0)]))
        assert engine.metrics.num_migrations == 0

    def test_job_stop_completes_early(self):
        engine, job = self.setup_engine()
        engine._apply_decision(SchedulerDecision(stops=[JobStop(job, "test")]))
        assert job.state is JobState.COMPLETED
        assert job.stopped_early
        assert job.job_id not in engine.active_jobs
        assert all(t.state is TaskState.FINISHED for t in job.tasks)
        assert not engine.queue

    def test_iteration_starts_when_fully_placed(self):
        engine, job = self.setup_engine()
        decision = SchedulerDecision(
            placements=[Placement(t, i % 4, None) for i, t in enumerate(job.tasks)]
        )
        engine._apply_decision(decision)
        engine._start_ready_iterations()
        assert job.job_id in engine._iteration
        assert len(engine._events) >= 1


class TestStallGuard:
    def test_partial_placement_eventually_evicted(self):
        records = generate_trace(1, duration_seconds=10.0, seed=4)
        jobs = build_jobs(records, seed=5)
        job = jobs[0]
        cluster = Cluster.build(2, 4)

        class HalfPlacer(Scheduler):
            name = "half"
            placed = False

            def on_schedule(self, ctx):
                decision = SchedulerDecision()
                if not self.placed and len(ctx.queue) > 1:
                    decision.placements.append(Placement(ctx.queue[0], 0, 0))
                    self.placed = True
                return decision

        config = EngineConfig(stall_ticks=3, max_time=3600.0)
        engine = SimulationEngine(HalfPlacer(), jobs, cluster, config)
        engine.run()
        # The stall guard must have evicted the lone placed task.
        if len(job.tasks) > 1:
            assert engine.metrics.num_evictions >= 1


class TestInfeasibleJobs:
    def test_never_placeable_job_is_rejected_at_arrival(self):
        jobs = [
            make_job(job_id="fits", gpus=4, iterations=3),
            make_job(job_id="huge", arrival=60.0, gpus=32, model="svm"),
        ]
        observer = Observer()
        engine = SimulationEngine(
            PlaceAllScheduler(), jobs, Cluster.build(4, 4), observer=observer
        )
        metrics = engine.run()
        assert metrics.rejected == {"huge": "infeasible: cpu 128.0 > 115.2"}
        # Counted apart: no record, so no JCT, and no spin to max_time.
        assert [r.job_id for r in metrics.job_records] == ["fits"]
        assert metrics.summary()["jobs_rejected"] == 1.0
        assert engine.now < 24 * 3600.0
        (event,) = observer.timeline.history("huge")
        assert (event["event"], event["detail"]) == (
            "rejected",
            "infeasible: cpu 128.0 > 115.2",
        )
        snapshot = observer.registry.scalar_snapshot()
        assert snapshot['mlfs_job_rejections_total{reason="infeasible"}'] == 1.0
