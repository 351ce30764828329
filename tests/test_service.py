"""Tests for the online scheduler service.

Covers the stepping engine refactor (step/run equivalence, mid-run
injection, cancellation), the wire protocol, admission control, the
snapshot ring, deterministic snapshot/restore of the whole service
core, and a daemon/client round trip over a real Unix socket.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster
from repro.cluster.cluster import infeasible_reason
from repro.core import make_mlf_h
from repro.service import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    JobSpec,
    ProtocolError,
    Request,
    Response,
    SchedulerService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SnapshotManager,
    parse_request,
    parse_response,
    read_telemetry,
    summarize_telemetry,
)
from repro.service.daemon import ThreadedDaemon
from repro.service.snapshot import SnapshotError
from repro.sim import EngineConfig, SimulationEngine
from repro.workload import build_jobs, generate_trace
from tests.conftest import make_job

WEEK = 7 * 24 * 3600.0


def small_engine(num_jobs=16, servers=4, seed=21):
    records = generate_trace(num_jobs, duration_seconds=1800.0, seed=seed)
    jobs = build_jobs(records, seed=seed + 1)
    cluster = Cluster.build(servers, 4)
    return SimulationEngine(make_mlf_h(), jobs, cluster, EngineConfig(max_time=WEEK))


def job_tuples(metrics):
    return sorted(
        (
            r.job_id,
            r.jct,
            r.completion_time,
            r.iterations_completed,
            r.num_migrations,
            r.stopped_early,
        )
        for r in metrics.job_records
    )


class TestSteppingEngine:
    def test_step_loop_matches_run(self):
        metrics_run = small_engine().run()

        engine = small_engine()
        engine.start()
        while True:
            result = engine.advance()
            if result.drained or result.events_processed == 0:
                break
        engine.finalize()

        assert job_tuples(engine.metrics) == job_tuples(metrics_run)

    def test_round_results_are_consistent(self):
        engine = small_engine(num_jobs=8)
        engine.start()
        results = []
        while True:
            result = engine.advance()
            results.append(result)
            if result.drained or result.events_processed == 0:
                break
        indices = [r.pass_index for r in results if r.ticked]
        assert indices == sorted(indices)
        times = [r.sim_time for r in results]
        assert times == sorted(times)
        assert all(r.queue_depth >= 0 for r in results)
        assert sum(r.arrivals for r in results) == 8
        assert results[-1].drained

    def test_inject_job_mid_run(self):
        engine = small_engine(num_jobs=6, seed=31)
        engine.start()
        for _ in range(3):
            engine.advance()
        injected_at = engine.now
        late = make_job(seed=5, job_id="late", gpus=2, iterations=5)
        arrival = engine.inject_job(late)
        assert arrival >= injected_at
        while True:
            result = engine.advance()
            if result.drained or result.events_processed == 0:
                break
        engine.finalize()
        records = {r.job_id: r for r in engine.metrics.job_records}
        assert "late" in records
        assert records["late"].arrival_time == arrival
        assert len(records) == 7

    def test_inject_arrival_clamped_to_now(self):
        engine = small_engine(num_jobs=4, seed=33)
        engine.start()
        for _ in range(4):
            engine.advance()
        job = make_job(seed=9, job_id="stale", gpus=1, iterations=3)
        # An arrival time in the past must not rewind the clock.
        arrival = engine.inject_job(job, arrival_time=0.0)
        assert arrival == engine.now

    def test_inject_after_drain_restarts_engine(self):
        engine = small_engine(num_jobs=4, seed=35)
        engine.run()
        assert engine.is_drained
        job = make_job(seed=11, job_id="revive", gpus=1, iterations=3)
        engine.inject_job(job)
        assert not engine.is_drained
        while True:
            result = engine.advance()
            if result.drained or result.events_processed == 0:
                break
        engine.finalize()
        records = {r.job_id for r in engine.metrics.job_records}
        assert "revive" in records

    def test_cancel_job(self):
        engine = small_engine(num_jobs=6, seed=37)
        engine.start()
        engine.advance()
        victim = next(iter(engine.active_jobs))
        assert engine.cancel_job(victim) is True
        assert victim not in engine.active_jobs
        assert engine.cancel_job("no-such-job") is False
        engine.run()
        record = next(r for r in engine.metrics.job_records if r.job_id == victim)
        assert record.stopped_early


class TestProtocol:
    def test_request_roundtrip(self):
        request = Request(op="submit", id="r1", params={"model_name": "mlp"})
        assert parse_request(request.encode()) == request

    def test_response_roundtrip(self):
        ok = Response.success({"pong": True}, id="r1")
        assert parse_response(ok.encode()) == ok
        bad = Response.failure("boom", id="r2")
        parsed = parse_response(bad.encode())
        assert not parsed.ok
        assert parsed.error == "boom"

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request(b'{"op":"fly"}\n')

    def test_malformed_lines_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request(b"not json\n")
        with pytest.raises(ProtocolError):
            parse_request(b"[1,2]\n")
        with pytest.raises(ProtocolError):
            parse_response(b'{"id":"x"}\n')

    def test_jobspec_validation(self):
        with pytest.raises(ProtocolError):
            JobSpec(gpus_requested=0).validate()
        with pytest.raises(ProtocolError):
            JobSpec(accuracy_requirement=2.0).validate()
        with pytest.raises(ProtocolError):
            JobSpec.from_payload({"model_name": "mlp", "flavour": "spicy"})

    def test_jobspec_payload_roundtrip(self):
        spec = JobSpec(model_name="resnet", gpus_requested=2, job_id="j1")
        assert JobSpec.from_payload(spec.to_payload()) == spec


class TestAdmissionController:
    def test_admits_on_idle_cluster(self):
        controller = AdmissionController(threshold=0.9, alpha=1.0)
        cluster = Cluster.build(2, 4)
        assert controller.check(cluster) is AdmissionDecision.ADMIT

    def test_queue_and_fifo_release(self):
        controller = AdmissionController(threshold=-1.0, alpha=1.0)
        cluster = Cluster.build(2, 4)
        # threshold below any O_c: permanently overloaded.
        assert controller.check(cluster) is AdmissionDecision.QUEUE
        controller.park("a")
        assert controller.check(cluster) is AdmissionDecision.QUEUE
        controller.park("b")
        assert controller.release(cluster) == []
        # Raise the threshold: the overload clears, queue drains FIFO.
        controller.threshold = 10.0
        assert controller.release(cluster, limit=1) == ["a"]
        assert controller.release(cluster) == ["b"]
        assert controller.queue_depth == 0

    def test_no_queue_jumping_after_overload_clears(self):
        controller = AdmissionController(threshold=-1.0, alpha=1.0)
        cluster = Cluster.build(2, 4)
        controller.check(cluster)
        controller.park("early")
        controller.threshold = 10.0
        # Not overloaded anymore, but "early" is still parked: a new
        # submission must queue behind it, not jump ahead.
        assert controller.check(cluster) is AdmissionDecision.QUEUE

    def test_reject_policy_and_queue_limit(self):
        controller = AdmissionController(
            threshold=-1.0, alpha=1.0, policy=AdmissionPolicy.REJECT
        )
        cluster = Cluster.build(2, 4)
        assert controller.check(cluster) is AdmissionDecision.REJECT
        queued = AdmissionController(threshold=-1.0, alpha=1.0, queue_limit=1)
        queued.check(cluster)
        queued.park("only")
        assert queued.check(cluster) is AdmissionDecision.REJECT

    def test_withdraw(self):
        controller = AdmissionController()
        controller.park("x")
        assert controller.withdraw("x") is True
        assert controller.withdraw("x") is False
        assert controller.parked_ids() == []


def service_config(tmp_path, **overrides) -> ServiceConfig:
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


class TestServiceCore:
    def test_submit_runs_to_completion(self, tmp_path):
        core = SchedulerService(service_config(tmp_path))
        outcomes = [
            core.submit(JobSpec(model_name="alexnet", gpus_requested=2, max_iterations=5)),
            core.submit(JobSpec(model_name="svm", gpus_requested=1, max_iterations=4)),
        ]
        assert all(o["status"] == "admitted" for o in outcomes)
        result = core.drain()
        assert result["idle"]
        for outcome in outcomes:
            assert core.status(outcome["job_id"])["state"] == "completed"
        assert core.metrics()["summary"]["jobs"] == 2
        assert len(core.telemetry.records) > 0
        summary = summarize_telemetry(core.telemetry.records)
        assert summary["jobs_completed"] == 2

    def test_infeasible_submission_is_rejected_with_reason(self, tmp_path):
        core = SchedulerService(service_config(tmp_path))
        out = core.submit(
            JobSpec(job_id="huge", model_name="svm", gpus_requested=64, max_iterations=3)
        )
        assert (out["job_id"], out["status"]) == ("huge", "rejected")
        assert out["reason"].startswith("infeasible: cpu ")
        assert out["reason"].endswith(" > 115.2")
        assert core.status("huge")["state"] == "rejected"
        assert [e["event"] for e in core.history("huge")["events"]] == ["rejected"]
        assert core.drain()["idle"]
        assert core.metrics()["summary"]["jobs_rejected"] == 1.0

    def test_oversize_submission_is_rejected_before_building(self, tmp_path, monkeypatch):
        core = SchedulerService(service_config(tmp_path))
        built = []
        real = SchedulerService._build_job
        monkeypatch.setattr(
            SchedulerService,
            "_build_job",
            lambda self, job_id, spec: built.append(job_id) or real(self, job_id, spec),
        )
        out = core.submit(
            JobSpec(job_id="vast", model_name="resnet", gpus_requested=65_536, max_iterations=3)
        )
        assert (out["job_id"], out["status"]) == ("vast", "rejected")
        assert out["reason"] == "infeasible: gpu 9830.4 > 14.4"
        assert built == []
        assert core.status("vast")["state"] == "rejected"
        assert [e["event"] for e in core.history("vast")["events"]] == ["rejected"]
        assert core.metrics()["summary"]["jobs_rejected"] == 1.0
        # Under the bound a job is built and checked as before.
        core.submit(JobSpec(job_id="svm64", model_name="svm", gpus_requested=64, max_iterations=3))
        assert built == ["svm64"]

    @pytest.mark.parametrize("model", ["alexnet", "lstm", "mlp", "resnet", "svm"])
    def test_oversize_bound_only_rejects_what_the_built_job_fails(self, tmp_path, model):
        core = SchedulerService(service_config(tmp_path))
        threshold = core.engine.config.overload_threshold
        bounded = 0
        for gpus in (*range(90, 110), 1000):
            spec = JobSpec(job_id=f"{model}{gpus}", model_name=model, gpus_requested=gpus)
            if core._oversize_reason(spec) is not None:
                bounded += 1
                job = core._build_job(spec.job_id, spec)
                reason = infeasible_reason(job.tasks, core.engine.capacity, threshold)
                assert reason is not None and reason.startswith("infeasible: gpu ")
        # Sequentially partitioned models may merge down to one partition.
        assert bounded > 0 or model in ("alexnet", "mlp")

    def test_admission_queues_under_overload_then_releases(self, tmp_path):
        core = SchedulerService(
            service_config(
                tmp_path,
                servers=1,
                gpus_per_server=1,
                admission_threshold=0.05,
                admission_alpha=1.0,
            )
        )
        first = core.submit(JobSpec(model_name="svm", gpus_requested=1, max_iterations=6))
        assert first["status"] == "admitted"
        core.advance_round()  # place the first job: the cluster is now hot
        second = core.submit(JobSpec(model_name="svm", gpus_requested=1, max_iterations=4))
        assert second["status"] == "queued"
        third = core.submit(JobSpec(model_name="svm", gpus_requested=1, max_iterations=4))
        assert third["status"] == "queued"
        assert core.admission.parked_ids() == [second["job_id"], third["job_id"]]
        core.drain()
        for outcome in (first, second, third):
            assert core.status(outcome["job_id"])["state"] == "completed"

    def test_reject_policy(self, tmp_path):
        core = SchedulerService(
            service_config(
                tmp_path,
                servers=1,
                gpus_per_server=1,
                admission_policy="reject",
                admission_threshold=0.05,
                admission_alpha=1.0,
            )
        )
        core.submit(JobSpec(model_name="svm", gpus_requested=1, max_iterations=6))
        core.advance_round()
        bounced = core.submit(JobSpec(model_name="svm", gpus_requested=1))
        assert bounced["status"] == "rejected"
        assert core.status(bounced["job_id"])["state"] == "rejected"

    def test_cancel_parked_and_active(self, tmp_path):
        core = SchedulerService(
            service_config(
                tmp_path,
                servers=1,
                gpus_per_server=1,
                admission_threshold=0.05,
                admission_alpha=1.0,
            )
        )
        active = core.submit(JobSpec(model_name="svm", gpus_requested=1, max_iterations=8))
        core.advance_round()
        parked = core.submit(JobSpec(model_name="svm", gpus_requested=1))
        assert parked["status"] == "queued"
        assert core.cancel(parked["job_id"])["status"] == "cancelled"
        assert core.admission.queue_depth == 0
        assert core.cancel(active["job_id"])["status"] == "cancelled"
        with pytest.raises(ProtocolError):
            core.cancel(active["job_id"])  # already cancelled
        with pytest.raises(ProtocolError):
            core.cancel("svc-99999")

    def test_submissions_rejected_while_draining(self, tmp_path):
        core = SchedulerService(service_config(tmp_path))
        core.submit(JobSpec(model_name="mlp", gpus_requested=1, max_iterations=3))
        core.drain()
        late = core.submit(JobSpec(model_name="mlp", gpus_requested=1))
        assert late["status"] == "rejected"
        assert late["reason"] == "draining"


class TestSnapshotManager:
    def test_save_load_and_prune(self, tmp_path):
        manager = SnapshotManager(tmp_path / "snaps", keep=2)
        for round_index in range(4):
            manager.save({"round": round_index}, round_index=round_index, sim_time=60.0)
        paths = manager.list_snapshots()
        assert len(paths) == 2  # pruned down to the newest two
        assert manager.load() == {"round": 3}
        meta = manager.load_meta()
        assert meta["round"] == 3
        assert meta["sim_time"] == 60.0

    def test_load_without_snapshot_raises(self, tmp_path):
        manager = SnapshotManager(tmp_path / "empty")
        with pytest.raises(SnapshotError):
            manager.load()


def scripted_specs(count=12):
    rng = random.Random(99)
    return [
        JobSpec(
            model_name=rng.choice(["alexnet", "lstm", "mlp", "resnet", "svm"]),
            gpus_requested=rng.choice([1, 2, 4]),
            max_iterations=rng.randint(4, 12),
            accuracy_requirement=0.7,
            urgency=rng.randint(0, 10),
        )
        for _ in range(count)
    ]


def submit_window(core, specs, start, stop):
    """Submit one spec per round over [start, stop)."""
    for index in range(start, stop):
        core.submit(specs[index])
        core.advance_round()


class TestDeterministicResume:
    def test_resume_equals_uninterrupted_run(self, tmp_path):
        specs = scripted_specs()

        # Run A: uninterrupted.
        plain = SchedulerService(service_config(tmp_path / "a", seed=13))
        submit_window(plain, specs, 0, len(specs))
        plain.drain()
        baseline = job_tuples(plain.engine.metrics)
        assert len(baseline) == len(specs)

        # Run B: identical submissions, but killed after round 6 and
        # restored from the snapshot taken there.
        snap_dir = tmp_path / "b" / "snaps"
        interrupted = SchedulerService(
            service_config(tmp_path / "b", seed=13, snapshot_dir=str(snap_dir))
        )
        submit_window(interrupted, specs, 0, 6)
        assert interrupted.snapshot_now() is not None
        del interrupted  # "crash"

        restored = SchedulerService.restore(snap_dir)
        submit_window(restored, specs, 6, len(specs))
        restored.drain()

        assert job_tuples(restored.engine.metrics) == baseline

    def test_restore_resumes_snapshot_ring(self, tmp_path):
        snap_dir = tmp_path / "snaps"
        core = SchedulerService(
            service_config(tmp_path, seed=3, snapshot_dir=str(snap_dir))
        )
        core.submit(JobSpec(model_name="mlp", gpus_requested=1, max_iterations=3))
        core.advance_round()
        first = core.snapshot_now()
        restored = SchedulerService.restore(snap_dir)
        restored.advance_round()
        second = restored.snapshot_now()
        assert second is not None and second != first
        assert str(snap_dir) in second  # same ring as before the restore

    def test_restore_reopens_admissions_after_drain(self, tmp_path):
        # A drain before shutdown must not leave the revived daemon
        # rejecting every submission.
        snap_dir = tmp_path / "snaps"
        core = SchedulerService(
            service_config(tmp_path, seed=5, snapshot_dir=str(snap_dir))
        )
        core.submit(JobSpec(model_name="mlp", gpus_requested=1, max_iterations=3))
        core.drain()
        core.snapshot_now()
        restored = SchedulerService.restore(snap_dir)
        assert not restored.draining
        out = restored.submit(JobSpec(model_name="svm", gpus_requested=1))
        assert out["status"] == "admitted"

    def test_observability_survives_restore(self, tmp_path):
        # Metric counters and job timelines are part of the snapshot:
        # the revived service continues counting where the old one died,
        # and pre-crash job histories stay queryable.
        specs = scripted_specs()
        snap_dir = tmp_path / "snaps"
        core = SchedulerService(
            service_config(tmp_path, seed=13, snapshot_dir=str(snap_dir))
        )
        submit_window(core, specs, 0, 6)
        pre_snapshot = core.observer.registry.scalar_snapshot()
        pre_jobs = core.observer.timeline.job_ids()
        assert pre_snapshot["mlfs_job_arrivals_total"] == 6
        assert len(pre_jobs) == 6
        core.snapshot_now()
        del core  # "crash"

        restored = SchedulerService.restore(snap_dir)
        snap = restored.observer.registry.scalar_snapshot()
        assert snap["mlfs_job_arrivals_total"] == 6
        assert snap["mlfs_rounds_total"] == pre_snapshot["mlfs_rounds_total"]
        assert restored.observer.timeline.job_ids() == pre_jobs
        first = pre_jobs[0]
        events = [e["event"] for e in restored.observer.timeline.history(first)]
        assert events[0] == "admission"
        assert "placed" in events

        # Counters keep advancing from the restored values, and the
        # restored engine routes events into the restored observer.
        submit_window(restored, specs, 6, len(specs))
        restored.drain()
        final = restored.observer.registry.scalar_snapshot()
        assert final["mlfs_job_arrivals_total"] == len(specs)
        assert final["mlfs_job_completions_total"] == len(specs)
        assert final["mlfs_rounds_total"] > snap["mlfs_rounds_total"]
        last_events = [
            e["event"] for e in restored.observer.timeline.history(pre_jobs[-1])
        ]
        assert last_events[-1] in ("completed", "stopped")


class TestDaemonRoundTrip:
    def test_submit_status_metrics_telemetry(self, tmp_path):
        config = service_config(
            tmp_path,
            telemetry_path=str(tmp_path / "telemetry.jsonl"),
            snapshot_dir=str(tmp_path / "snaps"),
        )
        with ThreadedDaemon(config) as daemon:
            with ServiceClient(daemon.socket_path) as client:
                assert client.ping()
                out = client.submit(
                    JobSpec(model_name="alexnet", gpus_requested=2, max_iterations=5)
                )
                assert out["status"] == "admitted"
                job_id = out["job_id"]
                for _ in range(300):
                    if client.status(job_id)["state"] == "completed":
                        break
                    client.step(rounds=1)
                status = client.status(job_id)
                assert status["state"] == "completed"
                assert status["jct"] > 0.0
                metrics = client.metrics()
                assert metrics["summary"]["jobs"] == 1
                snapshot_path = client.snapshot()
                assert snapshot_path.endswith(".pkl")
                everything = client.status()
                assert [j["job_id"] for j in everything["jobs"]] == [job_id]
                with pytest.raises(ServiceError):
                    client.status("svc-404")

        records = read_telemetry(config.telemetry_path)
        assert records
        assert summarize_telemetry(records)["jobs_completed"] == 1

    def test_stop_flushes_snapshot_and_handles_off_loop(self, tmp_path):
        # Regression for the REP100 finding `repro analyze` surfaced:
        # the final snapshot + telemetry/trace flush used to run on the
        # event loop inside stop(); they now run via asyncio.to_thread.
        # The observable contract is unchanged — a clean shutdown must
        # still persist the tail of the run.
        snap_dir = tmp_path / "snaps"
        config = service_config(
            tmp_path,
            snapshot_dir=str(snap_dir),
            telemetry_path=str(tmp_path / "telemetry.jsonl"),
        )
        with ThreadedDaemon(config) as daemon:
            with ServiceClient(daemon.socket_path) as client:
                client.submit(
                    JobSpec(model_name="svm", gpus_requested=1, max_iterations=4)
                )
                client.drain()
        # The context exit drove SchedulerDaemon.stop(): the final
        # snapshot exists and restores to the drained state.
        restored = SchedulerService.restore(snap_dir)
        assert restored.idle
        assert restored.metrics()["summary"]["jobs"] == 1
        # close() ran too: telemetry reached disk before the loop died.
        assert read_telemetry(config.telemetry_path)

    def test_drain_via_socket(self, tmp_path):
        config = service_config(tmp_path)
        with ThreadedDaemon(config) as daemon:
            with ServiceClient(daemon.socket_path) as client:
                for _ in range(3):
                    client.submit(JobSpec(model_name="svm", gpus_requested=1, max_iterations=4))
                result = client.drain()
                assert result["idle"]
                assert result["summary"]["jobs"] == 3
                # Draining closed admissions for good.
                late = client.submit(JobSpec(model_name="svm", gpus_requested=1))
                assert late["status"] == "rejected"

    def test_metrics_text_and_history_verbs(self, tmp_path):
        config = service_config(
            tmp_path, telemetry_path=str(tmp_path / "telemetry.jsonl")
        )
        with ThreadedDaemon(config) as daemon:
            with ServiceClient(daemon.socket_path) as client:
                out = client.submit(
                    JobSpec(model_name="alexnet", gpus_requested=2, max_iterations=5)
                )
                job_id = out["job_id"]
                client.drain()

                text = client.metrics_text()
                families = {
                    line.split()[2]
                    for line in text.splitlines()
                    if line.startswith("# TYPE")
                }
                # The acceptance bar: at least ten distinct families,
                # including the per-phase latency histogram.
                assert len(families) >= 10
                assert "mlfs_scheduler_phase_seconds" in families
                assert "mlfs_job_arrivals_total" in families
                assert "mlfs_service_submissions_total" in families
                assert 'phase="priority"' in text

                history = client.history(job_id)
                assert history["job_id"] == job_id
                events = [e["event"] for e in history["events"]]
                assert events[0] == "admission"
                assert "placed" in events
                assert events[-1] in ("completed", "stopped")
                for event in history["events"]:
                    assert "time" in event
                with pytest.raises(ServiceError):
                    client.history("svc-404")

        # Telemetry rounds embed the metric snapshot for offline replay.
        records = read_telemetry(config.telemetry_path)
        assert records
        obs = records[-1]["obs"]
        assert obs["mlfs_job_completions_total"] == 1
