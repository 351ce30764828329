"""Tests for the gateway front tier (repro.gateway).

Covers the occupancy board and global admission gate, client target
parsing and connect retry, the worker-side ``submit_batch`` verb and
graceful SIGTERM, the supervisor, and the gateway daemon end to end —
routing, batching, aggregation, door admission, the load generator and
the per-worker telemetry determinism contract (DESIGN.md §12), plus the
distributed-tracing contract (DESIGN.md §13): client → gateway → worker
span chains, fan-out span integrity, bit-identical deterministic trace
dumps, and the merged per-worker Prometheus exposure.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.gateway import (
    GatewayConfig,
    GlobalAdmission,
    HashRing,
    OccupancyBoard,
    ThreadedGateway,
    WorkerSupervisor,
    run_loadgen,
    worker_service_configs,
)
from repro.gateway.loadgen import generate_payloads
from repro.obs import (
    derive_span_id,
    derive_trace_id,
    root_context,
    validate_metrics_text,
)
from repro.obs.distributed import analyze_trace, trace_summary
from repro.service import JobSpec, ServiceClient, ServiceConfig, parse_target
from repro.service.admission import AdmissionDecision
from repro.service.daemon import ThreadedDaemon


def gateway_config(tmp_path, **overrides) -> GatewayConfig:
    """A fast deterministic thread-mode gateway for tests."""
    defaults = dict(
        workers=2,
        spawn="thread",
        workdir=str(tmp_path / "gw"),
        round_interval=0.0,
        gossip_interval=0.0,
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


class TestOccupancyBoard:
    def test_cluster_overload_is_mean_over_alive(self):
        board = OccupancyBoard.for_partitions(range(3))
        board.update(0, overload_degree=0.9)
        board.update(1, overload_degree=0.3)
        board.update(2, overload_degree=0.6)
        assert board.cluster_overload() == pytest.approx(0.6)
        board.mark_down(2)
        assert board.cluster_overload() == pytest.approx(0.6)  # mean of 0.9, 0.3

    def test_empty_and_all_dead_read_zero(self):
        board = OccupancyBoard()
        assert board.cluster_overload() == 0.0
        board.mark_down(0)
        assert board.cluster_overload() == 0.0
        assert board.totals()["partitions_alive"] == 0

    def test_totals_and_snapshot(self):
        board = OccupancyBoard.for_partitions(range(2))
        board.update(0, active_jobs=3, queue_depth=1, admission_queue_depth=2)
        board.update(1, active_jobs=4, queue_depth=0, admission_queue_depth=0)
        totals = board.totals()
        assert totals["active_jobs"] == 7
        assert totals["queue_depth"] == 1
        assert totals["admission_queue_depth"] == 2
        snap = board.snapshot()
        assert set(snap["partitions"]) == {"0", "1"}
        assert snap["cluster"]["partitions_alive"] == 2
        assert snap["partitions"]["0"]["seq"] == 1

    def test_global_admission_threshold(self):
        board = OccupancyBoard.for_partitions(range(2))
        gate = GlobalAdmission(threshold=0.5, alpha=1.0)
        board.update(0, overload_degree=0.2)
        board.update(1, overload_degree=0.2)
        assert gate.check(board) is AdmissionDecision.ADMIT
        board.update(0, overload_degree=0.9)
        board.update(1, overload_degree=0.9)
        assert gate.check(board) is AdmissionDecision.REJECT

    def test_global_admission_disabled(self):
        board = OccupancyBoard()
        gate = GlobalAdmission(threshold=None)
        assert gate.check(board) is AdmissionDecision.ADMIT


class TestParseTarget:
    def test_unix_forms(self):
        assert parse_target("some/dir/x.sock") == ("unix", "some/dir/x.sock")
        assert parse_target("unix:///tmp/y.sock") == ("unix", "/tmp/y.sock")

    def test_tcp_forms(self):
        assert parse_target("tcp://10.0.0.1:7000") == ("tcp", ("10.0.0.1", 7000))
        assert parse_target("127.0.0.1:7463") == ("tcp", ("127.0.0.1", 7463))
        assert parse_target("localhost:80") == ("tcp", ("localhost", 80))

    def test_path_with_colon_stays_unix(self):
        # A slash anywhere means filesystem path, even with a colon.
        assert parse_target("/tmp/odd:name")[0] == "unix"

    def test_bad_tcp_port(self):
        with pytest.raises(ValueError):
            parse_target("tcp://host:notaport")


class TestClientRetry:
    def test_connect_gives_up_after_bounded_retries(self, tmp_path):
        client = ServiceClient(
            str(tmp_path / "nobody-home.sock"),
            connect_retries=2,
            connect_backoff=0.01,
        )
        start = time.perf_counter()
        with pytest.raises(FileNotFoundError):
            client.connect()
        # 2 retries at 10 + 20 ms backoff — bounded, not hanging.
        assert time.perf_counter() - start < 5.0

    def test_connect_retries_until_daemon_appears(self, tmp_path):
        config = ServiceConfig(
            socket_path=str(tmp_path / "late.sock"), round_interval=0.0
        )
        daemon = ThreadedDaemon(config)

        def start_late():
            time.sleep(0.3)
            daemon.__enter__()

        starter = threading.Thread(target=start_late)
        starter.start()
        try:
            with ServiceClient(
                config.socket_path, connect_retries=40, connect_backoff=0.05
            ) as client:
                assert client.ping()
        finally:
            starter.join()
            daemon.__exit__(None, None, None)


class TestWorkerVerbs:
    def test_submit_batch_verb_on_a_single_daemon(self, tmp_path):
        config = ServiceConfig(
            socket_path=str(tmp_path / "w.sock"), round_interval=0.0
        )
        with ThreadedDaemon(config) as daemon:
            with ServiceClient(daemon.socket_path) as client:
                results = client.submit_batch(
                    [
                        JobSpec(job_id="a"),
                        {"job_id": "b", "gpus_requested": 2},
                        {"job_id": "bad", "gpus_requested": -1},
                    ]
                )
                assert [r["job_id"] for r in results] == ["a", "b", "bad"]
                assert results[0]["status"] == "admitted"
                assert results[1]["status"] == "admitted"
                assert results[2]["status"] == "error"
                # Responses gossip the worker's smoothed overload back.
                assert "overload_degree" in results[0]

    def test_metrics_text_is_compliant_prometheus(self, tmp_path):
        config = ServiceConfig(
            socket_path=str(tmp_path / "w.sock"), round_interval=0.0
        )
        with ThreadedDaemon(config) as daemon:
            with ServiceClient(daemon.socket_path) as client:
                client.submit_batch([JobSpec(job_id="a"), JobSpec(job_id="b")])
                client.step(2)
                text = client.metrics_text()
        assert validate_metrics_text(text) == []
        # HELP/TYPE appear exactly once per family, families sorted.
        type_names = [
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE ")
        ]
        assert type_names == sorted(type_names)
        assert len(type_names) == len(set(type_names))

    def test_ping_reports_role_and_round(self, tmp_path):
        config = ServiceConfig(
            socket_path=str(tmp_path / "w.sock"), round_interval=0.0
        )
        with ThreadedDaemon(config) as daemon:
            with ServiceClient(daemon.socket_path) as client:
                info = client.ping_info()
                assert info["pong"] is True
                assert info["role"] == "daemon"
                assert info["rtt_ms"] > 0.0


class TestWorkerSigterm:
    def test_sigterm_flushes_telemetry_and_exits_cleanly(self, tmp_path):
        socket_path = tmp_path / "sig.sock"
        telemetry_path = tmp_path / "sig-telemetry.jsonl"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--socket",
                str(socket_path),
                "--telemetry",
                str(telemetry_path),
                "--round-interval",
                "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            with ServiceClient(
                str(socket_path), connect_retries=80, connect_backoff=0.05
            ) as client:
                client.submit(JobSpec(job_id="sig-1"))
                client.step(2)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        records = [
            json.loads(line)
            for line in telemetry_path.read_text().splitlines()
            if line.strip()
        ]
        # SIGTERM flushed the telemetry before the process exited.
        assert [r["pass_index"] for r in records]


class TestSupervisor:
    def test_thread_mode_lifecycle_and_statuses(self, tmp_path):
        configs = worker_service_configs(
            2, tmp_path / "sup", round_interval=0.0, telemetry=False
        )
        supervisor = WorkerSupervisor(configs, spawn="thread")
        supervisor.start()
        try:
            rows = supervisor.statuses()
            assert [r["partition"] for r in rows] == [0, 1]
            assert all(r["alive"] for r in rows)
            with ServiceClient(configs[0].socket_path) as client:
                assert client.ping()
        finally:
            supervisor.stop()
        assert all(not h.alive() for h in supervisor.handles)

    def test_seeds_derive_per_partition(self, tmp_path):
        configs = worker_service_configs(3, tmp_path, seed=7)
        assert [c.seed for c in configs] == [7, 8, 9]
        assert len({c.socket_path for c in configs}) == 3

    def test_rejects_bad_arguments(self, tmp_path):
        with pytest.raises(ValueError):
            WorkerSupervisor([], spawn="thread")
        with pytest.raises(ValueError):
            worker_service_configs(0, tmp_path)
        configs = worker_service_configs(1, tmp_path)
        with pytest.raises(ValueError):
            WorkerSupervisor(configs, spawn="fork-bomb")


class TestGatewayEndToEnd:
    def test_routing_batching_and_aggregation(self, tmp_path):
        with ThreadedGateway(gateway_config(tmp_path, workers=2)) as gateway:
            with ServiceClient(gateway.target) as client:
                info = client.ping_info()
                assert info["role"] == "gateway"
                assert info["workers"] == {"total": 2, "up": 2}

                jobs = [
                    {"job_id": f"e2e-{i}", "tenant": f"tenant-{i % 6}"}
                    for i in range(30)
                ]
                results = client.submit_batch(jobs)
                assert [r["job_id"] for r in results] == [j["job_id"] for j in jobs]
                assert {r["status"] for r in results} == {"admitted"}

                # Tenant affinity: one tenant's jobs all land on one shard.
                ring = HashRing(range(2), replicas=64, seed=0)
                for job, result in zip(jobs, results):
                    assert result["partition"] == ring.lookup(job["tenant"])

                # Aggregated status equals the sum of the worker states.
                status = client.status()
                cluster = status["cluster"]
                assert cluster["jobs_submitted"] == 30
                per_part = status["partitions"]
                assert cluster["active_jobs"] == sum(
                    p["active_jobs"] for p in per_part.values()
                )
                assert sum(p["jobs_submitted"] for p in per_part.values()) == 30

                # Per-job status routes through the remembered partition.
                one = client.status("e2e-0")
                assert one["partition"] == ring.lookup("tenant-0")

                # metrics carries the gossip board and gateway counters.
                metrics = client.metrics()
                assert metrics["cluster"]["jobs_submitted"] == 30
                admitted = metrics["gateway"][
                    'gateway_submissions_total{outcome="admitted"}'
                ]
                assert admitted == 30.0
                board = metrics["gossip"]["cluster"]
                assert board["partitions_alive"] == 2

                workers = client.workers()["workers"]
                assert [w["partition"] for w in workers] == [0, 1]
                assert all(w["alive"] and w["answering"] for w in workers)

                # step/drain fan out to every partition.
                stepped = client.step(2)["partitions"]
                assert set(stepped) == {"0", "1"}
                assert client.drain()["idle"] is True

    def test_single_submit_and_cancel_route_consistently(self, tmp_path):
        with ThreadedGateway(gateway_config(tmp_path)) as gateway:
            with ServiceClient(gateway.target) as client:
                out = client.submit(JobSpec(job_id="solo", tenant="acme"))
                assert out["status"] == "admitted"
                partition = out["partition"]
                assert client.status("solo")["partition"] == partition
                client.step(1)  # let the job arrive into the engine
                cancelled = client.cancel("solo")
                assert cancelled["status"] == "cancelled"
                assert cancelled["partition"] == partition

    def test_infeasible_rejection_is_forwarded_unchanged(self, tmp_path):
        with ThreadedGateway(gateway_config(tmp_path)) as gateway:
            with ServiceClient(gateway.target) as client:
                out = client.submit(
                    JobSpec(job_id="huge", model_name="svm", gpus_requested=64)
                )
                assert out["status"] == "rejected"
                assert out["reason"].startswith("infeasible: cpu ")

    def test_gateway_assigns_ids_when_missing(self, tmp_path):
        with ThreadedGateway(gateway_config(tmp_path)) as gateway:
            with ServiceClient(gateway.target) as client:
                results = client.submit_batch([{}, {}, {}])
                ids = [r["job_id"] for r in results]
                assert len(set(ids)) == 3
                assert all(job_id.startswith("gw-") for job_id in ids)

    def test_door_rejects_when_cluster_overloaded(self, tmp_path):
        config = gateway_config(
            tmp_path,
            workers=2,
            servers_per_worker=1,
            gpus_per_server=1,
            global_threshold=0.02,
            global_alpha=1.0,
        )
        with ThreadedGateway(config) as gateway:
            with ServiceClient(gateway.target) as client:
                # Flood one GPU per worker, stepping so tasks place and
                # O_c rises; the responses gossip the overload back,
                # arming the door for later waves.
                rejected = 0
                for wave in range(6):
                    results = client.submit_batch(
                        [
                            {"job_id": f"flood-{wave}-{i}", "gpus_requested": 1}
                            for i in range(20)
                        ]
                    )
                    client.step(2)
                    rejected += sum(
                        1 for r in results if r["status"] == "rejected"
                    )
                assert rejected > 0
                metrics = client.metrics()
                assert (
                    metrics["gateway"][
                        'gateway_submissions_total{outcome="rejected"}'
                    ]
                    == rejected
                )

    def test_gossip_verb_polls_on_demand(self, tmp_path):
        with ThreadedGateway(gateway_config(tmp_path)) as gateway:
            with ServiceClient(gateway.target) as client:
                snap = client.gossip()
                assert snap["cluster"]["partitions_alive"] == 2
                assert all(
                    sample["alive"] and sample["rtt_ms"] > 0.0
                    for sample in snap["partitions"].values()
                )


class TestLoadgen:
    def test_generate_payloads_is_deterministic(self):
        a = list(generate_payloads(50, tenants=4, seed=3))
        b = list(generate_payloads(50, tenants=4, seed=3))
        c = list(generate_payloads(50, tenants=4, seed=4))
        assert a == b
        assert a != c
        assert [p["job_id"] for p in a] == [f"lg-{i:07d}" for i in range(50)]

    def test_trace_flag_adds_ids_without_perturbing_payloads(self):
        plain = list(generate_payloads(12, tenants=3, seed=5))
        traced = list(generate_payloads(12, tenants=3, seed=5, trace=True))
        assert all("trace_id" not in p for p in plain)
        for index, (bare, tagged) in enumerate(zip(plain, traced)):
            tagged = dict(tagged)
            trace_id = tagged.pop("trace_id")
            assert tagged == bare  # byte-identical stream otherwise
            assert trace_id == derive_trace_id(5, bare["tenant"], index)

    @pytest.mark.parametrize("spawn", ["thread", "process"])
    def test_loadgen_replays_without_loss_or_duplication(self, tmp_path, spawn):
        config = gateway_config(tmp_path, workers=2, spawn=spawn)
        with ThreadedGateway(config) as gateway:
            result = run_loadgen(
                gateway.target, count=300, batch=50, tenants=8, seed=1
            )
        assert result["lost"] == 0
        assert result["duplicated"] == 0
        assert sum(result["outcomes"].values()) == 300
        assert result["submissions_per_sec"] > 0
        assert result["latency_ms"]["p99"] >= result["latency_ms"]["p50"]
        # Both partitions saw traffic.
        assert set(result["per_partition"]) == {"0", "1"}
        # Every worker exited cleanly on the gateway's shutdown verb.
        assert gateway.supervisor.exit_codes() == {0: 0, 1: 0}


class TestDeterminismContract:
    def run_trace(self, workdir: Path, seed: int = 0) -> dict[str, bytes]:
        """One gateway run over the canonical trace; telemetry per worker."""
        config = gateway_config(
            Path(workdir), workers=2, seed=seed, telemetry=True
        )
        with ThreadedGateway(config) as gateway:
            with ServiceClient(gateway.target) as client:
                payloads = list(generate_payloads(60, tenants=6, seed=9))
                for start in range(0, 60, 20):
                    client.submit_batch(payloads[start : start + 20])
                    client.step(2)
                client.drain()
        out = {}
        for worker_dir in sorted(Path(config.workdir).glob("worker-*")):
            out[worker_dir.name] = (worker_dir / "telemetry.jsonl").read_bytes()
        return out

    def test_same_seed_and_trace_give_bit_identical_telemetry(self, tmp_path):
        first = self.run_trace(tmp_path / "run-a")
        second = self.run_trace(tmp_path / "run-b")
        assert set(first) == set(second) == {"worker-00", "worker-01"}
        for name in first:
            assert first[name], f"{name} telemetry is empty"
            assert first[name] == second[name], (
                f"{name} telemetry differs between identical runs"
            )

    def test_different_seed_changes_the_schedule(self, tmp_path):
        first = self.run_trace(tmp_path / "run-a", seed=0)
        second = self.run_trace(tmp_path / "run-c", seed=100)
        assert any(first[name] != second[name] for name in first)


def _trace_spans(doc: dict) -> list[dict]:
    """The duration events of a merged Chrome-trace document."""
    return [e for e in doc["traceEvents"] if e.get("ph") == "X"]


class TestDistributedTracing:
    """The tentpole contract: client → gateway → worker span chains."""

    def test_single_submit_chains_client_gateway_worker(self, tmp_path):
        ctx = root_context(seed=5, tenant="acme", index=0)
        spec = JobSpec(job_id="traced-1", tenant="acme", trace_id=ctx.trace_id)
        with ThreadedGateway(gateway_config(tmp_path, trace=True)) as gateway:
            with ServiceClient(gateway.target) as client:
                result = client.submit(spec, trace=ctx)
                assert result["status"] == "admitted"
                assert result["trace_id"] == ctx.trace_id
                dump = client.trace_dump()
        assert dump["enabled"] is True
        spans = {}
        for event in _trace_spans(dump["trace"]):
            args = event.get("args") or {}
            if args.get("trace_id") == ctx.trace_id:
                spans[event["name"]] = args
        gw = spans["gateway.submit"]
        worker = spans["worker.admission"]
        # Gateway span is parented under the client's root span...
        assert gw["span_id"] == derive_span_id(ctx.trace_id, "gateway.submit")
        assert gw["parent_id"] == ctx.span_id
        # ...and the worker's admission span under the gateway's.
        assert worker["span_id"] == derive_span_id(ctx.trace_id, "worker.admission")
        assert worker["parent_id"] == gw["span_id"]

    @pytest.mark.parametrize("spawn", ["thread", "process"])
    def test_batch_fanout_spans_match_across_lanes(self, tmp_path, spawn):
        config = gateway_config(tmp_path, workers=2, spawn=spawn, trace=True)
        with ThreadedGateway(config) as gateway:
            with ServiceClient(gateway.target) as client:
                payloads = list(generate_payloads(60, tenants=8, seed=2, trace=True))
                client.submit_batch(payloads[:30])
                client.submit_batch(payloads[30:])
                dump = client.trace_dump()
                text = client.metrics_text()
        assert gateway.supervisor.exit_codes() == {0: 0, 1: 0}
        assert dump["processes"] == ["gateway", "worker-00", "worker-01"]
        summary = trace_summary(dump["trace"])
        assert summary["lanes"] >= 3  # gateway + both workers recorded spans
        assert summary["dropped"] == 0
        analysis = analyze_trace(dump["trace"])
        # Cross-process integrity: every gateway fan-out RPC has a
        # matching worker-side span parented under it.
        assert analysis["forward_spans"] >= 2
        assert analysis["forward_spans_matched"] == analysis["forward_spans"]
        assert analysis["submissions"] == 60
        assert analysis["categories"]["gateway_batch"]["count"] == 2
        # Each admission span joins its payload's client-derived trace.
        by_trace = {
            (e.get("args") or {}).get("trace_id")
            for e in _trace_spans(dump["trace"])
            if e["name"] == "worker.admission"
        }
        assert derive_trace_id(2, payloads[0]["tenant"], 0) in by_trace
        # The merged exposure is valid Prometheus text labelled per source.
        assert validate_metrics_text(text) == []
        assert 'worker="gateway"' in text and 'worker="0"' in text

    def test_trace_dump_reports_disabled_when_off(self, tmp_path):
        with ThreadedGateway(gateway_config(tmp_path)) as gateway:
            with ServiceClient(gateway.target) as client:
                client.submit_batch([{"job_id": "plain-1"}])
                dump = client.trace_dump()
        assert dump["enabled"] is False
        assert _trace_spans(dump["trace"]) == []

    def run_traced(self, workdir: Path, seed: int = 0) -> bytes:
        """One traced gateway run over the canonical submission stream."""
        config = gateway_config(
            Path(workdir), workers=2, seed=seed, telemetry=False, trace=True
        )
        with ThreadedGateway(config) as gateway:
            with ServiceClient(gateway.target) as client:
                payloads = list(generate_payloads(60, tenants=6, seed=9, trace=True))
                for start in range(0, 60, 20):
                    client.submit_batch(payloads[start : start + 20])
                    client.step(2)
                client.drain()
                dump = client.trace_dump(deterministic=True)
        assert dump["enabled"] is True
        return json.dumps(dump["trace"], sort_keys=True).encode()

    def test_same_seed_traced_runs_dump_identical_bytes(self, tmp_path):
        first = self.run_traced(tmp_path / "run-a")
        second = self.run_traced(tmp_path / "run-b")
        assert json.loads(first)["traceEvents"], "trace is empty"
        assert first == second

    def test_gateway_metrics_text_merges_workers_with_labels(self, tmp_path):
        with ThreadedGateway(gateway_config(tmp_path, workers=2)) as gateway:
            with ServiceClient(gateway.target) as client:
                payloads = list(generate_payloads(40, tenants=8, seed=1))
                client.submit_batch(payloads)
                client.step(2)
                text = client.metrics_text()
        assert validate_metrics_text(text) == []
        # Every source appears as a worker label on its samples.
        assert 'worker="gateway"' in text
        assert 'worker="0"' in text
        assert 'worker="1"' in text
        type_names = [
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE ")
        ]
        assert type_names == sorted(type_names)
        assert len(type_names) == len(set(type_names))


class TestGatewaySpec:
    def test_round_trip_and_digest(self):
        from repro.exp import GatewaySpec

        spec = GatewaySpec(workers=4, global_threshold=0.8, seed=3)
        assert GatewaySpec.from_json(spec.to_json()) == spec
        assert spec.digest() == GatewaySpec.from_json(spec.to_json()).digest()
        assert spec.digest() != GatewaySpec(workers=8).digest()

    def test_gateway_config_is_deterministic_replay_shaped(self, tmp_path):
        from repro.exp import GatewaySpec

        config = GatewaySpec(workers=3).gateway_config(str(tmp_path))
        assert config.workers == 3
        assert config.round_interval == 0.0
        assert config.gossip_interval == 0.0
        assert config.telemetry_obs == "deterministic"
