"""The gateway daemon: a sharded multi-tenant front tier.

One asyncio process owns client-facing ingress — a TCP listener and/or
a Unix socket, both speaking the same NDJSON protocol as the workers —
and fans submissions out to N scheduler daemons it supervises:

* routing: the consistent-hash ring (:mod:`repro.gateway.ring`) maps
  each submission's tenant (or job id) to a partition;
* admission: the optional global ``O_c > h_s`` gate
  (:class:`~repro.gateway.gossip.GlobalAdmission`) runs at the door,
  fed by occupancy gossiped back on every worker response and by the
  periodic poll loop;
* batching: ``submit_batch`` splits a client batch by partition and
  forwards one pipelined ``submit_batch`` per worker, concurrently —
  the unit of front-tier throughput;
* aggregation: ``status``/``metrics`` merge per-partition views into a
  cluster-wide one (sums for additive quantities, the mean for
  ``O_c``), ``step``/``drain`` fan out to every worker;
* supervision: the poll loop doubles as the health checker, marking
  dead partitions down and (in process spawn mode) restarting them.

Distributed tracing: with ``trace=True`` the gateway records its own
spans (``gateway.submit``/``gateway.submit_batch``/``gateway.forward``)
into a local :class:`~repro.obs.tracing.Tracer`, stamps forwarded
payloads with deterministic per-submission trace IDs
(:mod:`repro.obs.tracectx`), and answers ``trace_dump`` by fanning out
to every worker and merging the per-process span dumps into one
Chrome-trace document with a lane per process
(:mod:`repro.obs.distributed`).  ``metrics_text`` likewise merges every
worker's Prometheus exposure with the gateway's own, each sample tagged
``worker="<partition>"``.

Determinism contract: with the round loop and poll loop quiesced
(``round_interval=0``, ``gossip_interval=0``) the same seed + ring
config + submission trace produces bit-identical per-worker telemetry
across gateway runs — routing is seeded SHA-256, worker seeds derive
from the base seed, gateway job-id assignment is a deterministic
counter, and occupancy gossip rides on responses in submission order.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.gateway.gossip import GlobalAdmission, OccupancyBoard
from repro.gateway.ring import HashRing
from repro.gateway.supervisor import (
    GatewayError,
    WorkerSupervisor,
    worker_service_configs,
)
from repro.obs.distributed import ProcessTrace, merge_chrome_traces
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.promtext import merge_metrics_text
from repro.obs.tracectx import TraceContext, derive_span_id, derive_trace_id
from repro.obs.tracing import NullTracer, Tracer
from repro.service.admission import AdmissionDecision
from repro.service.protocol import (
    GATEWAY,
    STREAM_LIMIT,
    ProtocolError,
    Request,
    VerbHandlers,
    check_job,
    decode_line,
    encode_line,
)

__all__ = ["GatewayConfig", "GatewayDaemon", "ThreadedGateway", "run_gateway"]


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway parameterization (CLI flags map 1:1 onto these)."""

    #: TCP listen address (``host:port``; port 0 binds an ephemeral
    #: port, reported via :attr:`GatewayDaemon.bound_port`).  ``None``
    #: disables the TCP listener.
    listen: Optional[str] = "127.0.0.1:0"
    #: Gateway's own Unix socket (``repro ctl`` convenience); ``None``
    #: disables it.
    socket_path: Optional[str] = None
    workers: int = 2
    ring_replicas: int = 64
    ring_seed: int = 0
    scheduler: str = "MLF-H"
    servers_per_worker: int = 4
    gpus_per_server: int = 4
    tick_seconds: float = 60.0
    seed: int = 0
    #: Real seconds between worker scheduler rounds (0 = rounds only on
    #: explicit ``step``/``drain`` — the deterministic mode).
    round_interval: float = 1.0
    #: Worker-local admission policy/threshold (the paper's per-shard
    #: gate).
    admission_policy: str = "queue"
    admission_threshold: float = 0.90
    #: Global door threshold over the gossiped cluster-wide ``O_c``;
    #: ``None`` leaves admission entirely to the workers.
    global_threshold: Optional[float] = None
    global_alpha: float = 0.5
    #: Real seconds between occupancy/health polls (0 disables; the
    #: ``gossip`` verb still polls on demand).
    gossip_interval: float = 1.0
    request_timeout: float = 30.0
    drain_timeout: float = 600.0
    workdir: str = "gateway-run"
    spawn: str = "process"
    telemetry: bool = True
    telemetry_obs: str = "deterministic"
    restart_limit: int = 3
    #: Record gateway spans and enable per-worker tracing (each worker
    #: gets a ``trace.json`` in its workdir and answers ``trace_dump``).
    trace: bool = False


def _parse_listen(listen: str) -> tuple[str, int]:
    host, _, port = listen.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad listen address {listen!r}; want host:port")
    return host, int(port)


class WorkerLink:
    """One persistent NDJSON connection from the gateway to a worker."""

    def __init__(self, partition: int, socket_path: str, timeout: float) -> None:
        self.partition = partition
        self.socket_path = socket_path
        self.timeout = timeout
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.lock = asyncio.Lock()
        self.up = False

    async def _connect(self) -> None:
        if self.writer is not None:
            return
        self.reader, self.writer = await asyncio.open_unix_connection(
            self.socket_path, limit=STREAM_LIMIT
        )
        self.up = True

    async def close(self) -> None:
        """Drop the connection (it reopens lazily on the next request)."""
        if self.writer is not None:
            self.writer.close()
            with contextlib.suppress(Exception):
                await self.writer.wait_closed()
        self.reader = None
        self.writer = None
        self.up = False

    async def request(
        self, body: dict[str, Any], timeout: Optional[float] = None
    ) -> dict[str, Any]:
        """One request/response round trip, serialized per worker."""
        timeout = self.timeout if timeout is None else timeout
        async with self.lock:
            try:
                await asyncio.wait_for(self._connect(), timeout)
                assert self.reader is not None and self.writer is not None
                self.writer.write(encode_line(body))
                await self.writer.drain()
                line = await asyncio.wait_for(self.reader.readline(), timeout)
            except Exception:
                await self.close()
                raise
            if not line:
                await self.close()
                raise ConnectionError(
                    f"partition {self.partition} closed the connection"
                )
        return decode_line(line)


#: The gateway's verb handlers (checked against the protocol's table).
_verbs = VerbHandlers(GATEWAY)


class GatewayDaemon:
    """Asyncio shell: listeners + router + gossip/health loop."""

    def __init__(self, config: GatewayConfig, supervisor: WorkerSupervisor) -> None:
        self.config = config
        self.supervisor = supervisor
        self.ring = HashRing(
            range(config.workers),
            replicas=config.ring_replicas,
            seed=config.ring_seed,
        )
        self.board = OccupancyBoard.for_partitions(range(config.workers))
        self.door = GlobalAdmission(
            threshold=config.global_threshold, alpha=config.global_alpha
        )
        self.links = {
            handle.partition: WorkerLink(
                handle.partition, handle.config.socket_path, config.request_timeout
            )
            for handle in supervisor.handles
        }
        #: job_id -> partition, for routing ``status``/``cancel``/
        #: ``history`` on jobs keyed by tenant.
        self._route: dict[str, int] = {}
        self._seq = 0
        self._batches = 0
        self.tracer: Tracer | NullTracer = (
            Tracer() if config.trace else NullTracer()
        )
        #: perf_counter origin for the gateway's own span timestamps.
        self.trace_epoch = time.perf_counter()
        self._submitted_per_partition = {
            p: 0 for p in range(config.workers)
        }
        self._servers: list[asyncio.AbstractServer] = []
        self._gossip_task: Optional[asyncio.Task] = None
        self._client_tasks: set[asyncio.Task] = set()
        self._restarting: set[int] = set()
        self._stop = asyncio.Event()
        self.bound_port: Optional[int] = None
        self._register_metrics()

    def _register_metrics(self) -> None:
        self.registry = MetricsRegistry()
        self._submissions_total = self.registry.counter(
            "gateway_submissions_total",
            "Submissions through the gateway, by admission outcome.",
            labels=("outcome",),
        )
        self._batches_total = self.registry.counter(
            "gateway_batches_total",
            "submit_batch requests accepted by the gateway.",
        )
        self._forward_errors_total = self.registry.counter(
            "gateway_forward_errors_total",
            "Submissions that failed to reach their partition.",
        )
        self._restarts_total = self.registry.counter(
            "gateway_worker_restarts_total",
            "Worker daemons respawned by the supervisor.",
        )
        self._admission_seconds = self.registry.histogram(
            "gateway_admission_seconds",
            "Wall-clock latency of one forwarded admission round trip.",
            buckets=LATENCY_BUCKETS,
        )
        self._partition_overload = self.registry.gauge(
            "gateway_partition_overload",
            "Last gossiped per-partition overload degree O_c.",
            labels=("partition",),
        )
        self._cluster_overload = self.registry.gauge(
            "gateway_cluster_overload",
            "Cluster-wide overload degree aggregated over partitions.",
        )
        self._worker_up = self.registry.gauge(
            "gateway_worker_up",
            "Worker liveness as seen by the health poll (1 = answering).",
            labels=("partition",),
        )
        self._worker_rtt_ms = self.registry.gauge(
            "gateway_worker_rtt_ms",
            "Round-trip latency of the last health ping, milliseconds.",
            labels=("partition",),
        )

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listeners and start the gossip/health loop."""
        handle = functools.partial(_verbs.serve, self, self._client_tasks)
        if self.config.listen:
            host, port = _parse_listen(self.config.listen)
            server = await asyncio.start_server(
                handle, host=host, port=port, limit=STREAM_LIMIT
            )
            self.bound_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        if self.config.socket_path:
            socket_path = Path(self.config.socket_path)
            with contextlib.suppress(FileNotFoundError):
                socket_path.unlink()
            socket_path.parent.mkdir(parents=True, exist_ok=True)
            server = await asyncio.start_unix_server(
                handle, path=str(socket_path), limit=STREAM_LIMIT
            )
            self._servers.append(server)
        if not self._servers:
            raise GatewayError("gateway needs a TCP listen address or a socket path")
        if self.config.gossip_interval > 0:
            self._gossip_task = asyncio.create_task(self._gossip_loop())

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` request (or task cancellation)."""
        await self.start()
        try:
            await self._stop.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Tear down listeners, links, loops, then the workers."""
        self._stop.set()
        if self._gossip_task is not None:
            self._gossip_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._gossip_task
            self._gossip_task = None
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            await asyncio.gather(*self._client_tasks, return_exceptions=True)
            self._client_tasks.clear()
        for link in self.links.values():
            await link.close()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.supervisor.stop)
        if self.config.socket_path:
            with contextlib.suppress(FileNotFoundError):
                Path(self.config.socket_path).unlink()

    # -- gossip / health ---------------------------------------------------

    async def _gossip_loop(self) -> None:
        while not self._stop.is_set():
            await asyncio.sleep(self.config.gossip_interval)
            with contextlib.suppress(asyncio.CancelledError):
                await self.poll_once()

    async def poll_once(self) -> dict[str, Any]:
        """One occupancy/health pass over every partition."""
        poll_timeout = min(5.0, self.config.request_timeout)
        for partition, link in self.links.items():
            label = str(partition)
            start = time.perf_counter()
            try:
                reply = await link.request({"op": "metrics"}, timeout=poll_timeout)
                rtt_ms = (time.perf_counter() - start) * 1000.0
                if not reply.get("ok"):
                    raise ConnectionError(reply.get("error", "metrics failed"))
                metrics = reply.get("result", {})
            except (OSError, ConnectionError, asyncio.TimeoutError, ProtocolError):
                self.board.mark_down(partition)
                self._worker_up.labels(label).set(0.0)
                await self._maybe_restart(partition)
                continue
            self.board.update(
                partition,
                overload_degree=metrics.get("overload_degree", 0.0),
                active_jobs=metrics.get("active_jobs", 0),
                queue_depth=metrics.get("queue_depth", 0),
                admission_queue_depth=metrics.get("admission_queue_depth", 0),
                rtt_ms=rtt_ms,
            )
            self._worker_up.labels(label).set(1.0)
            self._worker_rtt_ms.labels(label).set(rtt_ms)
            self._partition_overload.labels(label).set(
                float(metrics.get("overload_degree", 0.0))
            )
        self._cluster_overload.set(self.board.cluster_overload())
        return self.board.snapshot()

    async def _maybe_restart(self, partition: int) -> None:
        """Respawn a dead worker (process mode) off the event loop."""
        handle = self.supervisor.handle(partition)
        if (
            self.supervisor.spawn != "process"
            or handle.alive()
            or partition in self._restarting
            or handle.restarts >= self.supervisor.restart_limit
        ):
            return
        self._restarting.add(partition)
        try:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.supervisor.restart, partition)
            self._restarts_total.inc()
            await self.links[partition].close()  # reconnect to the new socket
        except GatewayError:
            pass  # the next poll keeps the partition marked down
        finally:
            self._restarting.discard(partition)

    # -- submission routing ------------------------------------------------

    def _assign(self, payload: dict[str, Any]) -> tuple[dict[str, Any], str, int]:
        """Give the payload a job id, a trace id, and pick its partition.

        The trace id is a pure function of ``(seed, tenant, submission
        index)`` — same seed + submission stream, same ids, in line
        with the determinism contract above — and only assigned when
        tracing is on and the client did not send one.
        """
        index = self._seq
        job_id = payload.get("job_id")
        if not job_id:
            job_id = f"gw-{index:07d}"
            payload["job_id"] = job_id
        self._seq += 1
        key = str(payload.get("tenant") or job_id)
        if self.tracer.enabled and not payload.get("trace_id"):
            payload["trace_id"] = derive_trace_id(self.config.seed, key, index)
        return payload, job_id, self.ring.lookup(key)

    def _door_reject(self, job_id: str, partition: int) -> dict[str, Any]:
        self._submissions_total.labels("rejected").inc()
        return {
            "job_id": job_id,
            "status": "rejected",
            "reason": "cluster_overloaded",
            "partition": partition,
            "overload_degree": self.door.tracker.value,
        }

    def _record_outcome(self, partition: int, result: dict[str, Any]) -> None:
        status = result.get("status", "error")
        self._submissions_total.labels(status).inc()
        if status in {"admitted", "queued"}:
            self._route[result["job_id"]] = partition
            self._submitted_per_partition[partition] += 1
        if "overload_degree" in result:
            # Traffic-driven gossip: every response refreshes the board.
            self.board.update(partition, overload_degree=result["overload_degree"])

    @_verbs("submit")
    async def _submit(self, request: Request) -> dict[str, Any]:
        # parse_request already checked the job; route it as sent.
        payload, job_id, partition = self._assign(request.params)
        if self.door.check(self.board) is AdmissionDecision.REJECT:
            return self._door_reject(job_id, partition)
        if self.tracer.enabled and payload.get("trace_id"):
            # The gateway span joins the submission's trace: parented
            # under the caller's span, and re-parenting the worker's
            # admission span under itself.
            trace_id = payload["trace_id"]
            remote = TraceContext.from_wire(request.trace) if request.trace else None
            parent = (
                remote.span_id
                if remote is not None and remote.trace_id == trace_id
                else payload.get("parent_span_id")
            )
            ctx = TraceContext(
                trace_id=trace_id,
                span_id=derive_span_id(trace_id, "gateway.submit"),
                parent_id=parent,
            )
            payload["parent_span_id"] = ctx.span_id
            with self.tracer.span(
                "gateway.submit",
                epoch=self.trace_epoch,
                ctx=ctx,
                job_id=job_id,
                partition=partition,
            ):
                return await self._forward_one(payload, job_id, partition)
        return await self._forward_one(payload, job_id, partition)

    async def _forward_one(
        self, payload: dict[str, Any], job_id: str, partition: int
    ) -> dict[str, Any]:
        start = time.perf_counter()
        try:
            reply = await self.links[partition].request({"op": "submit", **payload})
        except (OSError, ConnectionError, asyncio.TimeoutError) as exc:
            self._forward_errors_total.inc()
            self.board.mark_down(partition)
            return {
                "job_id": job_id,
                "status": "error",
                "error": f"partition {partition} unavailable: {exc}",
                "partition": partition,
            }
        self._admission_seconds.observe(time.perf_counter() - start)
        if not reply.get("ok"):
            self._submissions_total.labels("error").inc()
            return {
                "job_id": job_id,
                "status": "error",
                "error": reply.get("error", "worker error"),
                "partition": partition,
            }
        result = dict(reply["result"])
        result["partition"] = partition
        self._record_outcome(partition, result)
        return result

    @_verbs("submit_batch")
    async def _submit_batch(self, request: Request) -> dict[str, Any]:
        jobs = request.arg("jobs")
        self._batches_total.inc()
        batch_index = self._batches
        self._batches += 1
        batch_ctx: Optional[TraceContext] = None
        if self.tracer.enabled:
            # Batches get their own trace (one per gateway batch seq);
            # per-job traces hang off it via the forward spans.
            batch_trace = derive_trace_id(self.config.seed, "batch", batch_index)
            remote = TraceContext.from_wire(request.trace) if request.trace else None
            batch_ctx = TraceContext(
                trace_id=batch_trace,
                span_id=derive_span_id(batch_trace, "gateway.submit_batch"),
                parent_id=remote.span_id if remote is not None else None,
            )
        results: list[Optional[dict[str, Any]]] = [None] * len(jobs)
        #: partition -> list of (original index, payload)
        groups: dict[int, list[tuple[int, dict[str, Any]]]] = {}
        door_open = self.door.check(self.board) is not AdmissionDecision.REJECT
        for index, raw in enumerate(jobs):
            try:
                check_job(raw)  # in place: the checked dict is forwarded
            except ProtocolError as exc:
                self._submissions_total.labels("error").inc()
                results[index] = {
                    "job_id": raw.get("job_id") if isinstance(raw, dict) else None,
                    "status": "error",
                    "error": str(exc),
                }
                continue
            payload, job_id, partition = self._assign(raw)
            if not door_open:
                results[index] = self._door_reject(job_id, partition)
                continue
            groups.setdefault(partition, []).append((index, payload))

        async def forward(partition: int, items: list[tuple[int, dict[str, Any]]]) -> None:
            body: dict[str, Any] = {
                "op": "submit_batch",
                "jobs": [p for _, p in items],
            }
            if batch_ctx is not None:
                fwd_ctx = TraceContext(
                    trace_id=batch_ctx.trace_id,
                    span_id=derive_span_id(
                        batch_ctx.trace_id, f"gateway.forward:{partition}"
                    ),
                    parent_id=batch_ctx.span_id,
                )
                for _, item_payload in items:
                    item_payload["parent_span_id"] = fwd_ctx.span_id
                body["trace"] = fwd_ctx.to_wire()
                with self.tracer.span(
                    "gateway.forward",
                    epoch=self.trace_epoch,
                    ctx=fwd_ctx,
                    partition=partition,
                    jobs=len(items),
                ):
                    await forward_inner(partition, items, body)
            else:
                await forward_inner(partition, items, body)

        async def forward_inner(
            partition: int,
            items: list[tuple[int, dict[str, Any]]],
            body: dict[str, Any],
        ) -> None:
            def fail(error: str) -> None:
                for index, payload in items:
                    results[index] = {
                        "job_id": payload.get("job_id"),
                        "status": "error",
                        "error": error,
                        "partition": partition,
                    }

            start = time.perf_counter()
            try:
                reply = await self.links[partition].request(body)
            except (OSError, ConnectionError, asyncio.TimeoutError) as exc:
                # Only a transport failure means the partition is gone.
                self._forward_errors_total.inc(len(items))
                self.board.mark_down(partition)
                fail(f"partition {partition} unavailable: {exc}")
                return
            self._admission_seconds.observe(time.perf_counter() - start)
            if not reply.get("ok"):
                # The worker answered: it is up, it refused this batch.
                self._submissions_total.labels("error").inc(len(items))
                fail(str(reply.get("error", "worker error")))
                return
            for (index, _), outcome in zip(items, reply["result"]["results"]):
                outcome = dict(outcome)
                outcome["partition"] = partition
                self._record_outcome(partition, outcome)
                results[index] = outcome

        if batch_ctx is not None:
            with self.tracer.span(
                "gateway.submit_batch",
                epoch=self.trace_epoch,
                ctx=batch_ctx,
                jobs=len(jobs),
                batch=batch_index,
            ):
                await asyncio.gather(
                    *(forward(p, items) for p, items in groups.items())
                )
        else:
            await asyncio.gather(
                *(forward(p, items) for p, items in groups.items())
            )
        final = [r if r is not None else {"status": "error", "error": "dropped"} for r in results]
        return {"results": final, "count": len(final)}

    # -- aggregation -------------------------------------------------------

    async def _fanout(
        self, body: dict[str, Any], timeout: Optional[float] = None
    ) -> dict[int, dict[str, Any]]:
        """Send one request to every partition; collect per-partition replies."""

        async def one(partition: int, link: WorkerLink) -> tuple[int, dict[str, Any]]:
            try:
                reply = await link.request(dict(body), timeout=timeout)
            except (OSError, ConnectionError, asyncio.TimeoutError) as exc:
                self.board.mark_down(partition)
                return partition, {"error": str(exc)}
            if not reply.get("ok"):
                return partition, {"error": reply.get("error", "worker error")}
            return partition, reply.get("result", {})

        pairs = await asyncio.gather(
            *(one(p, link) for p, link in self.links.items())
        )
        return dict(pairs)

    @_verbs("metrics")
    async def _metrics(self, request: Request) -> dict[str, Any]:
        per_partition = await self._fanout({"op": "metrics"})
        partitions: dict[str, Any] = {}
        live = []
        totals = {
            "active_jobs": 0,
            "queue_depth": 0,
            "admission_queue_depth": 0,
            "jobs_completed": 0,
        }
        for partition in sorted(per_partition):
            metrics = per_partition[partition]
            entry = dict(metrics)
            entry["jobs_submitted"] = self._submitted_per_partition.get(partition, 0)
            partitions[str(partition)] = entry
            if "error" in metrics:
                continue
            live.append(metrics.get("overload_degree", 0.0))
            totals["active_jobs"] += metrics.get("active_jobs", 0)
            totals["queue_depth"] += metrics.get("queue_depth", 0)
            totals["admission_queue_depth"] += metrics.get(
                "admission_queue_depth", 0
            )
            totals["jobs_completed"] += int(
                metrics.get("summary", {}).get("jobs", 0)
            )
            self.board.update(
                partition,
                overload_degree=metrics.get("overload_degree", 0.0),
                active_jobs=metrics.get("active_jobs", 0),
                queue_depth=metrics.get("queue_depth", 0),
                admission_queue_depth=metrics.get("admission_queue_depth", 0),
            )
        cluster = {
            "overload_degree": sum(live) / len(live) if live else 0.0,
            "overload_smoothed": self.door.tracker.value,
            "jobs_submitted": sum(self._submitted_per_partition.values()),
            **totals,
        }
        return {
            "role": "gateway",
            "partitions": partitions,
            "cluster": cluster,
            "gossip": self.board.snapshot(),
            "gateway": self.registry.scalar_snapshot(),
        }

    @_verbs("status")
    async def _status(self, request: Request) -> dict[str, Any]:
        job_id = request.arg("job_id")
        if job_id is not None:
            partition, result = await self._ask_owner("status", job_id)
            return {**result, "partition": partition}
        per_partition = await self._fanout({"op": "metrics"})
        partitions = {}
        for partition in sorted(per_partition):
            metrics = per_partition[partition]
            if "error" in metrics:
                partitions[str(partition)] = {"error": metrics["error"]}
                continue
            partitions[str(partition)] = {
                "round": metrics.get("round", 0),
                "sim_time": metrics.get("sim_time", 0.0),
                "active_jobs": metrics.get("active_jobs", 0),
                "queue_depth": metrics.get("queue_depth", 0),
                "admission_queue_depth": metrics.get("admission_queue_depth", 0),
                "overload_degree": metrics.get("overload_degree", 0.0),
                "jobs_submitted": self._submitted_per_partition.get(partition, 0),
            }
        alive = [m for m in per_partition.values() if "error" not in m]
        return {
            "role": "gateway",
            "partitions": partitions,
            "cluster": {
                "overload_degree": (
                    sum(m.get("overload_degree", 0.0) for m in alive) / len(alive)
                    if alive
                    else 0.0
                ),
                "active_jobs": sum(m.get("active_jobs", 0) for m in alive),
                "queue_depth": sum(m.get("queue_depth", 0) for m in alive),
                "admission_queue_depth": sum(
                    m.get("admission_queue_depth", 0) for m in alive
                ),
                "jobs_submitted": sum(self._submitted_per_partition.values()),
            },
        }

    @_verbs("metrics_text")
    async def _metrics_text(self, request: Request) -> dict[str, Any]:
        """Every worker's Prometheus exposure merged with the gateway's.

        Samples are tagged ``worker="gateway"`` / ``worker="<partition>"``;
        ``# HELP``/``# TYPE`` appear once per family and families are in
        sorted-name order (:func:`repro.obs.promtext.merge_metrics_text`).
        """
        per_partition = await self._fanout({"op": "metrics_text"})
        sources: dict[str, str] = {"gateway": self.registry.render_text()}
        for partition in sorted(per_partition):
            result = per_partition[partition]
            if "error" not in result:
                sources[str(partition)] = str(result.get("text", ""))
        return {"text": merge_metrics_text(sources, label="worker")}

    @_verbs("trace_dump")
    async def _trace_dump(self, request: Request) -> dict[str, Any]:
        """The cluster-wide collector behind the ``trace_dump`` verb.

        Fans out to every worker, merges their span dumps with the
        gateway's own into one Chrome-trace document (one pid lane per
        process).  ``deterministic`` re-keys timestamps onto the
        canonical span order so two same-seed runs dump byte-identical
        documents; ``reset`` clears stored spans everywhere after
        dumping.
        """
        reset = request.arg("reset")
        per_partition = await self._fanout({"op": "trace_dump", "reset": reset})
        processes = [
            ProcessTrace(
                name="gateway",
                events=[record.to_dict() for record in self.tracer.events],
                dropped=self.tracer.dropped,
            )
        ]
        errors: dict[str, str] = {}
        for partition in sorted(per_partition):
            result = per_partition[partition]
            if "error" in result:
                errors[str(partition)] = str(result["error"])
                continue
            processes.append(
                ProcessTrace.from_dump(f"worker-{partition:02d}", result)
            )
        if reset and self.tracer.enabled:
            self.tracer.events = []
        doc = merge_chrome_traces(processes, deterministic=request.arg("deterministic"))
        out: dict[str, Any] = {
            "trace": doc,
            "processes": [p.name for p in processes],
            "enabled": self.tracer.enabled,
        }
        if errors:
            out["errors"] = errors
        return out

    # -- request handling --------------------------------------------------

    @_verbs("ping")
    async def _ping(self, request: Request) -> dict[str, Any]:
        statuses = self.supervisor.statuses()
        return {
            "pong": True,
            "role": "gateway",
            "workers": {
                "total": len(statuses),
                "up": sum(1 for s in statuses if s["alive"]),
            },
        }

    @_verbs("workers")
    async def _workers(self, request: Request) -> dict[str, Any]:
        rows = []
        for status in self.supervisor.statuses():
            sample = self.board.partitions.get(status["partition"])
            rows.append(
                {
                    **status,
                    "answering": bool(sample and sample.alive),
                    "rtt_ms": sample.rtt_ms if sample else 0.0,
                }
            )
        return {"workers": rows}

    @_verbs("gossip")
    async def _gossip(self, request: Request) -> dict[str, Any]:
        return await self.poll_once()

    async def _ask_owner(self, op: str, job_id: str) -> tuple[int, dict[str, Any]]:
        """Send a job's verb to the partition that owns it."""
        partition = self._route.get(job_id)
        if partition is None:
            partition = self.ring.lookup(job_id)
        reply = await self.links[partition].request({"op": op, "job_id": job_id})
        if not reply.get("ok"):
            raise ProtocolError(reply.get("error", f"{op} failed for {job_id!r}"))
        return partition, dict(reply["result"])

    @_verbs("cancel")
    async def _cancel(self, request: Request) -> dict[str, Any]:
        partition, result = await self._ask_owner("cancel", request.arg("job_id"))
        return {**result, "partition": partition}

    @_verbs("history")
    async def _history(self, request: Request) -> dict[str, Any]:
        _, result = await self._ask_owner("history", request.arg("job_id"))
        return result

    @_verbs("step")
    async def _step(self, request: Request) -> dict[str, Any]:
        # Every partition steps by the same request: ``until`` advances
        # each clock to the same bound, while ``events`` and ``rounds``
        # count per partition (a global budget would make progress
        # depend on fan-out ordering).
        per_partition = await self._fanout({"op": "step", **request.params})
        return {"partitions": {str(p): r for p, r in sorted(per_partition.items())}}

    @_verbs("drain")
    async def _drain(self, request: Request) -> dict[str, Any]:
        per_partition = await self._fanout(
            {"op": "drain", "max_rounds": request.arg("max_rounds")},
            timeout=self.config.drain_timeout,
        )
        idle = all(
            r.get("idle", False) for r in per_partition.values() if "error" not in r
        )
        return {
            "idle": idle,
            "partitions": {str(p): r for p, r in sorted(per_partition.items())},
        }

    @_verbs("shutdown")
    async def _shutdown(self, request: Request) -> dict[str, Any]:
        self._stop.set()
        return {"stopping": True}


_verbs.complete()


def gateway_worker_configs(config: GatewayConfig):
    """The per-partition worker :class:`ServiceConfig` list for ``config``."""
    return worker_service_configs(
        config.workers,
        config.workdir,
        scheduler=config.scheduler,
        servers_per_worker=config.servers_per_worker,
        gpus_per_server=config.gpus_per_server,
        tick_seconds=config.tick_seconds,
        seed=config.seed,
        round_interval=config.round_interval,
        admission_policy=config.admission_policy,
        admission_threshold=config.admission_threshold,
        telemetry=config.telemetry,
        telemetry_obs=config.telemetry_obs,
        trace=config.trace,
    )


def build_supervisor(config: GatewayConfig) -> WorkerSupervisor:
    """A supervisor over the gateway's partition workers."""
    return WorkerSupervisor(
        gateway_worker_configs(config),
        spawn=config.spawn,
        restart_limit=config.restart_limit,
    )


async def run_gateway(config: GatewayConfig) -> None:
    """Spawn the workers, then run the gateway until shutdown."""
    supervisor = build_supervisor(config)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, supervisor.start)
    daemon = GatewayDaemon(config, supervisor)
    installed: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            loop.add_signal_handler(sig, daemon._stop.set)
            installed.append(sig)
    try:
        await daemon.serve_forever()
    finally:
        for sig in installed:
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                loop.remove_signal_handler(sig)


class ThreadedGateway:
    """Runs workers + gateway on background threads (tests, benchmarks).

    Usage::

        with ThreadedGateway(GatewayConfig(workers=4, spawn="thread")) as gw:
            client = ServiceClient(gw.target)
            ...
    """

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        self.daemon: Optional[GatewayDaemon] = None
        self.supervisor: Optional[WorkerSupervisor] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        """The bound TCP port (after ``__enter__``)."""
        assert self.daemon is not None and self.daemon.bound_port is not None
        return self.daemon.bound_port

    @property
    def target(self) -> str:
        """A client target string for this gateway."""
        if self.daemon is not None and self.daemon.bound_port is not None:
            host, _ = _parse_listen(self.config.listen or "127.0.0.1:0")
            return f"{host}:{self.daemon.bound_port}"
        assert self.config.socket_path is not None
        return self.config.socket_path

    def __enter__(self) -> "ThreadedGateway":
        # Workers first (blocking, with retry-ping readiness); the
        # gateway loop then connects lazily per request.
        self.supervisor = build_supervisor(self.config)
        self.supervisor.start()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            self.supervisor.stop()
            raise GatewayError("gateway failed to start within 30s")
        if self._startup_error is not None:
            raise GatewayError("gateway failed to start") from self._startup_error
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self.daemon is not None:
            # Tolerate a loop already closed by a ``shutdown`` verb.
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.daemon._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=60.0)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        assert self.supervisor is not None
        self.daemon = GatewayDaemon(self.config, self.supervisor)
        self._loop = asyncio.get_running_loop()
        try:
            await self.daemon.start()
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            await self.daemon._stop.wait()
        finally:
            await self.daemon.stop()
