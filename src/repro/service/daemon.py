"""The scheduler daemon: a long-running online MLFS service.

Two layers:

* :class:`SchedulerService` — the synchronous core.  Owns the stepping
  :class:`~repro.sim.engine.SimulationEngine`, the admission controller,
  the telemetry exporter and the snapshot manager.  Every verb of the
  wire protocol maps to one method; it is fully deterministic given the
  same sequence of (submission, round) operations, which is what the
  snapshot/restore test leans on.
* :class:`SchedulerDaemon` — the asyncio shell.  Listens on a Unix
  domain socket, speaks newline-delimited JSON
  (:mod:`repro.service.protocol`), and drives one scheduler round every
  ``round_interval`` wall-clock seconds (the paper's "scheduler runs
  every minute" with the wall clock decoupled from the simulated one).

The daemon advances *simulated* time ``tick_seconds`` per round; real
time only paces how often rounds fire, so tests and demos can run with a
millisecond ``round_interval`` while preserving the paper's 60-second
scheduling quantum.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import random
import signal
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.cluster.cluster import Cluster, infeasible_reason
from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_KINDS, FaultEvent, load_plan
from repro.schedulers import scheduler_by_name
from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.service.protocol import (
    DAEMON,
    STREAM_LIMIT,
    JobSpec,
    ProtocolError,
    Request,
    VerbHandlers,
    check_job,
)
from repro.obs.observer import Observer
from repro.obs.tracectx import TraceContext, derive_span_id, trace_context
from repro.obs.tracing import NullTracer, Tracer
from repro.service.snapshot import SnapshotManager
from repro.service.telemetry import (
    RunningJctStats,
    TelemetryExporter,
    pass_record,
)
from repro.sim.engine import EngineConfig, PassResult, SimulationEngine
from repro.sim.interface import Scheduler
from repro.workload.dag import MIN_WORKER_GPU
from repro.workload.generator import WorkloadConfig, build_job, min_workers
from repro.workload.job import Job
from repro.workload.trace import TraceRecord

#: Metric families whose values derive from the wall clock; dropped
#: from telemetry records under ``telemetry_obs="deterministic"``.
WALL_CLOCK_FAMILIES = ("mlfs_scheduler_phase_seconds",)


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon parameterization (CLI flags map 1:1 onto these)."""

    socket_path: str = "repro-service.sock"
    scheduler: str = "MLF-H"
    servers: int = 8
    gpus_per_server: int = 4
    tick_seconds: float = 60.0
    seed: int = 0
    admission_policy: str = "queue"
    admission_threshold: float = 0.90
    admission_alpha: float = 0.5
    admission_queue_limit: int = 1024
    snapshot_dir: Optional[str] = None
    snapshot_every: int = 10
    snapshot_keep: int = 5
    telemetry_path: Optional[str] = None
    #: Chrome-trace output for the scheduler-phase spans; ``None``
    #: keeps tracing off (metrics and timelines stay on regardless).
    trace_path: Optional[str] = None
    #: Override of the MLF family's heuristic→RL switch threshold.
    rl_switch_decisions: Optional[int] = None
    #: Real seconds between automatic rounds; 0 disables the round loop
    #: (rounds then advance only through ``drain``).
    round_interval: float = 1.0
    #: Run the invariant sanitizer (:mod:`repro.check.sanitize`) after
    #: every round.  ``None`` defers to the ``REPRO_SANITIZE`` switch.
    sanitize: Optional[bool] = None
    #: JSON :class:`~repro.faults.plan.FaultPlan` to execute
    #: (``serve --faults``).  ``None`` starts with an empty plan; the
    #: ``faultctl`` verb can still inject faults at runtime.
    faults_path: Optional[str] = None
    #: What of the metrics registry each telemetry record embeds:
    #: ``"full"`` (everything), ``"deterministic"`` (drop wall-clock
    #: families so same-seed runs emit bit-identical JSONL — the
    #: gateway's per-partition determinism contract), or ``"none"``.
    telemetry_obs: str = "full"
    #: Scheduling-pass cadence of the embedded engine: ``"fixed"`` (a
    #: pass every ``tick_seconds``) or ``"event"`` (passes park while
    #: provably no-op).  Telemetry is the v2 ``pass_record`` either way.
    pass_policy: str = "fixed"


class SchedulerService:
    """Synchronous service core: engine + admission + telemetry + snapshots."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        cluster = Cluster.build(self.config.servers, self.config.gpus_per_server)
        if scheduler is None:
            scheduler = scheduler_by_name(
                self.config.scheduler,
                rl_switch_decisions=self.config.rl_switch_decisions,
            )
        self.observer = Observer(
            tracer=Tracer() if self.config.trace_path else NullTracer()
        )
        # Always carry an injector: an idle one is bit-identical to no
        # fault layer, and faultctl needs somewhere to queue runtime
        # events.  It snapshots (pickles) with the service core.
        self.fault_injector = FaultInjector(
            load_plan(self.config.faults_path) if self.config.faults_path else None
        )
        self.engine = SimulationEngine(
            scheduler=scheduler,
            jobs=[],
            cluster=cluster,
            config=EngineConfig(
                tick_seconds=self.config.tick_seconds,
                seed=self.config.seed,
                max_time=float("inf"),
                pass_policy=self.config.pass_policy,
            ),
            observer=self.observer,
            sanitize=self.config.sanitize,
            faults=self.fault_injector,
        )
        self.admission = AdmissionController(
            threshold=self.config.admission_threshold,
            policy=AdmissionPolicy(self.config.admission_policy),
            queue_limit=self.config.admission_queue_limit,
            alpha=self.config.admission_alpha,
        )
        self.telemetry = TelemetryExporter(
            path=Path(self.config.telemetry_path)
            if self.config.telemetry_path
            else None
        )
        self.snapshots = (
            SnapshotManager(Path(self.config.snapshot_dir), keep=self.config.snapshot_keep)
            if self.config.snapshot_dir
            else None
        )
        self._workload_rng = random.Random(self.config.seed)
        self._workload_config = WorkloadConfig()
        #: job_id -> {"spec": JobSpec, "job": Job|None, "state": str}
        self._registry: dict[str, dict[str, Any]] = {}
        self._submissions = 0
        self._jct_stats = RunningJctStats()
        self._register_service_metrics()
        self.draining = False

    def _register_service_metrics(self) -> None:
        registry = self.observer.registry
        self._submissions_total = registry.counter(
            "mlfs_service_submissions_total",
            "Job submissions received, by admission outcome.",
            labels=("outcome",),
        )
        self._admission_queue_gauge = registry.gauge(
            "mlfs_admission_queue_depth",
            "Jobs parked by the admission controller.",
        )
        self._overload_smoothed_gauge = registry.gauge(
            "mlfs_overload_smoothed",
            "EWMA-smoothed overload degree the admission controller sees.",
        )

    # -- construction / restore -------------------------------------------

    @classmethod
    def restore(
        cls, snapshot_dir: str | Path, path: Optional[Path] = None
    ) -> "SchedulerService":
        """Rebuild a service core from the newest (or given) snapshot."""
        manager = SnapshotManager(Path(snapshot_dir))
        core = manager.load(path)
        if not isinstance(core, cls):
            raise TypeError(f"snapshot does not contain a {cls.__name__}")
        # The restored core keeps writing snapshots to the same ring.
        core.snapshots = manager
        # A restart reopens admissions: a drain that preceded the
        # snapshot must not leave the revived daemon refusing work.
        core.draining = False
        # Snapshots predating the fault layer carry no injector.
        if not hasattr(core, "fault_injector"):
            core.fault_injector = core.engine.faults or FaultInjector()
            core.engine.faults = core.fault_injector
        return core

    # -- verbs -------------------------------------------------------------

    def submit(self, spec: JobSpec) -> dict[str, Any]:
        """Admit, queue, or reject one submission.

        Traced submissions (``spec.trace_id`` set, tracing on) record a
        ``worker.admission`` span parented under the sender's span and
        echo ``trace_id`` in the result.
        """
        if spec.trace_id is None or not self.observer.tracer.enabled:
            return self._submit(spec)
        ctx = TraceContext(
            trace_id=spec.trace_id,
            span_id=derive_span_id(spec.trace_id, "worker.admission"),
            parent_id=spec.parent_span_id,
        )
        with trace_context(ctx):
            with self.observer.span("worker.admission", job_id=spec.job_id):
                result = self._submit(spec)
        result["trace_id"] = spec.trace_id
        return result

    def _submit(self, spec: JobSpec) -> dict[str, Any]:
        if self.draining:
            self._submissions_total.labels("rejected").inc()
            return {"job_id": spec.job_id, "status": "rejected", "reason": "draining"}
        job_id = spec.job_id or f"svc-{self._submissions:05d}"
        if job_id in self._registry:
            raise ProtocolError(f"duplicate job_id {job_id!r}")
        self._submissions += 1
        reason = self._oversize_reason(spec)
        if reason is None:
            job = self._build_job(job_id, spec)
            reason = infeasible_reason(
                job.tasks, self.engine.capacity, self.engine.config.overload_threshold
            )
        if reason is not None:
            self._registry[job_id] = {"spec": spec, "job": None, "state": "rejected"}
            self._submissions_total.labels("rejected").inc()
            self.engine.reject_job(job_id, reason)
            return {"job_id": job_id, "status": "rejected", "reason": reason}
        decision = self.admission.check(self.engine.cluster)
        entry = {"spec": spec, "job": job, "state": decision.value}
        self._registry[job_id] = entry
        self._submissions_total.labels(decision.value).inc()
        self.observer.job_event(
            job_id,
            "admission",
            self.engine.now,
            round_index=self.engine.pass_index,
            detail=decision.value,
            model=spec.model_name,
            **({"trace_id": spec.trace_id} if spec.trace_id else {}),
        )
        if decision is AdmissionDecision.ADMIT:
            self.engine.inject_job(job)
            entry["state"] = "active"
        elif decision is AdmissionDecision.QUEUE:
            self.admission.park(job_id)
        return {
            "job_id": job_id,
            "status": decision.value,
            "overload_degree": self.admission.tracker.value,
        }

    def submit_batch(self, payloads: list[Any]) -> dict[str, Any]:
        """Admit/queue/reject a batch; one bad job fails only its slot.

        Each job is checked (types and domain) before it is built, so a
        bad slot never fails the batch after earlier slots were admitted.
        """
        results: list[dict[str, Any]] = []
        for payload in payloads:
            try:
                results.append(self.submit(JobSpec(**check_job(payload))))
            except ProtocolError as exc:
                results.append(
                    {
                        "job_id": payload.get("job_id") if isinstance(payload, dict) else None,
                        "status": "error",
                        "error": str(exc),
                    }
                )
        return {"results": results, "count": len(results)}

    def advance_round(self, until: Optional[float] = None) -> PassResult:
        """Run one scheduler pass; release parked work; emit telemetry.

        ``until`` bounds the pass to events at or before that sim time
        (the ``step until=`` path); ``None`` keeps the legacy
        one-pass-per-call behaviour.
        """
        result = self.engine.advance(until=until)
        released = self.admission.release(self.engine.cluster)
        for job_id in released:
            entry = self._registry[job_id]
            self.engine.inject_job(entry["job"])
            entry["state"] = "active"
        self._admission_queue_gauge.set(self.admission.queue_depth)
        self._overload_smoothed_gauge.set(self.admission.tracker.value)
        if result.ticked or result.events_processed:
            record = pass_record(
                result,
                self.engine.metrics,
                admission_queue_depth=self.admission.queue_depth,
                overload_smoothed=self.admission.tracker.value,
                jct_stats=self._jct_stats,
            )
            obs_mode = getattr(self.config, "telemetry_obs", "full")
            if obs_mode != "none":
                snapshot = self.observer.registry.scalar_snapshot()
                if obs_mode == "deterministic":
                    snapshot = {
                        key: value
                        for key, value in snapshot.items()
                        if not key.startswith(WALL_CLOCK_FAMILIES)
                    }
                record["obs"] = snapshot
            self.telemetry.emit(record)
        if (
            self.snapshots is not None
            and self.config.snapshot_every > 0
            and result.ticked
            and self.engine.pass_index % self.config.snapshot_every == 0
        ):
            self.snapshot_now()
        return result

    def drain(self, max_rounds: int = 100_000) -> dict[str, Any]:
        """Stop admitting; run rounds until all work completes."""
        rounds = sum(1 for _ in self.drain_rounds(max_rounds))
        return {"rounds": rounds, "idle": self.idle, **self.metrics()}

    def drain_rounds(self, max_rounds: int = 100_000) -> Iterator[PassResult]:
        """Stop admitting; yield each round until all work completes.

        The engine is finalized once the generator is exhausted.
        """
        self.draining = True
        rounds = 0
        while rounds < max_rounds and not self.idle:
            result = self.advance_round()
            rounds += 1
            yield result
            if result.events_processed == 0 and self.admission.queue_depth == 0:
                break
        self.engine.finalize()

    def passes_until(
        self, until: float, max_passes: int = 100_000
    ) -> Iterator[PassResult]:
        """Yield scheduling passes until the sim clock reaches ``until``.

        Each yield is one :meth:`advance_round` bounded to ``until``
        (telemetry and admission release run per pass as usual).  When
        the generator is exhausted the clock stands exactly at
        ``until`` even if no event lay that far out
        (:meth:`SimulationEngine.fast_forward`).  The loop stops early
        once a pass makes no progress — no events under the bound and
        nothing released from the admission queue.
        """
        passes = 0
        while self.engine.now < until and passes < max_passes:
            depth_before = self.admission.queue_depth
            result = self.advance_round(until=until)
            passes += 1
            yield result
            if (
                result.events_processed == 0
                and self.admission.queue_depth >= depth_before
            ):
                break
        self.engine.fast_forward(until)

    def passes_for_events(
        self, events: int, max_passes: int = 100_000
    ) -> Iterator[PassResult]:
        """Yield scheduling passes until ``events`` events processed.

        The cumulative ``events_processed`` across yielded passes
        reaches at least ``events`` unless the engine runs dry first
        (same no-progress stop rule as :meth:`passes_until`).
        """
        target = max(1, events)
        processed = 0
        passes = 0
        while processed < target and passes < max_passes:
            depth_before = self.admission.queue_depth
            result = self.advance_round()
            passes += 1
            processed += result.events_processed
            yield result
            if (
                result.events_processed == 0
                and self.admission.queue_depth >= depth_before
            ):
                break

    def status(self, job_id: Optional[str] = None) -> dict[str, Any]:
        """Status of one job or of every known job."""
        if job_id is not None:
            entry = self._registry.get(job_id)
            if entry is None:
                raise ProtocolError(f"unknown job {job_id!r}")
            return self._job_status(job_id, entry)
        return {
            "jobs": [self._job_status(jid, e) for jid, e in self._registry.items()],
            "round": self.engine.pass_index,
            "sim_time": self.engine.now,
            "pass_policy": self.engine.config.pass_policy,
            "parked": self.engine.parked,
        }

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a parked or active job."""
        entry = self._registry.get(job_id)
        if entry is None:
            raise ProtocolError(f"unknown job {job_id!r}")
        if entry["state"] == "queued" and self.admission.withdraw(job_id):
            entry["state"] = "cancelled"
        elif entry["state"] == "active" and self.engine.cancel_job(job_id):
            entry["state"] = "cancelled"
        else:
            raise ProtocolError(f"job {job_id!r} is {entry['state']}; cannot cancel")
        return {"job_id": job_id, "status": "cancelled"}

    def metrics_text(self) -> str:
        """The metrics registry in Prometheus text exposition format."""
        return self.observer.registry.render_text()

    def history(self, job_id: str) -> dict[str, Any]:
        """A job's event timeline (admission → … → completed)."""
        if job_id not in self._registry and job_id not in self.observer.timeline:
            raise ProtocolError(f"unknown job {job_id!r}")
        return {
            "job_id": job_id,
            "events": self.observer.timeline.history(job_id),
        }

    def metrics(self) -> dict[str, Any]:
        """Engine/cluster metrics snapshot."""
        return {
            "round": self.engine.pass_index,
            "sim_time": self.engine.now,
            "queue_depth": len(self.engine.queue),
            "admission_queue_depth": self.admission.queue_depth,
            "active_jobs": len(self.engine.active_jobs),
            "overload_degree": self.engine.cluster.overload_degree(),
            "overload_smoothed": self.admission.tracker.value,
            "failed_servers": len(self.engine.cluster.failed_servers()),
            "draining": self.draining,
            "summary": self.engine.metrics.summary(),
        }

    def faultctl(
        self,
        action: str,
        server_id: Optional[int] = None,
        gpu_id: Optional[int] = None,
        slowdown: float = 3.0,
    ) -> dict[str, Any]:
        """Inspect or drive fault injection on the live daemon.

        ``action="status"`` reports the current fault state; any
        :data:`~repro.faults.plan.FAULT_KINDS` action queues a runtime
        :class:`~repro.faults.plan.FaultEvent` that the engine applies
        at its next tick's fault phase (never mid-verb, so snapshots
        and replays stay deterministic).
        """
        cluster = self.engine.cluster
        if action == "status":
            return {
                "failed_servers": [s.server_id for s in cluster.failed_servers()],
                "failed_gpus": [
                    [server.server_id, gpu.gpu_id]
                    for server in cluster.servers
                    for gpu in server.gpus
                    if gpu.failed
                ],
                **self.fault_injector.state(),
            }
        if action not in FAULT_KINDS:
            known = ", ".join(sorted(FAULT_KINDS))
            raise ProtocolError(
                f"unknown faultctl action {action!r}; choose status or one of: {known}"
            )
        if server_id is None:
            raise ProtocolError(f"faultctl {action} requires server_id")
        if not 0 <= server_id < len(cluster.servers):
            raise ProtocolError(f"no server {server_id}")
        try:
            event = FaultEvent(
                round_index=self.engine.pass_index + 1,
                kind=action,
                server_id=server_id,
                gpu_id=gpu_id,
                slowdown=slowdown,
            )
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        self.fault_injector.inject(event)
        return {
            "queued": event.to_json(),
            "applies_at_round": self.engine.pass_index + 1,
        }

    def trace_dump(self, reset: bool = False) -> dict[str, Any]:
        """The tracer's spans in collector wire form (``trace_dump``).

        ``reset`` clears the stored spans after dumping (the ``seq``
        counter keeps counting) so repeated dumps stream increments.
        """
        dump = self.observer.tracer.dump(role="daemon", reset=reset)
        dump["seed"] = self.config.seed
        dump["enabled"] = self.observer.tracer.enabled
        return dump

    def snapshot_now(self) -> Optional[str]:
        """Persist a snapshot immediately; returns its path."""
        if self.snapshots is None:
            return None
        path = self.snapshots.save(
            self, round_index=self.engine.pass_index, sim_time=self.engine.now
        )
        return str(path)

    @property
    def idle(self) -> bool:
        """Nothing active, nothing pending anywhere."""
        return self.engine.is_drained and self.admission.queue_depth == 0

    def close(self) -> None:
        """Release file handles (telemetry) and flush the trace."""
        self.telemetry.close()
        if self.config.trace_path and self.observer.tracer.enabled:
            self.observer.tracer.write(Path(self.config.trace_path))

    # -- internals ---------------------------------------------------------

    def _oversize_reason(self, spec: JobSpec) -> Optional[str]:
        """The GPU rejection of a job too large to build, or ``None``.

        A job has at least :func:`min_workers` workers demanding at least
        :data:`MIN_WORKER_GPU` each, so past the fleet's GPU limit
        :func:`infeasible_reason` would reject the built job on GPU.
        """
        least = MIN_WORKER_GPU * min_workers(spec.model_name, spec.gpus_requested)
        limit = self.engine.config.overload_threshold * self.engine.capacity[0].gpu
        if least > limit + 1e-9:
            return f"infeasible: gpu {round(least, 3)} > {round(limit, 3)}"
        return None

    def _build_job(self, job_id: str, spec: JobSpec) -> Job:
        """Job construction mirrors the batch path (trace record → job).

        Deadlines anchor at submission time; a stint in the admission
        queue eats into the job's slack, exactly as in a real cluster.
        """
        record = TraceRecord(
            job_id=job_id,
            arrival_time=self.engine.now,
            gpus_requested=spec.gpus_requested,
            model_name=spec.model_name,
            max_iterations=spec.max_iterations,
            accuracy_requirement=spec.accuracy_requirement,
            urgency=spec.urgency,
            training_data_mb=spec.training_data_mb,
        )
        return build_job(record, self._workload_rng, self._workload_config)

    def _job_status(self, job_id: str, entry: dict[str, Any]) -> dict[str, Any]:
        job: Optional[Job] = entry["job"]
        status: dict[str, Any] = {
            "job_id": job_id,
            "state": entry["state"],
            "model": entry["spec"].model_name,
            "gpus_requested": entry["spec"].gpus_requested,
        }
        if job is None:
            return status
        if entry["state"] == "active":
            if job.is_complete:
                entry["state"] = "completed"
                status["state"] = "completed"
            else:
                status["state"] = "running" if job.placed_tasks() else "waiting"
        status.update(
            arrival_time=job.arrival_time,
            iterations_completed=job.iterations_completed,
            max_iterations=job.max_iterations,
            placed_tasks=len(job.placed_tasks()),
            completion_time=job.completion_time,
            jct=job.jct(),
            met_deadline=job.met_deadline(),
            final_accuracy=job.final_accuracy,
            num_migrations=sum(t.num_migrations for t in job.tasks),
        )
        return status

    # The asyncio shell and file handles never travel into snapshots.
    def __getstate__(self) -> dict[str, Any]:
        return dict(self.__dict__)


#: The daemon's verb handlers (checked against the protocol's table).
_verbs = VerbHandlers(DAEMON)


class SchedulerDaemon:
    """Asyncio shell: socket server + periodic round loop."""

    def __init__(self, core: SchedulerService) -> None:
        self.core = core
        self._server: Optional[asyncio.AbstractServer] = None
        self._round_task: Optional[asyncio.Task] = None
        self._client_tasks: set[asyncio.Task] = set()
        self._stop = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the round loop."""
        socket_path = Path(self.core.config.socket_path)
        with contextlib.suppress(FileNotFoundError):
            socket_path.unlink()
        socket_path.parent.mkdir(parents=True, exist_ok=True)
        self._server = await asyncio.start_unix_server(
            functools.partial(_verbs.serve, self, self._client_tasks),
            path=str(socket_path),
            limit=STREAM_LIMIT,
        )
        if self.core.config.round_interval > 0:
            self._round_task = asyncio.create_task(self._round_loop())

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` request (or task cancellation)."""
        await self.start()
        try:
            await self._stop.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Tear down the socket, the round loop, and the core's handles."""
        self._stop.set()
        if self._round_task is not None:
            self._round_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._round_task
            self._round_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            await asyncio.gather(*self._client_tasks, return_exceptions=True)
            self._client_tasks.clear()
        # The final snapshot pickles the whole core and close() flushes
        # telemetry/trace files — seconds of disk I/O on a large run.
        # Off-loop so a supervising gateway's health polls (and any
        # sibling daemons sharing the loop in thread mode) never stall
        # behind this daemon's shutdown.
        await asyncio.to_thread(self._flush_core)
        with contextlib.suppress(FileNotFoundError):
            Path(self.core.config.socket_path).unlink()

    def _flush_core(self) -> None:
        """Final snapshot + handle teardown (runs off the event loop)."""
        if self.core.snapshots is not None:
            self.core.snapshot_now()
        self.core.close()

    async def _round_loop(self) -> None:
        while not self._stop.is_set():
            await asyncio.sleep(self.core.config.round_interval)
            # Pending faultctl events must tick even on a drained
            # cluster, so e.g. a crash injected while idle marks the
            # server failed before the next job arrives.
            if (
                not self.core.engine.is_drained
                or self.core.admission.queue_depth
                or self.core.fault_injector.pending
            ):
                self.core.advance_round()

    # -- request handling --------------------------------------------------

    @_verbs("ping")
    async def _ping(self, request: Request) -> dict[str, Any]:
        return {"pong": True, "role": "daemon", "round": self.core.engine.pass_index}

    @_verbs("submit")
    async def _submit(self, request: Request) -> dict[str, Any]:
        return self.core.submit(JobSpec(**request.params))

    @_verbs("submit_batch")
    async def _submit_batch(self, request: Request) -> dict[str, Any]:
        jobs = request.arg("jobs")
        ctx = self._request_trace(request, "worker.submit_batch")
        if ctx is None:
            return self.core.submit_batch(jobs)
        with trace_context(ctx):
            with self.core.observer.span("worker.submit_batch", jobs=len(jobs)):
                return self.core.submit_batch(jobs)

    @_verbs("status")
    async def _status(self, request: Request) -> dict[str, Any]:
        return self.core.status(request.arg("job_id"))

    @_verbs("cancel")
    async def _cancel(self, request: Request) -> dict[str, Any]:
        return self.core.cancel(request.arg("job_id"))

    @_verbs("metrics")
    async def _metrics(self, request: Request) -> dict[str, Any]:
        return self.core.metrics()

    @_verbs("metrics_text")
    async def _metrics_text(self, request: Request) -> dict[str, Any]:
        return {"text": self.core.metrics_text()}

    @_verbs("history")
    async def _history(self, request: Request) -> dict[str, Any]:
        return self.core.history(request.arg("job_id"))

    @_verbs("drain")
    async def _drain(self, request: Request) -> dict[str, Any]:
        """Cooperative drain: yields to the loop between rounds."""
        rounds = 0
        for _ in self.core.drain_rounds(request.arg("max_rounds")):
            rounds += 1
            await asyncio.sleep(0)
        return {"rounds": rounds, "idle": self.core.idle, **self.core.metrics()}

    @_verbs("step")
    async def _step(self, request: Request) -> dict[str, Any]:
        core = self.core
        until = request.arg("until")
        events = request.arg("events")
        if until is None and events is None:
            last = None
            for _ in range(max(1, request.arg("rounds"))):
                last = core.advance_round()
                await asyncio.sleep(0)
            assert last is not None
            return {
                "round": last.pass_index,
                "sim_time": last.sim_time,
                "ticked": last.ticked,
                "queue_depth": last.queue_depth,
                "active_jobs": last.active_jobs,
            }
        passes_iter = (
            core.passes_until(until)
            if until is not None
            else core.passes_for_events(events)
        )
        passes = 0
        events_processed = 0
        result = None
        for result in passes_iter:
            passes += 1
            events_processed += result.events_processed
            await asyncio.sleep(0)
        return {
            "round": core.engine.pass_index,
            "pass_index": core.engine.pass_index,
            "sim_time": core.engine.now,
            "passes": passes,
            "events_processed": events_processed,
            "ticked": bool(result.ticked) if result else False,
            "queue_depth": len(core.engine.queue),
            "active_jobs": len(core.engine.active_jobs),
        }

    @_verbs("faultctl")
    async def _faultctl(self, request: Request) -> dict[str, Any]:
        return self.core.faultctl(
            request.arg("action"),
            server_id=request.arg("server_id"),
            gpu_id=request.arg("gpu_id"),
            slowdown=request.arg("slowdown"),
        )

    @_verbs("trace_dump")
    async def _trace_dump(self, request: Request) -> dict[str, Any]:
        return self.core.trace_dump(reset=request.arg("reset"))

    @_verbs("snapshot")
    async def _snapshot(self, request: Request) -> dict[str, Any]:
        path = self.core.snapshot_now()
        if path is None:
            raise ProtocolError("snapshots are not configured")
        return {"path": path}

    @_verbs("shutdown")
    async def _shutdown(self, request: Request) -> dict[str, Any]:
        self._stop.set()
        return {"stopping": True}

    def _request_trace(
        self, request: Request, site: str
    ) -> Optional[TraceContext]:
        """The local span context for a traced request (``None`` off)."""
        if request.trace is None or not self.core.observer.tracer.enabled:
            return None
        remote = TraceContext.from_wire(request.trace)
        if remote is None:
            return None
        return TraceContext(
            trace_id=remote.trace_id,
            span_id=derive_span_id(remote.trace_id, site),
            parent_id=remote.span_id,
        )


_verbs.complete()


async def serve(config: Optional[ServiceConfig] = None, restore: bool = False) -> None:
    """Run the daemon until shutdown (the ``repro serve`` entry point).

    SIGTERM/SIGINT trigger the same orderly stop as a ``shutdown``
    request: the round loop halts, a final snapshot is written (when
    configured), telemetry is flushed and the socket is removed — a
    supervised worker never loses the tail of a run on shutdown.
    """
    config = config or ServiceConfig()
    if restore:
        if not config.snapshot_dir:
            raise SystemExit("--restore requires --snapshot-dir")
        # Unpickling a large snapshot blocks for seconds; keep it off
        # the loop so signal handlers and the event loop stay live.
        core = await asyncio.to_thread(
            SchedulerService.restore, config.snapshot_dir
        )
        # Runtime knobs (socket, pacing) come from the new invocation.
        core.config = config
    else:
        core = SchedulerService(config)
    daemon = SchedulerDaemon(core)
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        # Non-main threads and non-POSIX loops cannot install handlers;
        # the daemon still stops cleanly via the shutdown verb there.
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            loop.add_signal_handler(sig, daemon._stop.set)
            installed.append(sig)
    try:
        await daemon.serve_forever()
    finally:
        for sig in installed:
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                loop.remove_signal_handler(sig)


class ThreadedDaemon:
    """Runs a daemon on a private event loop thread (tests, demos).

    Usage::

        with ThreadedDaemon(ServiceConfig(socket_path=...)) as daemon:
            client = ServiceClient(daemon.socket_path)
            ...
    """

    def __init__(self, config: ServiceConfig, core: Optional[SchedulerService] = None):
        self.config = config
        self._core = core
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self.daemon: Optional[SchedulerDaemon] = None

    @property
    def socket_path(self) -> str:
        """Where the daemon is listening."""
        return self.config.socket_path

    def __enter__(self) -> "ThreadedDaemon":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("daemon failed to start within 10s")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self.daemon is not None:
            # The loop may already be gone if someone sent the
            # ``shutdown`` verb (e.g. a supervisor's graceful stop).
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.daemon._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        core = self._core or SchedulerService(self.config)
        self.daemon = SchedulerDaemon(core)
        self._loop = asyncio.get_running_loop()
        await self.daemon.start()
        self._started.set()
        try:
            await self.daemon._stop.wait()
        finally:
            await self.daemon.stop()
