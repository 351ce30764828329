"""The observer facade: one object every layer reports into.

An :class:`Observer` bundles the three observability backends —
:class:`~repro.obs.metrics.MetricsRegistry`,
:class:`~repro.obs.tracing.Tracer` and
:class:`~repro.obs.timeline.TimelineRecorder` — behind the narrow
surface the engine and schedulers call:

* ``span(name, **args)`` — time a scheduler phase; feeds both the
  Chrome trace (when tracing is enabled) and the per-phase latency
  histogram from a single ``perf_counter`` pair;
* ``job_event(...)`` — append a per-job timeline transition and bump
  the matching counters;
* ``on_round(result)`` — refresh the round gauges/counters from a
  :class:`~repro.sim.engine.PassResult`;
* ``publish_priorities(...)`` — schedulers expose the round's task
  priorities so timeline events can stamp them.

:data:`NULL_OBSERVER` (a :class:`NullObserver`) is the default wired
into the engine: every method is a no-op, so the batch simulator pays
nothing when observability is off.

Instrumentation is injectable (pass an observer to the engine or the
service) with a module-level default for code — the schedulers — that
is constructed far from the engine: the engine *activates* its observer
for the duration of each scheduler round, and :func:`span` /
:func:`publish_priorities` route to whatever is active in the current
context — a :class:`contextvars.ContextVar`, so asyncio tasks sharing
one thread (the gateway/daemon servers) stay isolated from each other
just like plain threads do.
"""

from __future__ import annotations

from contextvars import ContextVar
from time import perf_counter
from typing import Any, Mapping, Optional

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    SIM_DURATION_BUCKETS,
    MetricsRegistry,
)
from repro.obs.timeline import TimelineEvent, TimelineRecorder
from repro.obs.tracing import NULL_SPAN, NullSpan, NullTracer, Tracer

__all__ = [
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "current_observer",
    "set_current_observer",
    "span",
    "publish_priorities",
]


class NullObserver:
    """The do-nothing observer (default everywhere)."""

    enabled = False
    registry: Optional[MetricsRegistry] = None
    timeline: Optional[TimelineRecorder] = None
    tracer = NullTracer()

    def span(self, name: str, **args: Any) -> NullSpan:
        """No-op span."""
        return NULL_SPAN

    def job_event(self, job_id: str, event: str, time: float, **fields: Any) -> None:
        """No-op."""

    def on_round(self, result: Any) -> None:
        """No-op."""

    def publish_priorities(self, priorities: Mapping[str, float]) -> None:
        """No-op."""

    def priority_of(self, task_id: Optional[str]) -> Optional[float]:
        """Always unknown."""
        return None


NULL_OBSERVER = NullObserver()


class _Span:
    """Times one phase; reports to the tracer and the phase histogram."""

    __slots__ = ("_obs", "name", "args", "_start", "_depth")

    def __init__(self, obs: "Observer", name: str, args: Optional[dict[str, Any]]):
        self._obs = obs
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        self._depth = self._obs.tracer.push()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        elapsed = perf_counter() - self._start
        obs = self._obs
        if obs.tracer.enabled:
            obs.tracer.pop(self.name, self._start - obs.trace_epoch, elapsed, self._depth, self.args)
        obs.phase_seconds.labels(self.name).observe(elapsed)
        return False


class Observer:
    """A live observer: registry + tracer + per-job timelines."""

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer | NullTracer] = None,
        timeline: Optional[TimelineRecorder] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NullTracer()
        self.timeline = timeline if timeline is not None else TimelineRecorder()
        #: perf_counter origin for trace timestamps.
        self.trace_epoch = perf_counter()
        self._priorities: Mapping[str, float] = {}
        self._register_families()

    def _register_families(self) -> None:
        reg = self.registry
        self.phase_seconds = reg.histogram(
            "mlfs_scheduler_phase_seconds",
            "Wall-clock latency of each scheduler phase span.",
            labels=("phase",),
            buckets=LATENCY_BUCKETS,
        )
        self.rounds_total = reg.counter(
            "mlfs_rounds_total", "Scheduler rounds executed."
        )
        self.events_total = reg.counter(
            "mlfs_events_processed_total", "Simulation events processed."
        )
        self.arrivals_total = reg.counter(
            "mlfs_job_arrivals_total", "Jobs that entered the scheduler."
        )
        self.completions_total = reg.counter(
            "mlfs_job_completions_total", "Jobs completed (any reason)."
        )
        self.stops_total = reg.counter(
            "mlfs_job_stops_total", "Jobs stopped early (load control / cancel)."
        )
        self.placements_total = reg.counter(
            "mlfs_task_placements_total", "Task placements applied."
        )
        self.migrations_total = reg.counter(
            "mlfs_task_migrations_total", "Task migrations applied."
        )
        self.evictions_total = reg.counter(
            "mlfs_task_evictions_total", "Task evictions applied."
        )
        self.fault_events_total = reg.counter(
            "mlfs_fault_events_total", "Fault-injection events applied."
        )
        self.fault_kills_total = reg.counter(
            "mlfs_fault_task_kills_total", "Tasks killed by injected faults."
        )
        self.rejections_total = reg.counter(
            "mlfs_job_rejections_total",
            "Jobs rejected at arrival, by reason.",
            labels=("reason",),
        )
        self.failed_servers = reg.gauge(
            "mlfs_failed_servers", "Servers currently down (fault injection)."
        )
        self.queue_depth = reg.gauge(
            "mlfs_queue_depth", "Tasks waiting in the scheduler queue."
        )
        self.active_jobs = reg.gauge("mlfs_active_jobs", "Jobs currently active.")
        self.running_jobs = reg.gauge(
            "mlfs_running_jobs", "Jobs with an iteration in flight."
        )
        self.overload_degree = reg.gauge(
            "mlfs_overload_degree", "Cluster overload degree O_c."
        )
        self.sim_time = reg.gauge(
            "mlfs_sim_time_seconds", "Simulation clock position."
        )
        self.jct_seconds = reg.histogram(
            "mlfs_job_completion_seconds",
            "Job completion time (simulated seconds).",
            buckets=SIM_DURATION_BUCKETS,
        )

    # -- spans -------------------------------------------------------------

    def span(self, name: str, **args: Any) -> _Span:
        """Open a timed span (context manager)."""
        return _Span(self, name, args or None)

    # -- priorities --------------------------------------------------------

    def publish_priorities(self, priorities: Mapping[str, float]) -> None:
        """Schedulers expose this round's task-priority map."""
        self._priorities = priorities

    def priority_of(self, task_id: Optional[str]) -> Optional[float]:
        """Last published priority of a task (``None`` when unknown)."""
        if task_id is None:
            return None
        return self._priorities.get(task_id)

    # -- job timelines -----------------------------------------------------

    def job_event(
        self,
        job_id: str,
        event: str,
        time: float,
        round_index: Optional[int] = None,
        task_id: Optional[str] = None,
        server_id: Optional[int] = None,
        gpu_id: Optional[int] = None,
        detail: Optional[str] = None,
        **extra: Any,
    ) -> None:
        """Record one per-job transition and bump its counters."""
        self.timeline.record(
            job_id,
            TimelineEvent(
                time=time,
                event=event,
                round_index=round_index,
                task_id=task_id,
                server_id=server_id,
                gpu_id=gpu_id,
                priority=self.priority_of(task_id),
                detail=detail,
                extra=extra or None,
            ),
        )
        if event == "placed":
            self.placements_total.inc()
        elif event == "migrated":
            self.migrations_total.inc()
        elif event == "evicted":
            self.evictions_total.inc()
        elif event == "fault_killed":
            self.fault_kills_total.inc()
        elif event == "submitted":
            self.arrivals_total.inc()
        elif event == "rejected":
            self.rejections_total.labels((detail or "").split(":")[0]).inc()
        elif event in ("completed", "stopped"):
            self.completions_total.inc()
            if event == "stopped":
                self.stops_total.inc()
            jct = extra.get("jct")
            if jct is not None:
                self.jct_seconds.observe(jct)

    # -- per-round refresh -------------------------------------------------

    def on_round(self, result: Any) -> None:
        """Update gauges/counters from a ``PassResult``."""
        if result.ticked:
            self.rounds_total.inc()
        if result.events_processed:
            self.events_total.inc(result.events_processed)
        faults = getattr(result, "faults", 0)
        if faults:
            self.fault_events_total.inc(faults)
        self.failed_servers.set(getattr(result, "failed_servers", 0))
        self.queue_depth.set(result.queue_depth)
        self.active_jobs.set(result.active_jobs)
        self.running_jobs.set(result.running_jobs)
        self.overload_degree.set(result.overload_degree)
        self.sim_time.set(result.sim_time)

    # -- pickling (daemon snapshots) ---------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        # Published priorities belong to the in-flight round only, and
        # cached family handles are re-derived from the registry.
        return {
            "registry": self.registry,
            "tracer": self.tracer,
            "timeline": self.timeline,
            "_priorities": {},
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.trace_epoch = perf_counter()
        self._register_families()


# -- module-level routing (context-local active observer) -------------------
#
# A ContextVar, not threading.local: the gateway and service daemons run
# many asyncio tasks on one thread, and thread-local routing would leak
# an observer activated in one task into every other.  ContextVars are
# task-local under asyncio *and* thread-local under plain threads, so
# both the threaded sweep runner and the async servers route correctly.

_ACTIVE: ContextVar[Observer | NullObserver] = ContextVar(
    "repro_observer", default=NULL_OBSERVER
)


def current_observer() -> Observer | NullObserver:
    """The observer active in this task/thread (defaults to the null one)."""
    return _ACTIVE.get()


def set_current_observer(
    observer: Observer | NullObserver,
) -> Observer | NullObserver:
    """Swap the active observer; returns the previous one."""
    previous = _ACTIVE.get()
    _ACTIVE.set(observer)
    return previous


def span(name: str, **args: Any):
    """Open a span on the active observer (used by schedulers)."""
    return current_observer().span(name, **args)


def publish_priorities(priorities: Mapping[str, float]) -> None:
    """Publish task priorities to the active observer."""
    current_observer().publish_priorities(priorities)
