"""The discrete-event simulation engine.

Drives a workload of jobs through a cluster under a pluggable scheduling
policy, reproducing the paper's experimental loop: "The job scheduler
runs every minute" (Section 4.1); tasks are queued, placed, migrated and
preempted at scheduler rounds; fully-placed jobs execute training
iterations whose durations come from :mod:`repro.sim.execution`; every
completed iteration updates the loss/accuracy state the ML-feature
priorities feed on.

Liveness guard: a task-granular scheduler can leave a job partially
placed (holding GPUs while unable to iterate).  Real clusters break such
stalemates with admission timeouts; the engine evicts all placed tasks
of a job that has been partially placed for ``stall_ticks`` consecutive
rounds, returning them to the queue.

Stepping API: besides the monolithic :meth:`SimulationEngine.run`, the
engine exposes a time-based incremental driver interface used by the
online service layer (:mod:`repro.service`):
:meth:`SimulationEngine.advance` runs the simulation through exactly
one scheduling pass and returns a :class:`PassResult`;
:meth:`SimulationEngine.run_until` processes every event up to a target
simulation time; :meth:`SimulationEngine.inject_job` admits a job
mid-run (the streaming-arrival path); :meth:`SimulationEngine.cancel_job`
terminates an active job early.  ``run()`` is a thin loop over
``advance()`` so both drivers produce the identical schedule.

Event-driven mode: ``EngineConfig(pass_policy="event")`` keeps the
fixed scheduling-pass grid but *parks* the pass timer whenever a pass
provably cannot change the schedule — every task placed, no overload,
no stall in progress, no fault event armed, and the scheduler's
:meth:`~repro.sim.interface.Scheduler.can_park` agrees — and re-arms it
(on the same grid, so event-aligned passes coincide with the fixed
cadence) as soon as an arrival or drain-out changes that, replaying
the scheduler's clocked state over the skipped passes through
:meth:`~repro.sim.interface.Scheduler.accrue`.  Sparse workloads then
cost O(events) instead of O(simulated minutes).  The default
``pass_policy="fixed"`` reproduces the historical cadence bit for bit.

A job that can never be placed
(:func:`repro.cluster.cluster.infeasible_reason`) is rejected at
arrival: never activated, no JCT, counted in ``metrics.rejected``.

Invariant sanitizer: ``SimulationEngine(sanitize=True)`` (or the
``REPRO_SANITIZE=1`` environment switch) audits every completed round
with :class:`repro.check.sanitize.Sanitizer` — resource conservation,
queue consistency, priority-ordered dequeue and snapshot round-trip —
raising :class:`repro.check.sanitize.InvariantViolation` with the
offending server/task ids the moment bookkeeping breaks.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.check.sanitize import Sanitizer, sanitize_from_env
from repro.cluster.cluster import Cluster, capacity_bounds, infeasible_reason
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.learncurve.accuracy import AccuracyPredictor
from repro.learncurve.runtime import RuntimePredictor
from repro.obs.observer import (
    NULL_OBSERVER,
    NullObserver,
    Observer,
    set_current_observer,
)
from repro.obs.tracing import Tracer
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.execution import ExecutionModel
from repro.sim.interface import (
    Scheduler,
    SchedulerDecision,
    SchedulingContext,
)
from repro.sim.metrics import SimulationMetrics
from repro.sim.network import migration_volume_mb
from repro.workload.job import Job, JobState, Task, TaskState


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs (defaults follow Section 4.1).

    Attributes
    ----------
    tick_seconds:
        Scheduler invocation period (paper: one minute).
    overload_threshold:
        Per-resource/per-GPU overload threshold ``h_r``.
    system_overload_threshold:
        Cluster overload threshold ``h_s`` used by MLF-C.
    migration_penalty_seconds:
        Extra time added to a job's in-flight iteration when one of its
        tasks is migrated (checkpoint + restore).
    stall_ticks:
        Rounds a job may remain partially placed before the engine
        evicts its placed tasks (liveness guard).
    max_time:
        Hard stop for the simulation clock.
    straggler_probability / straggler_slowdown:
        Failure injection passed to the execution model.
    seed:
        Seed of the engine's private RNG (straggler draws).
    pass_policy:
        ``"fixed"`` (default) runs a scheduling pass every
        ``tick_seconds`` of simulated time while work is active — the
        paper's "the job scheduler runs every minute" and the cadence
        the golden traces froze.  ``"event"`` keeps the same pass grid
        but skips passes that provably cannot change the schedule (see
        the module docstring); every scheduler parks unless its
        ``can_park`` vetoes.
    """

    tick_seconds: float = 60.0
    overload_threshold: float = 0.90
    system_overload_threshold: float = 0.90
    migration_penalty_seconds: float = 10.0
    stall_ticks: int = 30
    max_time: float = 60.0 * 24 * 3600.0
    straggler_probability: float = 0.0
    straggler_slowdown: float = 3.0
    seed: int = 0
    pass_policy: str = "fixed"


@dataclass
class _IterationState:
    """Bookkeeping of one in-flight iteration."""

    token: int
    end_time: float
    cross_mb: float


@dataclass(frozen=True, slots=True)
class PassResult:
    """What happened during one :meth:`SimulationEngine.advance` call.

    A *pass* is the span of simulated time up to and including the next
    scheduling pass (historically a "round").  The service layer turns
    these into telemetry records keyed by ``sim_time``; ``ticked`` is
    False when the event queue ran dry (or ``max_time`` was hit) before
    a pass could fire.
    """

    pass_index: int
    sim_time: float
    ticked: bool
    events_processed: int
    arrivals: int
    completions: int
    stops: int
    placements: int
    migrations: int
    evictions: int
    queue_depth: int
    active_jobs: int
    running_jobs: int
    overload_degree: float
    drained: bool
    #: Fault injection (repro.faults): events applied this pass, tasks
    #: killed by them, and servers currently down after the pass.
    faults: int = 0
    tasks_killed: int = 0
    failed_servers: int = 0


class TaskQueue:
    """The waiting-task FIFO with amortized-O(1) arbitrary removal.

    Placement removes tasks from arbitrary positions; at synthetic-Philly
    scale (10^5 queued tasks under a deep backlog) ``list.remove`` makes
    every scheduling pass O(n²).  Removal here only marks the task id
    dead; the backing list compacts once half its entries are dead, so
    append/remove are amortized O(1) while iteration preserves exact
    FIFO (insertion) order — the dequeue order the golden traces froze.

    A task id may be re-queued after removal (eviction and fault-kill
    paths); the structure assumes one live entry per task id, which the
    engine guarantees (a task is either queued or placed, never both).
    """

    #: Dead-entry floor below which compaction is not worth the copy.
    _COMPACT_MIN = 64

    def __init__(self, tasks: Optional[Iterable[Task]] = None) -> None:
        self._items: list[Task] = []
        self._live: set[str] = set()
        self._dead: set[str] = set()
        for task in tasks or ():
            self.append(task)

    def append(self, task: Task) -> None:
        if task.task_id in self._live:
            raise ValueError(f"task {task.task_id} is already queued")
        if task.task_id in self._dead:
            # Purge the stale entry first so the re-queued task lands at
            # the tail (FIFO position of *this* enqueue, not the old one).
            self._compact()
        self._items.append(task)
        self._live.add(task.task_id)

    def remove(self, task: Task) -> None:
        if task.task_id not in self._live:
            raise ValueError(f"task {task.task_id} not in the waiting queue")
        self._live.discard(task.task_id)
        self._dead.add(task.task_id)
        if (
            len(self._dead) >= self._COMPACT_MIN
            and len(self._dead) * 2 >= len(self._items)
        ):
            self._compact()

    def _compact(self) -> None:
        self._items = [t for t in self._items if t.task_id in self._live]
        self._dead.clear()

    def __iter__(self) -> Iterator[Task]:
        live = self._live
        return (t for t in self._items if t.task_id in live)

    def __getitem__(self, index: int) -> Task:
        """Positional access in FIFO order (tests/diagnostics; O(n))."""
        return list(self)[index]

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __contains__(self, task: object) -> bool:
        task_id = getattr(task, "task_id", None)
        return task_id is not None and task_id in self._live

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TaskQueue):
            return list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"TaskQueue({[t.task_id for t in self]!r})"


class SimulationEngine:
    """Runs one simulation of (scheduler, jobs, cluster)."""

    def __init__(
        self,
        scheduler: Scheduler,
        jobs: list[Job],
        cluster: Cluster,
        config: Optional[EngineConfig] = None,
        accuracy_predictor: Optional[AccuracyPredictor] = None,
        runtime_predictor: Optional[RuntimePredictor] = None,
        observer: Optional[Union[Observer, NullObserver]] = None,
        trace: Optional[Union[str, Path]] = None,
        sanitize: Optional[bool] = None,
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
    ) -> None:
        self.scheduler = scheduler
        self.jobs = sorted(jobs, key=lambda j: (j.arrival_time, j.job_id))
        self.cluster = cluster
        self.config = config or EngineConfig()
        self._trace_path = Path(trace) if trace is not None else None
        if observer is not None:
            self.obs = observer
        elif self._trace_path is not None:
            self.obs = Observer(tracer=Tracer())
        else:
            self.obs = NULL_OBSERVER
        self.accuracy_predictor = accuracy_predictor or AccuracyPredictor(
            seed=self.config.seed
        )
        self.runtime_predictor = runtime_predictor or RuntimePredictor(
            seed=self.config.seed
        )
        self.metrics = SimulationMetrics()
        self.execution = ExecutionModel(
            straggler_probability=self.config.straggler_probability,
            straggler_slowdown=self.config.straggler_slowdown,
        )
        if self.config.pass_policy not in ("fixed", "event"):
            raise ValueError(
                f"unknown pass_policy {self.config.pass_policy!r};"
                " expected 'fixed' or 'event'"
            )
        self.now = 0.0
        self.queue: TaskQueue = TaskQueue()
        self.active_jobs: dict[str, Job] = {}
        self._events = EventQueue()
        self._rng = random.Random(self.config.seed)
        self._iteration: dict[str, _IterationState] = {}
        self._tokens: dict[str, int] = {}
        self._wait_since: dict[str, float] = {}
        self._wait_accum: dict[str, float] = {}
        self._stall_counter: dict[str, int] = {}
        self._last_duration: dict[str, float] = {}
        self._pending_arrivals = len(self.jobs)
        self._started = False
        self._finalized = False
        self._max_time_reached = False
        self._ticks_pending = 0
        self._round_index = 0
        # Event-driven pass control: a "parked" engine has no scheduling
        # pass pending; ``_anchor`` is the time of the last pass and
        # defines the grid re-armed passes snap back onto.
        self._parked = False
        # Arrival-time feasibility bounds: fixed hardware, computed once.
        self.capacity = capacity_bounds(cluster)
        self._anchor = 0.0
        self._round_counters: dict[str, int] = {}
        self._reset_round_counters()
        # Invariant sanitizer (repro.check.sanitize): explicit flag wins,
        # otherwise the REPRO_SANITIZE environment switch decides.
        if sanitize is None:
            sanitize = sanitize_from_env()
        self.sanitizer: Optional[Sanitizer] = Sanitizer() if sanitize else None
        self._last_decision: Optional[SchedulerDecision] = None
        # Fault injection (repro.faults): accept a frozen plan or a live
        # injector (the service layer shares one across restarts).  An
        # idle injector is bit-identical to running without one.
        if faults is None:
            self.faults: Optional[FaultInjector] = None
        elif isinstance(faults, FaultInjector):
            self.faults = faults
        else:
            self.faults = FaultInjector(faults)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    @property
    def is_drained(self) -> bool:
        """No job is active and no arrival is pending."""
        return not self.active_jobs and self._pending_arrivals == 0

    @property
    def pass_index(self) -> int:
        """Number of scheduling passes executed so far."""
        return self._round_index

    @property
    def parked(self) -> bool:
        """Whether the pass timer is parked (event mode, quiet cluster)."""
        return self._parked

    def start(self) -> None:
        """Seed arrival events and the first scheduler tick (idempotent)."""
        if self._started:
            return
        self._started = True
        for job in self.jobs:
            self._events.push(Event(job.arrival_time, EventKind.JOB_ARRIVAL, job))
        if self.jobs:
            self._push_tick(self.jobs[0].arrival_time)

    def run(self) -> SimulationMetrics:
        """Execute the simulation to completion and return the metrics."""
        self.start()
        while True:
            result = self.advance()
            if result.drained or result.events_processed == 0:
                break
        self.finalize()
        return self.metrics

    def advance(self, until: Optional[float] = None) -> PassResult:
        """Advance through pending events until one scheduling pass ran.

        Processes events in time order and returns after handling the
        next ``SCHEDULE_TICK`` (or earlier, when the event queue runs
        dry, ``max_time`` is exceeded, the workload drains, or the next
        event lies beyond ``until``).  Calling ``advance()`` in a loop
        reproduces exactly the schedule ``run()`` produces — the service
        daemon relies on this equivalence for deterministic
        snapshot/restore.
        """
        self.start()
        self._reset_round_counters()
        # Runtime-injected faults (``faultctl``) must not sit queued on
        # a drained (or parked) engine with no tick to carry the fault
        # phase — seed one so e.g. a crash on an idle cluster still
        # applies.  Plan events are unaffected: they fire only on
        # passes that happen anyway.
        if self.faults is not None and self.faults.pending:
            if self._parked:
                self._exit_park(self.now)
            self._ensure_tick(self.now)
        ticked = False
        events_processed = 0
        while self._events:
            next_time = self._events.peek_time()
            if next_time is not None and next_time > self.config.max_time:
                self._max_time_reached = True
                break
            if until is not None and next_time is not None and next_time > until:
                break
            event = self._events.pop()
            self.now = max(self.now, event.time)
            events_processed += 1
            if event.kind is EventKind.JOB_ARRIVAL:
                self._handle_arrival(event.payload)
            elif event.kind is EventKind.SCHEDULE_TICK:
                self._ticks_pending -= 1
                self._handle_tick()
                ticked = True
            elif event.kind is EventKind.ITERATION_DONE:
                job, token = event.payload
                self._handle_iteration_done(job, token)
            if self.is_drained or ticked:
                break
        if ticked:
            self._round_index += 1
        if self.sanitizer is not None and events_processed:
            decision = self._last_decision if ticked else None
            self._last_decision = None
            self.sanitizer.check_round(self, decision=decision)
        counters = self._round_counters
        result = PassResult(
            pass_index=self._round_index,
            sim_time=self.now,
            ticked=ticked,
            events_processed=events_processed,
            arrivals=counters["arrivals"],
            completions=counters["completions"],
            stops=counters["stops"],
            placements=counters["placements"],
            migrations=counters["migrations"],
            evictions=counters["evictions"],
            queue_depth=len(self.queue),
            active_jobs=len(self.active_jobs),
            running_jobs=len(self._iteration),
            overload_degree=self.cluster.overload_degree(),
            drained=self.is_drained,
            faults=counters["faults"],
            tasks_killed=counters["tasks_killed"],
            failed_servers=len(self.cluster.failed_servers()),
        )
        self.obs.on_round(result)
        return result

    def run_until(self, until: float) -> list[PassResult]:
        """Process every event at or before ``until``; advance the clock.

        Runs scheduling passes as they come due, returning one
        :class:`PassResult` per ``advance()`` call (the final entry may
        have ``ticked=False`` — the tail of events before the cut-off).
        Afterwards the simulation clock stands at ``until`` (clamped to
        ``max_time``) even if no event lay that far out, so time-based
        drivers can interleave ``run_until`` with :meth:`inject_job`.
        """
        self.start()
        results: list[PassResult] = []
        while True:
            result = self.advance(until=until)
            results.append(result)
            if result.drained or result.events_processed == 0:
                break
        self.fast_forward(until)
        return results

    def fast_forward(self, until: float) -> float:
        """Advance the idle clock to ``until`` (clamped to ``max_time``).

        Only moves time forward — never rewinds — and refuses to move
        past ``max_time``.  Callers that drain events up to a bound
        (:meth:`run_until`, the daemon's ``step until=``) use this so
        the clock lands exactly on the bound even when no event lay
        that far out.
        """
        if not self._max_time_reached:
            target = min(until, self.config.max_time)
            if target > self.now:
                self.now = target
        return self.now

    def finalize(self) -> SimulationMetrics:
        """Force-complete what is still active and close the metrics."""
        if not self._finalized:
            self._finalized = True
            self._finalize_unfinished()
            if self._trace_path is not None and self.obs.tracer.enabled:
                self.obs.tracer.write(self._trace_path)
        return self.metrics

    # ------------------------------------------------------------------
    # Streaming admission (service layer)
    # ------------------------------------------------------------------

    def inject_job(self, job: Job, arrival_time: Optional[float] = None) -> float:
        """Admit a job mid-run; returns its effective arrival time.

        The arrival is clamped to the current simulation clock (events
        cannot fire in the past).  If the engine had drained, a new
        scheduler tick is seeded so the job gets scheduled.
        """
        self.start()
        arrival = self.now if arrival_time is None else max(arrival_time, self.now)
        job.arrival_time = arrival
        self.jobs.append(job)
        self._pending_arrivals += 1
        self._finalized = False
        self._events.push(Event(arrival, EventKind.JOB_ARRIVAL, job))
        # A parked engine has no pass pending by design; a streamed
        # arrival re-arms it immediately (service responsiveness beats
        # grid alignment on this path), after replaying the scheduler's
        # clocks over the grid passes the park skipped.
        if self._parked:
            self._exit_park(arrival)
        self._ensure_tick(arrival)
        return arrival

    def reject_job(self, job_id: str, reason: str) -> None:
        """Count a never-placeable job as rejected; it is never activated."""
        self.metrics.rejected[job_id] = reason
        self.obs.job_event(
            job_id,
            "rejected",
            self.now,
            round_index=self._round_index,
            detail=reason,
        )

    def cancel_job(self, job_id: str) -> bool:
        """Terminate an active job early (counts as stopped_early)."""
        job = self.active_jobs.get(job_id)
        if job is None:
            return False
        self._complete_job(job, stopped_early=True)
        return True

    def _push_tick(self, time: float) -> None:
        self._events.push(Event(time, EventKind.SCHEDULE_TICK))
        self._ticks_pending += 1

    def _ensure_tick(self, time: float) -> None:
        """Guarantee a scheduler tick is pending at or after ``time``."""
        if self._ticks_pending <= 0:
            self._push_tick(max(time, self.now))

    def _reset_round_counters(self) -> None:
        self._round_counters = {
            "arrivals": 0,
            "completions": 0,
            "stops": 0,
            "placements": 0,
            "migrations": 0,
            "evictions": 0,
            "faults": 0,
            "tasks_killed": 0,
        }

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _handle_arrival(self, job: Job) -> None:
        self._pending_arrivals -= 1
        reason = infeasible_reason(
            job.tasks, self.capacity, self.config.overload_threshold
        )
        if reason is not None:
            self.reject_job(job.job_id, reason)  # nothing changed: stay parked
            return
        self._unpark()
        self._round_counters["arrivals"] += 1
        self.active_jobs[job.job_id] = job
        self._wait_since[job.job_id] = self.now
        self._wait_accum[job.job_id] = 0.0
        self._tokens[job.job_id] = 0
        for task in job.tasks:
            task.mark_queued(self.now)
            self.queue.append(task)
        self.obs.job_event(
            job.job_id,
            "submitted",
            self.now,
            round_index=self._round_index,
            detail=job.model.name,
            gpus=job.gpus_requested,
        )
        self.obs.job_event(
            job.job_id,
            "queued",
            self.now,
            round_index=self._round_index,
            tasks=len(job.tasks),
        )
        self.scheduler.on_job_arrival(job, self.now)

    def _handle_tick(self) -> None:
        # Every pass re-anchors the grid parked passes snap back onto.
        self._anchor = self.now
        # Fault phase first: capacity changes and kills must be visible
        # to this round's scheduling pass, and crashes apply even while
        # the cluster is idle.
        self._apply_faults()
        if self.active_jobs:
            overloaded = self.cluster.overloaded_servers(self.config.overload_threshold)
            self.metrics.overload_occurrences += len(overloaded)
            ctx = SchedulingContext(
                now=self.now,
                cluster=self.cluster,
                queue=list(self.queue),
                active_jobs=list(self.active_jobs.values()),
                overload_threshold=self.config.overload_threshold,
                system_overload_threshold=self.config.system_overload_threshold,
                accuracy_predictor=self.accuracy_predictor,
                runtime_predictor=self.runtime_predictor,
            )
            previous = set_current_observer(self.obs)
            try:
                with self.obs.span(
                    "round",
                    round=self._round_index,
                    queue=len(self.queue),
                    active_jobs=len(self.active_jobs),
                ):
                    started = _time.perf_counter()
                    decision = self.scheduler.on_schedule(ctx)
                    self.metrics.record_overhead(_time.perf_counter() - started)
                    if self.sanitizer is not None:
                        self._last_decision = decision
                    self._apply_decision(decision)
                    self._enforce_stall_guard()
                    self._start_ready_iterations()
            finally:
                set_current_observer(previous)
        self._schedule_next_tick()

    def _schedule_next_tick(self) -> None:
        if not self.active_jobs and self._pending_arrivals == 0:
            return
        if self._can_park():
            # Event-driven mode: every task is running, nothing can need
            # a pass before the next event — park instead of ticking.
            self._parked = True
            return
        next_time = self.now + self.config.tick_seconds
        if not self.active_jobs:
            # Idle: jump straight to the next arrival.
            upcoming = self._events.peek_time()
            if upcoming is not None:
                next_time = max(next_time, upcoming)
        self._push_tick(next_time)

    # ------------------------------------------------------------------
    # Event-driven pass control (pass_policy="event")
    # ------------------------------------------------------------------

    def _can_park(self) -> bool:
        """Whether the next scheduling pass is provably a no-op.

        True only when every active job is fully placed and iterating
        (empty waiting queue, no partial placement under the stall
        guard), no server exceeds the overload threshold (so no
        migration can be due), no fault event can still fire, and the
        scheduler's ``can_park`` sees no condition of its own.  Under
        those conditions a pass places nothing, evicts nothing, migrates
        nothing and stops nothing, so skipping it leaves the schedule
        bit-identical while the clock jumps straight to the next event.
        """
        if self.config.pass_policy != "event":
            return False
        if not self.active_jobs or self.queue:
            return False
        if self._stall_counter:
            return False
        # ``_round_index`` increments after the tick; the pass running
        # right now is round ``_round_index + 1`` and its plan events
        # have already fired in this pass's fault phase.
        if self.faults is not None and self.faults.armed_after(self._round_index + 1):
            return False
        if self.cluster.overloaded_servers(self.config.overload_threshold):
            return False
        return self.scheduler.can_park(self.cluster)

    def _unpark(self) -> None:
        """Re-arm the pass timer on the fixed grid after a parked gap.

        The next pass lands on the first ``tick_seconds`` grid point at
        or after ``now`` (measured from the last pass, ``_anchor``), so
        event-aligned passes coincide exactly with the fixed cadence —
        the property the dense-trace equivalence tests pin.
        """
        if not self._parked:
            return
        next_time, periods = self._grid_point_at_or_after(self.now)
        self._exit_park(next_time, skipped=periods - 1)
        self._push_tick(next_time)

    def _grid_point_at_or_after(self, time: float) -> tuple[float, int]:
        """The first pass time after ``_anchor`` that is ``>= time``, and
        how many ``tick_seconds`` periods past the anchor it lies.

        The grid is stepped by repeated addition, exactly as the fixed
        cadence reaches it (``now + tick_seconds`` per pass):
        ``anchor + k * tick`` can differ from that in the last bit, and
        a pass one ulp off moves every later event time.  The loop costs
        one float add per skipped pass, a small fraction of the pass it
        stands in for.
        """
        tick = self.config.tick_seconds
        point, periods = self._anchor + tick, 1
        while point < time:
            point += tick
            periods += 1
        return point, periods

    def _exit_park(self, next_pass_time: float, skipped: Optional[int] = None) -> None:
        """Leave the parked state, replaying clocks over skipped passes.

        ``next_pass_time`` is where the next pass will run.  Every fixed
        -cadence grid point strictly before it (``k = 1..skipped``
        periods past the anchor) was a provably-no-op pass that the
        event policy skipped; the scheduler's ``accrue()`` hook advances
        any clocked state across them analytically so the pass that
        *does* run sees bit-identical scheduler state to the fixed
        cadence.  ``skipped`` is counted from ``next_pass_time`` unless
        the caller already has it.
        """
        self._parked = False
        tick = self.config.tick_seconds
        if skipped is None:
            skipped = self._grid_point_at_or_after(next_pass_time)[1] - 1
        if skipped:
            self.scheduler.accrue(
                skipped * tick,
                skipped_passes=skipped,
                now=self.now,
                tick_seconds=tick,
            )

    def _handle_iteration_done(self, job: Job, token: int) -> None:
        state = self._iteration.get(job.job_id)
        if state is None or state.token != token:
            return  # stale completion (preempted/migrated/stopped)
        del self._iteration[job.job_id]
        job.iterations_completed += 1
        self.metrics.bandwidth_mb += state.cross_mb
        if self.now <= job.deadline:
            job.iterations_at_deadline = job.iterations_completed
        self.runtime_predictor.observe_iteration(job, self._last_duration[job.job_id])
        self.accuracy_predictor.observe(job, job.iterations_completed)
        self.scheduler.on_iteration_complete(job, self.now)
        if job.iterations_completed >= job.max_iterations:
            self._complete_job(job, stopped_early=False)
        else:
            self._start_iteration(job)

    # ------------------------------------------------------------------
    # Fault injection (repro.faults)
    # ------------------------------------------------------------------

    def _apply_faults(self) -> None:
        """Apply this round's fault events before the scheduling pass."""
        injector = self.faults
        if injector is None or injector.is_idle:
            return
        # ``_round_index`` increments after the tick, so the round being
        # executed is reported as ``_round_index + 1`` — plan round
        # indices refer to those reported (1-based) round numbers.
        this_round = self._round_index + 1
        events = injector.take_events(this_round)
        if not events:
            return
        previous = set_current_observer(self.obs)
        try:
            with self.obs.span(
                "faults", round=this_round, events=len(events)
            ):
                killed_jobs: set[str] = set()
                for event in events:
                    self._apply_fault_event(event, killed_jobs)
                # One rollback per job per batch: losing two tasks at the
                # same round restores a single checkpoint, not two.
                for job_id in sorted(killed_jobs):
                    job = self.active_jobs.get(job_id)
                    if job is not None:
                        self._rollback_to_checkpoint(job)
        finally:
            set_current_observer(previous)

    def _apply_fault_event(self, event: FaultEvent, killed_jobs: set[str]) -> None:
        injector = self.faults
        assert injector is not None
        if event.server_id >= len(self.cluster.servers):
            return  # plan targets a server this cluster does not have
        server = self.cluster.server(event.server_id)
        kind = event.kind
        applied = False
        if kind == "server_crash":
            if not server.failed:
                applied = True
                server.failed = True
                self._count_fault("servers_failed")
                for task in server.tasks():
                    self._kill_task(task, killed_jobs, f"server-{server.server_id}-crash")
        elif kind == "server_revive":
            if server.failed:
                applied = True
                server.failed = False
                self._count_fault("servers_revived")
        elif kind == "gpu_fail":
            if event.gpu_id is not None and event.gpu_id < len(server.gpus):
                gpu = server.gpus[event.gpu_id]
                if not gpu.failed:
                    applied = True
                    gpu.failed = True
                    self._count_fault("gpus_failed")
                    for task in gpu.tasks():
                        self._kill_task(
                            task,
                            killed_jobs,
                            f"server-{server.server_id}-gpu-{gpu.gpu_id}-fail",
                        )
        elif kind == "gpu_revive":
            if event.gpu_id is not None and event.gpu_id < len(server.gpus):
                gpu = server.gpus[event.gpu_id]
                if gpu.failed:
                    applied = True
                    gpu.failed = False
                    self._count_fault("gpus_revived")
        elif kind == "straggler_start":
            applied = True
            injector.start_straggler(server.server_id, event.slowdown)
            self._count_fault("straggler_events")
        elif kind == "straggler_end":
            if server.server_id in injector.stragglers:
                applied = True
                injector.end_straggler(server.server_id)
                self._count_fault("straggler_events")
        if applied:
            self._round_counters["faults"] += 1
            self.metrics.fault_events += 1

    def _count_fault(self, key: str) -> None:
        """Bump the same fault counter in the metrics and the injector."""
        assert self.faults is not None
        self.faults.counters[key] += 1
        setattr(self.metrics, key, getattr(self.metrics, key) + 1)

    def _kill_task(self, task: Task, killed_jobs: set[str], reason: str) -> None:
        """Fault-kill a resident task: release it and re-enqueue it.

        Unlike a scheduler eviction this is involuntary — the task's job
        will be rolled back to its last checkpoint once the whole fault
        batch has been applied, and the scheduler re-places the task
        through its normal paths in the same round.
        """
        server = self.cluster.server(task.server_id)
        server.remove_task(task)
        task.mark_queued(self.now)
        self.queue.append(task)
        self._round_counters["tasks_killed"] += 1
        self._count_fault("tasks_killed")
        self.obs.job_event(
            task.job_id,
            "fault_killed",
            self.now,
            round_index=self._round_index + 1,
            task_id=task.task_id,
            server_id=server.server_id,
            detail=reason,
        )
        job = task.job
        killed_jobs.add(job.job_id)
        self._cancel_iteration(job)
        if not job.placed_tasks():
            self._open_wait_stint(job)

    def _rollback_to_checkpoint(self, job: Job) -> None:
        """Checkpoint-restart: resume from the last completed checkpoint.

        Jobs checkpoint every ``checkpoint_period`` completed iterations;
        the iterations past that point are lost work, redone after the
        scheduler re-places the killed tasks.  Deadline-time progress is
        clamped too — the restored model state *is* the checkpoint.
        """
        assert self.faults is not None
        period = self.faults.plan.checkpoint_period
        checkpointed = (job.iterations_completed // period) * period
        lost = job.iterations_completed - checkpointed
        if lost <= 0:
            return
        job.iterations_completed = checkpointed
        job.iterations_at_deadline = min(job.iterations_at_deadline, checkpointed)
        self.metrics.iterations_lost += lost
        self.faults.counters["iterations_lost"] += lost
        self.obs.job_event(
            job.job_id,
            "rolled_back",
            self.now,
            round_index=self._round_index + 1,
            iterations_lost=lost,
            checkpoint=checkpointed,
        )

    # ------------------------------------------------------------------
    # Decision application
    # ------------------------------------------------------------------

    def _apply_decision(self, decision: SchedulerDecision) -> None:
        for eviction in decision.evictions:
            self._evict_task(eviction.task)
        for migration in decision.migrations:
            self._migrate_task(migration.task, migration.dst_server_id, migration.gpu_id)
        for placement in decision.placements:
            self._place_task(placement.task, placement.server_id, placement.gpu_id)
        for stop in decision.stops:
            job = stop.job
            if job.job_id in self.active_jobs and not job.is_complete:
                self._complete_job(job, stopped_early=True)

    def _place_task(self, task: Task, server_id: int, gpu_id: Optional[int]) -> None:
        if task.state is not TaskState.QUEUED:
            raise ValueError(f"cannot place task {task.task_id}: not queued")
        if task.job_id not in self.active_jobs:
            return  # job already stopped this round
        try:
            self.queue.remove(task)
        except ValueError:
            raise ValueError(f"task {task.task_id} not in the waiting queue") from None
        server = self.cluster.server(server_id)
        gpu = server.gpus[gpu_id] if gpu_id is not None else None
        landed = server.place_task(task, gpu)
        task.mark_placed(self.now, server_id, landed.gpu_id)
        self._round_counters["placements"] += 1
        self.obs.job_event(
            task.job_id,
            "placed",
            self.now,
            round_index=self._round_index,
            task_id=task.task_id,
            server_id=server_id,
            gpu_id=landed.gpu_id,
        )
        self._close_wait_stint(task.job)
        self._cancel_iteration(task.job)  # placement changes contention; restart cleanly

    def _evict_task(self, task: Task) -> None:
        if not task.is_placed:
            raise ValueError(f"cannot evict task {task.task_id}: not placed")
        src_server_id = task.server_id
        server = self.cluster.server(task.server_id)
        server.remove_task(task)
        task.mark_queued(self.now)
        self.queue.append(task)
        self.metrics.num_evictions += 1
        self._round_counters["evictions"] += 1
        self.obs.job_event(
            task.job_id,
            "evicted",
            self.now,
            round_index=self._round_index,
            task_id=task.task_id,
            server_id=src_server_id,
        )
        job = task.job
        self._cancel_iteration(job)
        if not job.placed_tasks():
            self._open_wait_stint(job)

    def _migrate_task(
        self, task: Task, dst_server_id: int, gpu_id: Optional[int]
    ) -> None:
        if not task.is_placed:
            raise ValueError(f"cannot migrate task {task.task_id}: not placed")
        if task.server_id == dst_server_id:
            return
        src_server_id = task.server_id
        src = self.cluster.server(task.server_id)
        src.remove_task(task)
        dst = self.cluster.server(dst_server_id)
        gpu = dst.gpus[gpu_id] if gpu_id is not None else None
        landed = dst.place_task(task, gpu)
        task.server_id = dst_server_id
        task.gpu_id = landed.gpu_id
        task.num_migrations += 1
        self.metrics.num_migrations += 1
        self._round_counters["migrations"] += 1
        self.obs.job_event(
            task.job_id,
            "migrated",
            self.now,
            round_index=self._round_index,
            task_id=task.task_id,
            server_id=dst_server_id,
            gpu_id=landed.gpu_id,
            detail=f"from=server-{src_server_id}",
        )
        self.metrics.migration_bandwidth_mb += migration_volume_mb(task)
        self._extend_iteration(task.job, self.config.migration_penalty_seconds)

    # ------------------------------------------------------------------
    # Iteration lifecycle
    # ------------------------------------------------------------------

    def _start_ready_iterations(self) -> None:
        for job in list(self.active_jobs.values()):
            if (
                job.is_fully_placed
                and job.job_id not in self._iteration
                and job.remaining_iterations > 0
            ):
                self._start_iteration(job)

    def _start_iteration(self, job: Job) -> None:
        if not job.is_fully_placed:
            return
        if job.state is JobState.WAITING:
            job.state = JobState.RUNNING
            job.first_run_time = self.now
        duration, cross_mb = self.execution.iteration_duration(
            job, self.cluster, self._rng.random()
        )
        if self.faults is not None and self.faults.stragglers:
            factor = self.faults.slowdown_for(job)
            if factor != 1.0:
                duration *= factor
        duration = max(duration, 1e-6)
        token = self._tokens[job.job_id] = self._tokens.get(job.job_id, 0) + 1
        self._iteration[job.job_id] = _IterationState(
            token=token, end_time=self.now + duration, cross_mb=cross_mb
        )
        self._last_duration[job.job_id] = duration
        self._events.push(
            Event(self.now + duration, EventKind.ITERATION_DONE, (job, token))
        )

    def _cancel_iteration(self, job: Job) -> None:
        self._iteration.pop(job.job_id, None)
        self._tokens[job.job_id] = self._tokens.get(job.job_id, 0) + 1

    def _extend_iteration(self, job: Job, penalty: float) -> None:
        state = self._iteration.get(job.job_id)
        if state is None:
            return
        remaining = max(0.0, state.end_time - self.now) + penalty
        self._cancel_iteration(job)
        token = self._tokens[job.job_id]
        new_state = _IterationState(
            token=token, end_time=self.now + remaining, cross_mb=state.cross_mb
        )
        self._iteration[job.job_id] = new_state
        self._last_duration[job.job_id] = (
            self._last_duration.get(job.job_id, remaining) + penalty
        )
        self._events.push(
            Event(new_state.end_time, EventKind.ITERATION_DONE, (job, token))
        )

    # ------------------------------------------------------------------
    # Job completion & waiting accounting
    # ------------------------------------------------------------------

    def _complete_job(self, job: Job, stopped_early: bool) -> None:
        self._round_counters["completions"] += 1
        if stopped_early:
            self._round_counters["stops"] += 1
        self._cancel_iteration(job)
        for task in job.tasks:
            if task.is_placed:
                self.cluster.server(task.server_id).remove_task(task)
            elif task.state is TaskState.QUEUED:
                try:
                    self.queue.remove(task)
                except ValueError:
                    pass
            task.mark_finished()
        job.state = JobState.COMPLETED
        job.completion_time = self.now
        job.stopped_early = stopped_early
        if self.now <= job.deadline:
            job.iterations_at_deadline = job.iterations_completed
        if job.completion_time <= job.deadline:
            job.accuracy_at_deadline = job.final_accuracy
        else:
            job.accuracy_at_deadline = job.accuracy_at(job.iterations_at_deadline)
        self._close_wait_stint(job, completing=True)
        waiting = self._wait_accum.pop(job.job_id, 0.0)
        self.obs.job_event(
            job.job_id,
            "stopped" if stopped_early else "completed",
            self.now,
            round_index=self._round_index,
            jct=job.completion_time - job.arrival_time,
            iterations=job.iterations_completed,
        )
        self.metrics.record_job(job, waiting)
        self.active_jobs.pop(job.job_id, None)
        if self._parked and not self.active_jobs:
            # The cluster just went idle mid-gap: re-arm the pass timer
            # so the engine reproduces the fixed cadence's idle handoff
            # (one grid-aligned tick, then the jump to the next arrival).
            self._unpark()
        self._stall_counter.pop(job.job_id, None)
        self._wait_since.pop(job.job_id, None)
        self._last_duration.pop(job.job_id, None)
        self.accuracy_predictor.forget(job)
        self.runtime_predictor.forget(job)
        self.execution.forget(job)
        self.scheduler.on_job_complete(job, self.now)

    def _open_wait_stint(self, job: Job) -> None:
        if job.job_id in self.active_jobs and job.job_id not in self._wait_since:
            self._wait_since[job.job_id] = self.now

    def _close_wait_stint(self, job: Job, completing: bool = False) -> None:
        since = self._wait_since.pop(job.job_id, None)
        if since is not None:
            self._wait_accum[job.job_id] = self._wait_accum.get(job.job_id, 0.0) + max(
                0.0, self.now - since
            )
        if not completing and not job.placed_tasks():
            # Still nothing running; re-open immediately.
            self._wait_since[job.job_id] = self.now

    # ------------------------------------------------------------------
    # Liveness guard
    # ------------------------------------------------------------------

    def _enforce_stall_guard(self) -> None:
        for job in list(self.active_jobs.values()):
            placed = job.placed_tasks()
            if placed and not job.is_fully_placed:
                count = self._stall_counter.get(job.job_id, 0) + 1
                self._stall_counter[job.job_id] = count
                if count > self.config.stall_ticks:
                    for task in placed:
                        self._evict_task(task)
                    self._stall_counter[job.job_id] = 0
            else:
                self._stall_counter.pop(job.job_id, None)

    def _finalize_unfinished(self) -> None:
        """Force-complete jobs still active when ``max_time`` is hit.

        Their metrics reflect the truncated run (missed deadlines, the
        accuracy actually reached) rather than being dropped, so an
        overload scenario cannot silently shed its worst jobs.
        """
        for job in list(self.active_jobs.values()):
            self._complete_job(job, stopped_early=False)
