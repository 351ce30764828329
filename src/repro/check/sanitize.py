"""Runtime invariant sanitizer (``REPRO_SANITIZE=1``).

The scheduler's correctness argument (Eqs. 2-6 of the paper) leans on
invariants the code maintains implicitly: resource ledgers conserve
what placement/migration/eviction move around, the waiting queue and
the cluster never disagree about where a task is, tasks are dequeued in
priority order, and a snapshot restores to an indistinguishable state.
A silent break (a leaked GPU after a botched eviction, a task placed
twice, a non-picklable scrap of state) corrupts every later round and
-- since the online service took over -- live telemetry, instead of one
batch run.

This module re-derives those invariants from first principles after
every scheduler round and raises a structured
:class:`InvariantViolation` naming the offending server/GPU/task/job
the moment one breaks.  It is opt-in: set ``REPRO_SANITIZE=1`` in the
environment (the CI job does), or pass ``SimulationEngine(sanitize=True)``
/ ``ServiceConfig(sanitize=True)`` explicitly.

Checked invariants
------------------
``resource-conservation``
    Every server/GPU ledger equals the sum of its hosted tasks'
    demands; no residual is negative.  (A mismatch is a leak: resources
    held by nobody, or double-freed.)
``placement-consistency``
    Every task hosted by a server points back at that server and GPU
    and is in the ``RUNNING`` state; GPU membership partitions server
    membership.
``queue-consistency``
    Every queued task belongs to a live job, is in the ``QUEUED``
    state, appears once, and is not simultaneously placed; no server
    hosts a task of a completed job.
``priority-order``
    The dequeue order the scheduler declares is job-grouped and
    monotone non-increasing in score, and placements are emitted as a
    subsequence of it (Section 3.3's priority-ordered dequeue).
``snapshot-roundtrip``
    ``pickle``-ing the engine and restoring it reproduces the exact
    observable state (the determinism contract behind crash-safe
    resume).  Engines holding non-picklable user objects skip this
    check (counted in :attr:`Sanitizer.snapshot_checks_skipped`).
``dead-server``
    Fault injection (:mod:`repro.faults`): a failed server hosts no
    tasks and holds no load, and a failed GPU hosts no tasks — killed
    work must have been fully released back to the queue, and no
    scheduler path may have re-placed onto lost hardware.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.cluster.cluster import Cluster
from repro.workload.job import TaskState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import SimulationEngine
    from repro.sim.interface import SchedulerDecision

__all__ = [
    "InvariantViolation",
    "Sanitizer",
    "SanitizingCluster",
    "check_cluster_conservation",
    "check_dead_servers",
    "check_dequeue_order",
    "check_queue_consistency",
    "check_snapshot_roundtrip",
    "engine_state_digest",
    "sanitize_from_env",
]

#: Relative tolerance for ledger-vs-recomputed comparisons: incremental
#: ``+=``/``-=`` accounting and a fresh sum differ by association order.
DEFAULT_TOLERANCE = 1e-6

#: Environment switch: any of these values turns the sanitizer on.
_TRUTHY = frozenset({"1", "true", "yes", "on", "strict"})


def sanitize_from_env(env_var: str = "REPRO_SANITIZE") -> bool:
    """Whether the environment asks for sanitized runs."""
    return os.environ.get(env_var, "").strip().lower() in _TRUTHY


class InvariantViolation(AssertionError):
    """A broken runtime invariant, carrying the offending entity ids.

    Attributes mirror the constructor: ``invariant`` is the stable
    check name (see the module docstring), and ``server_id`` /
    ``gpu_id`` / ``task_id`` / ``job_id`` name the culprit where known.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        server_id: Optional[int] = None,
        gpu_id: Optional[int] = None,
        task_id: Optional[str] = None,
        job_id: Optional[str] = None,
        round_index: Optional[int] = None,
        detail: Optional[dict[str, Any]] = None,
    ) -> None:
        self.invariant = invariant
        self.server_id = server_id
        self.gpu_id = gpu_id
        self.task_id = task_id
        self.job_id = job_id
        self.round_index = round_index
        self.detail = detail or {}
        culprits = ", ".join(
            f"{key}={value}"
            for key, value in (
                ("server", server_id),
                ("gpu", gpu_id),
                ("task", task_id),
                ("job", job_id),
                ("round", round_index),
            )
            if value is not None
        )
        suffix = f" [{culprits}]" if culprits else ""
        super().__init__(f"{invariant}: {message}{suffix}")


# ----------------------------------------------------------------------
# Resource conservation / placement consistency
# ----------------------------------------------------------------------


def check_cluster_conservation(
    cluster: Cluster,
    tolerance: float = DEFAULT_TOLERANCE,
    round_index: Optional[int] = None,
) -> None:
    """Assert every server/GPU ledger matches its hosted tasks exactly.

    Catches leaks in both directions: load retained after a task left
    (the classic leaked GPU) and load never accounted when one arrived.
    """
    for server in cluster.servers:
        hosted = server.tasks()
        expected = sum((t.true_demand for t in hosted), start=type(server.load)())
        for kind_name, have, want in zip(
            ("gpu", "cpu", "mem", "bw"), server.load, expected
        ):
            scale = max(1.0, abs(want))
            if abs(have - want) > tolerance * scale:
                raise InvariantViolation(
                    "resource-conservation",
                    f"server ledger {kind_name}={have:.9g} but hosted tasks "
                    f"sum to {want:.9g} (leak of {have - want:+.9g})",
                    server_id=server.server_id,
                    round_index=round_index,
                    detail={"resource": kind_name, "ledger": have, "recomputed": want},
                )
            if have < -tolerance:
                raise InvariantViolation(
                    "resource-conservation",
                    f"negative residual {kind_name}={have:.9g}",
                    server_id=server.server_id,
                    round_index=round_index,
                    detail={"resource": kind_name, "ledger": have},
                )
        server_task_ids = {t.task_id for t in hosted}
        for task in hosted:
            if task.server_id != server.server_id or task.state is not TaskState.RUNNING:
                raise InvariantViolation(
                    "placement-consistency",
                    f"hosted task points at server={task.server_id} "
                    f"state={task.state.value}",
                    server_id=server.server_id,
                    task_id=task.task_id,
                    job_id=task.job_id,
                    round_index=round_index,
                )
        gpu_task_ids: set[str] = set()
        for gpu in server.gpus:
            gpu_hosted = gpu.tasks()
            want_gpu = sum(t.true_demand.gpu for t in gpu_hosted)
            scale = max(1.0, abs(want_gpu))
            if abs(gpu.load - want_gpu) > tolerance * scale:
                raise InvariantViolation(
                    "resource-conservation",
                    f"GPU ledger {gpu.load:.9g} but hosted tasks sum to "
                    f"{want_gpu:.9g} (leak of {gpu.load - want_gpu:+.9g})",
                    server_id=server.server_id,
                    gpu_id=gpu.gpu_id,
                    round_index=round_index,
                    detail={"ledger": gpu.load, "recomputed": want_gpu},
                )
            for task in gpu_hosted:
                if task.task_id in gpu_task_ids:
                    raise InvariantViolation(
                        "placement-consistency",
                        "task hosted by two GPUs of the same server",
                        server_id=server.server_id,
                        gpu_id=gpu.gpu_id,
                        task_id=task.task_id,
                        round_index=round_index,
                    )
                if task.gpu_id != gpu.gpu_id:
                    raise InvariantViolation(
                        "placement-consistency",
                        f"task on GPU {gpu.gpu_id} points at gpu_id={task.gpu_id}",
                        server_id=server.server_id,
                        gpu_id=gpu.gpu_id,
                        task_id=task.task_id,
                        round_index=round_index,
                    )
            gpu_task_ids.update(t.task_id for t in gpu_hosted)
        if gpu_task_ids != server_task_ids:
            orphan = (gpu_task_ids ^ server_task_ids) or {"<none>"}
            raise InvariantViolation(
                "placement-consistency",
                f"GPU membership disagrees with server membership: {sorted(orphan)}",
                server_id=server.server_id,
                task_id=sorted(orphan)[0],
                round_index=round_index,
            )


class SanitizingCluster(Cluster):
    """A :class:`~repro.cluster.cluster.Cluster` that can audit itself.

    Drop-in replacement (``SanitizingCluster.build(...)`` works like
    ``Cluster.build``); call :meth:`verify` wherever an explicit
    conservation audit is wanted, e.g. between hand-applied decisions
    in tests.
    """

    def verify(
        self,
        tolerance: float = DEFAULT_TOLERANCE,
        round_index: Optional[int] = None,
    ) -> None:
        """Raise :class:`InvariantViolation` on any ledger inconsistency."""
        check_cluster_conservation(self, tolerance=tolerance, round_index=round_index)


# ----------------------------------------------------------------------
# Queue consistency
# ----------------------------------------------------------------------


def check_queue_consistency(
    engine: "SimulationEngine", round_index: Optional[int] = None
) -> None:
    """Assert queue/cluster/job bookkeeping agree about every task."""
    seen: set[str] = set()
    for task in engine.queue:
        if task.task_id in seen:
            raise InvariantViolation(
                "queue-consistency",
                "task queued twice",
                task_id=task.task_id,
                job_id=task.job_id,
                round_index=round_index,
            )
        seen.add(task.task_id)
        if task.job_id not in engine.active_jobs:
            raise InvariantViolation(
                "queue-consistency",
                "queued task belongs to a job that is not active",
                task_id=task.task_id,
                job_id=task.job_id,
                round_index=round_index,
            )
        if task.state is not TaskState.QUEUED or task.server_id is not None:
            raise InvariantViolation(
                "queue-consistency",
                f"queued task has state={task.state.value} "
                f"server_id={task.server_id} (queued and placed at once)",
                task_id=task.task_id,
                job_id=task.job_id,
                round_index=round_index,
            )
    for server in engine.cluster.servers:
        for task in server.tasks():
            if task.task_id in seen:
                raise InvariantViolation(
                    "queue-consistency",
                    "task is both placed on a server and in the waiting queue",
                    server_id=server.server_id,
                    task_id=task.task_id,
                    job_id=task.job_id,
                    round_index=round_index,
                )
            if task.job_id not in engine.active_jobs:
                raise InvariantViolation(
                    "queue-consistency",
                    "server hosts a task of a job that is not active",
                    server_id=server.server_id,
                    task_id=task.task_id,
                    job_id=task.job_id,
                    round_index=round_index,
                )


# ----------------------------------------------------------------------
# Dead servers (fault injection)
# ----------------------------------------------------------------------


def check_dead_servers(
    cluster: Cluster,
    tolerance: float = DEFAULT_TOLERANCE,
    round_index: Optional[int] = None,
) -> None:
    """Assert no task (or load) resides on failed hardware.

    After a ``server_crash``/``gpu_fail`` event the engine must have
    killed every resident task and released its demand, and no later
    placement/migration may target the dead server or device until it
    is revived.
    """
    for server in cluster.servers:
        if server.failed:
            hosted = server.tasks()
            if hosted:
                raise InvariantViolation(
                    "dead-server",
                    f"failed server still hosts {len(hosted)} task(s)",
                    server_id=server.server_id,
                    task_id=hosted[0].task_id,
                    job_id=hosted[0].job_id,
                    round_index=round_index,
                )
            residual = max(abs(v) for v in server.load.as_tuple())
            if residual > tolerance:
                raise InvariantViolation(
                    "dead-server",
                    f"failed server retains load (residual {residual:.9g})",
                    server_id=server.server_id,
                    round_index=round_index,
                )
        for gpu in server.gpus:
            if gpu.failed and gpu.task_count:
                bad = gpu.tasks()[0]
                raise InvariantViolation(
                    "dead-server",
                    f"failed GPU still hosts {gpu.task_count} task(s)",
                    server_id=server.server_id,
                    gpu_id=gpu.gpu_id,
                    task_id=bad.task_id,
                    job_id=bad.job_id,
                    round_index=round_index,
                )


# ----------------------------------------------------------------------
# Priority-ordered dequeue
# ----------------------------------------------------------------------


def check_dequeue_order(
    decision: "SchedulerDecision",
    tolerance: float = 1e-9,
    round_index: Optional[int] = None,
) -> None:
    """Assert the declared dequeue order is priority-monotone.

    Schedulers that dequeue by priority declare their ordered pool via
    :meth:`~repro.sim.interface.SchedulerDecision.record_dequeue`; the
    check enforces the :func:`~repro.core.mlf_h.order_pool` contract --
    each job's tasks contiguous, jobs ordered by non-increasing best
    score, tasks within a job by non-increasing score -- and that the
    round's placements were emitted as a subsequence of that order.
    Schedulers that declare nothing (FIFO and friends) are skipped.
    """
    order = decision.dequeue_order
    if not order:
        return
    scores = decision.dequeue_scores
    runs: list[tuple[str, float]] = []  # (job_id, best score), in order
    seen_jobs: set[str] = set()
    prev_job: Optional[str] = None
    prev_score: Optional[float] = None
    for job_id, task_id in order:
        score = scores.get(task_id, 0.0)
        if job_id != prev_job:
            if job_id in seen_jobs:
                raise InvariantViolation(
                    "priority-order",
                    "job's tasks are not contiguous in the dequeue order",
                    job_id=job_id,
                    task_id=task_id,
                    round_index=round_index,
                )
            seen_jobs.add(job_id)
            runs.append((job_id, score))
            prev_job = job_id
        elif prev_score is not None and score > prev_score + tolerance:
            raise InvariantViolation(
                "priority-order",
                f"task score {score:.9g} exceeds its predecessor "
                f"{prev_score:.9g} within job group",
                job_id=job_id,
                task_id=task_id,
                round_index=round_index,
            )
        prev_score = score
    for (job_a, best_a), (job_b, best_b) in zip(runs, runs[1:]):
        if best_b > best_a + tolerance:
            raise InvariantViolation(
                "priority-order",
                f"job group score {best_b:.9g} exceeds preceding group "
                f"{best_a:.9g}",
                job_id=job_b,
                round_index=round_index,
                detail={"preceding_job": job_a},
            )
    position = {task_id: i for i, (_job, task_id) in enumerate(order)}
    last = -1
    for placement in decision.placements:
        where = position.get(placement.task.task_id)
        if where is None:
            raise InvariantViolation(
                "priority-order",
                "placed task never appeared in the declared dequeue order",
                task_id=placement.task.task_id,
                job_id=placement.task.job_id,
                round_index=round_index,
            )
        if where < last:
            raise InvariantViolation(
                "priority-order",
                "placements are not a subsequence of the dequeue order",
                task_id=placement.task.task_id,
                job_id=placement.task.job_id,
                round_index=round_index,
            )
        last = where


# ----------------------------------------------------------------------
# Snapshot round-trip
# ----------------------------------------------------------------------


def engine_state_digest(engine: "SimulationEngine") -> tuple[Any, ...]:
    """A canonical, comparable summary of an engine's observable state.

    Everything that determines the future schedule is folded in: the
    clock, round counter, RNG state, queue order, per-job progress,
    per-server/GPU ledgers and membership, in-flight iterations and the
    pending event list.  Two engines with equal digests produce the
    same subsequent schedule.
    """
    servers = tuple(
        (
            server.server_id,
            server.failed,
            server.load.as_tuple(),
            tuple(sorted(t.task_id for t in server.tasks())),
            tuple(
                (
                    gpu.gpu_id,
                    gpu.failed,
                    gpu.load,
                    tuple(sorted(t.task_id for t in gpu.tasks())),
                )
                for gpu in server.gpus
            ),
        )
        for server in engine.cluster.servers
    )
    jobs = tuple(
        sorted(
            (
                job.job_id,
                job.state.value,
                job.iterations_completed,
                job.arrival_time,
            )
            for job in engine.active_jobs.values()
        )
    )
    iterations = tuple(
        sorted(
            (job_id, state.token, state.end_time, state.cross_mb)
            for job_id, state in engine._iteration.items()
        )
    )
    events = tuple(
        (
            time,
            seq,
            event.kind.value,
            _event_payload_key(event.payload),
        )
        for time, seq, event in engine._events._heap
    )
    faults = engine.faults.digest_state() if engine.faults is not None else None
    return (
        engine.now,
        engine.pass_index,
        engine._pending_arrivals,
        engine._rng.getstate(),
        tuple(t.task_id for t in engine.queue),
        jobs,
        iterations,
        servers,
        events,
        faults,
    )


def _event_payload_key(payload: Any) -> Any:
    if payload is None:
        return None
    if isinstance(payload, tuple):
        job, token = payload
        return (job.job_id, token)
    return payload.job_id


def check_snapshot_roundtrip(
    engine: "SimulationEngine", round_index: Optional[int] = None
) -> bool:
    """Assert ``restore(snapshot(engine))`` is observably identical.

    Returns ``False`` (check skipped) when the engine graph holds
    non-picklable user objects -- a foreign scheduler stub cannot be
    round-tripped, which is a capability gap, not a broken invariant.
    """
    try:
        blob = pickle.dumps(engine)
    except Exception:
        return False
    restored = pickle.loads(blob)
    before = engine_state_digest(engine)
    after = engine_state_digest(restored)
    if before != after:
        mismatch = _first_mismatch(before, after)
        raise InvariantViolation(
            "snapshot-roundtrip",
            f"restored engine state diverges at {mismatch}",
            round_index=round_index,
        )
    return True


_DIGEST_FIELDS = (
    "now",
    "pass_index",
    "pending_arrivals",
    "rng_state",
    "queue",
    "active_jobs",
    "iterations",
    "servers",
    "events",
    "faults",
)


def _first_mismatch(before: tuple[Any, ...], after: tuple[Any, ...]) -> str:
    for name, a, b in zip(_DIGEST_FIELDS, before, after):
        if a != b:
            return name
    return "<unknown>"


# ----------------------------------------------------------------------
# The per-round driver
# ----------------------------------------------------------------------


@dataclass
class Sanitizer:
    """Runs every invariant check after each scheduler round.

    ``snapshot_every`` throttles the (comparatively expensive) pickle
    round-trip check; the cheap ledger/queue/order checks always run.
    Override via the ``REPRO_SANITIZE_SNAPSHOT_EVERY`` environment
    variable when sanitizing long simulations.
    """

    tolerance: float = DEFAULT_TOLERANCE
    snapshot_every: int = field(
        default_factory=lambda: max(
            1, int(os.environ.get("REPRO_SANITIZE_SNAPSHOT_EVERY", "1") or "1")
        )
    )
    rounds_checked: int = 0
    violations_raised: int = 0
    snapshot_checks_skipped: int = 0

    def check_round(
        self,
        engine: "SimulationEngine",
        decision: Optional["SchedulerDecision"] = None,
    ) -> None:
        """Audit one completed round; raises :class:`InvariantViolation`."""
        round_index = engine.pass_index
        self.rounds_checked += 1
        try:
            check_cluster_conservation(
                engine.cluster, tolerance=self.tolerance, round_index=round_index
            )
            check_queue_consistency(engine, round_index=round_index)
            check_dead_servers(
                engine.cluster, tolerance=self.tolerance, round_index=round_index
            )
            if decision is not None:
                check_dequeue_order(decision, round_index=round_index)
            if self.rounds_checked % self.snapshot_every == 0:
                if not check_snapshot_roundtrip(engine, round_index=round_index):
                    self.snapshot_checks_skipped += 1
        except InvariantViolation:
            self.violations_raised += 1
            raise
