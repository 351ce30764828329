"""Gandiva (Xiao et al., OSDI 2018) — as characterized in the paper.

"Gandiva uses first-in-first-out (FIFO) queuing.  Also, it defines the
jobs with the same number of GPU requirements as affinity jobs and tries
to put the affinity jobs to the same machine … to relieve the extra load
of an overloaded GPU …, Gandiva moves the job with the lowest GPU
utilization to the GPU with the lowest utilization" (Section 2).  It
considers only GPU load — not CPU/memory/bandwidth — and its migrations
ignore communication cost, which is why it shows the highest bandwidth
cost in Figure 4(g).

Rotation is *sliced*: the de-fragmentation scan runs every
``slice_passes``-th scheduling pass on a :class:`~repro.sim.clock.PassClock`
(Gandiva's minute-granularity time-slicing, expressed in pass units so
the counter is pure integers).  Because the clock is pass-indexed and
the per-GPU threshold is exposed to the engine through :meth:`can_park`,
Gandiva parks bit-identically: skipped passes are replayed through
:meth:`accrue` and a hot GPU vetoes parking so no due migration is ever
skipped (DESIGN.md §15.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.base import GangScheduler
from repro.cluster.cluster import Cluster
from repro.sim.clock import PassClock
from repro.sim.interface import Migration, SchedulerDecision, SchedulingContext
from repro.sim.shadow import ShadowCluster
from repro.workload.job import Job


@dataclass
class GandivaScheduler(GangScheduler):
    """FIFO + affinity packing + GPU-overload migration."""

    name: str = "Gandiva"
    gpu_overload_threshold: float = 0.90
    max_migrations_per_round: int = 8
    #: Rotation cadence: the migration scan runs every N-th pass (1 =
    #: every pass, the pre-slice behavior).
    slice_passes: int = 1
    _clock: PassClock = field(init=False)

    def __post_init__(self) -> None:
        self._clock = PassClock(max(1, self.slice_passes))

    def can_park(self, cluster: Cluster) -> bool:
        """Veto parking while any healthy GPU runs over our threshold.

        The engine's park precondition checks *server*-level overload
        against its own threshold; Gandiva migrates off individual GPUs
        above ``gpu_overload_threshold``, which a cool server can hide.
        While parked, GPU loads can only fall (placements need a pass),
        so a cold fleet at park time stays cold across the gap.
        """
        for server in cluster.servers:
            if server.failed:
                continue
            for gpu in server.gpus:
                if gpu.failed:
                    continue
                if gpu.utilization > self.gpu_overload_threshold:
                    return False
        return True

    def accrue(
        self,
        gap_seconds: float,
        *,
        skipped_passes: int,
        now: float,
        tick_seconds: float,
    ) -> None:
        """Replay the rotation clock over a parked gap.

        Every skipped pass was a no-op (no hot GPU — ``can_park`` held
        at park time and loads only fall while parked), so a rotation
        that fell due inside the gap scanned nothing and merely reset
        the clock; the :class:`PassClock` modulo is that loop's closed
        form, bit-identical because the state is an integer.
        """
        self._clock.advance(skipped_passes)

    def job_order(self, jobs: list[Job], ctx: SchedulingContext) -> list[Job]:
        return sorted(jobs, key=lambda j: (j.arrival_time, j.job_id))

    def preferred_servers(self, job: Job, ctx: SchedulingContext) -> list[int]:
        """Affinity: servers already hosting jobs with the same GPU count."""
        preferred = []
        for server in ctx.cluster.servers:
            for task in server.tasks():
                if task.job.gpus_requested == job.gpus_requested:
                    preferred.append(server.server_id)
                    break
        return preferred

    def extra_actions(
        self, ctx: SchedulingContext, shadow: ShadowCluster, decision: SchedulerDecision
    ) -> None:
        """Move the lowest-utilization task off each overloaded GPU.

        The destination is the cluster's least-utilized GPU; no other
        resource and no communication volume is consulted (Gandiva's
        GPU-only view).  Runs only when the slice clock fires — ticked
        here because ``extra_actions`` runs exactly once per pass.
        """
        if not self._clock.tick():
            return
        migrations = 0
        for server in ctx.cluster.servers:
            for gpu in server.gpus:
                if migrations >= self.max_migrations_per_round:
                    return
                if shadow.gpu_utilization(server, gpu.gpu_id) <= self.gpu_overload_threshold:
                    continue
                victims = [
                    t
                    for t in gpu.tasks()
                    if shadow.task_location(t) == server.server_id
                ]
                if not victims:
                    continue
                victim = min(victims, key=lambda t: (t.demand.gpu, t.task_id))
                target = self._least_utilized_gpu(ctx, shadow, exclude=(server.server_id, gpu.gpu_id))
                if target is None:
                    continue
                dst_server_id, dst_gpu_id = target
                if dst_server_id == server.server_id and dst_gpu_id == gpu.gpu_id:
                    continue
                shadow.commit_migration(victim, dst_server_id, dst_gpu_id)
                decision.migrations.append(Migration(victim, dst_server_id, dst_gpu_id))
                migrations += 1

    def _least_utilized_gpu(
        self,
        ctx: SchedulingContext,
        shadow: ShadowCluster,
        exclude: tuple[int, int],
    ) -> tuple[int, int] | None:
        best = None
        best_util = float("inf")
        for server in ctx.cluster.servers:
            if server.failed:
                continue  # a crashed server's idle GPUs are not destinations
            for gpu in server.gpus:
                if gpu.failed:
                    continue
                if (server.server_id, gpu.gpu_id) == exclude:
                    continue
                util = shadow.gpu_utilization(server, gpu.gpu_id)
                if util < best_util:
                    best_util = util
                    best = (server.server_id, gpu.gpu_id)
        return best
