"""Shadow resource accounting for batch scheduling decisions.

A scheduler emits a *batch* of placements per round, but the live
cluster only reflects them after the engine applies the decision.  The
:class:`ShadowCluster` overlays tentative demand on top of the real
loads so that capacity checks within one round see earlier choices of
the same round.  Schedulers must never mutate the real cluster.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.cluster.server import Server
from repro.workload.job import Task

#: What :meth:`ShadowCluster.snapshot` captures: (server deltas, GPU
#: deltas, tentative task locations).
ShadowSnapshot = tuple[
    dict[int, ResourceVector], dict[tuple[int, int], float], dict[str, Optional[int]]
]


#: Process-wide monotonic shadow identities.  A scheduler builds one
#: shadow per scheduling pass, so a changed token tells pass-scoped
#: caches (the placement index) "new pass — live loads may have moved".
#: ``id()`` cannot serve here: CPython reuses addresses after GC.
_SHADOW_TOKENS = itertools.count(1)


@dataclass
class ShadowCluster:
    """Read-through view of a cluster with tentative load deltas."""

    cluster: Cluster
    _server_delta: dict[int, ResourceVector] = field(default_factory=dict)
    _gpu_delta: dict[tuple[int, int], float] = field(default_factory=dict)
    #: Tentative task locations: task_id -> server_id (placements and
    #: migrations committed this round; ``None`` marks removals).
    _locations: dict[str, Optional[int]] = field(default_factory=dict)
    #: Monotonic instance identity (see ``_SHADOW_TOKENS``).  Not
    #: meaningful across processes — pass-scoped caches keyed on it must
    #: drop their state on unpickle.
    token: int = field(default_factory=lambda: next(_SHADOW_TOKENS))

    # -- queries -----------------------------------------------------------

    def delta_server_ids(self) -> set[int]:
        """Server ids whose shadow load differs from the live load.

        Incremental candidate structures prefilter on *live* loads; any
        server touched by this round's tentative commits must be
        re-examined exactly (an eviction can free capacity the live
        view does not show yet).
        """
        return set(self._server_delta)

    def server_load(self, server: Server) -> ResourceVector:
        """Real + tentative load of a server."""
        delta = self._server_delta.get(server.server_id)
        if delta is None:
            return server.load.clamp_nonnegative()
        return (server.load + delta).clamp_nonnegative()

    def utilization(self, server: Server) -> ResourceVector:
        """Utilization vector including tentative load."""
        return self.server_load(server).divide_by(server.capacity).clamp_nonnegative()

    def utilization_tuple(
        self, server: Server
    ) -> tuple[float, float, float, float]:
        """:meth:`utilization` as a plain tuple, allocation-free.

        The RIAL distance loop reads utilizations for every candidate
        server of every task; going through :class:`ResourceVector`
        there costs three allocations per server per query.  Numerically
        identical to ``utilization(server).as_tuple()``.
        """
        load = server.load
        lg, lc, lm, lb = load.gpu, load.cpu, load.mem, load.bw
        delta = self._server_delta.get(server.server_id)
        if delta is not None:
            lg += delta.gpu
            lc += delta.cpu
            lm += delta.mem
            lb += delta.bw
        cap = server.capacity
        ug = lg / cap.gpu if cap.gpu else 0.0
        uc = lc / cap.cpu if cap.cpu else 0.0
        um = lm / cap.mem if cap.mem else 0.0
        ub = lb / cap.bw if cap.bw else 0.0
        return (
            ug if ug > 0.0 else 0.0,
            uc if uc > 0.0 else 0.0,
            um if um > 0.0 else 0.0,
            ub if ub > 0.0 else 0.0,
        )

    def overload_degree(self, server: Server) -> float:
        """``||U_s||`` including tentative load."""
        return self.utilization(server).norm()

    def gpu_load(self, server: Server, gpu_id: int) -> float:
        """Real + tentative load of one GPU."""
        gpu = server.gpus[gpu_id]
        return gpu.load + self._gpu_delta.get((server.server_id, gpu_id), 0.0)

    def gpu_utilization(self, server: Server, gpu_id: int) -> float:
        """GPU utilization including tentative load."""
        gpu = server.gpus[gpu_id]
        return self.gpu_load(server, gpu_id) / gpu.capacity if gpu.capacity else 0.0

    def least_loaded_gpu(self, server: Server) -> int:
        """GPU id with the smallest shadow utilization (healthy first)."""
        if not server.gpus:
            raise RuntimeError(f"server {server.server_id} has no GPUs")
        pool = server.healthy_gpus() or server.gpus
        return min(
            (g.gpu_id for g in pool),
            key=lambda gid: (self.gpu_utilization(server, gid), gid),
        )

    def is_overloaded(self, server: Server, threshold: float) -> bool:
        """Shadow-aware server overload predicate (failed ⇒ overloaded)."""
        return server.failed or self.utilization(server).exceeds_any(threshold)

    def would_overload(
        self,
        server: Server,
        demand: ResourceVector,
        threshold: float,
        gpu_id: Optional[int] = None,
    ) -> bool:
        """Whether hosting ``demand`` would overload server or target GPU.

        Failed servers and failed GPUs (including a server whose every
        device failed) always overload, so no scheduler path routes work
        onto lost hardware.

        This predicate runs once per (task, server) pair inside every
        placement scan — the hottest loop at Philly scale — so it is
        written scalar-wise, allocating no intermediate
        :class:`ResourceVector`; numerically it matches the composed
        ``server_load``/``divide_by``/``exceeds_any`` path exactly.
        """
        if server.failed:
            return True
        load = server.load
        lg, lc, lm, lb = load.gpu, load.cpu, load.mem, load.bw
        delta = self._server_delta.get(server.server_id)
        if delta is not None:
            lg += delta.gpu
            lc += delta.cpu
            lm += delta.mem
            lb += delta.bw
        # clamp_nonnegative of the shadow load, unrolled.
        if lg < 0.0:
            lg = 0.0
        if lc < 0.0:
            lc = 0.0
        if lm < 0.0:
            lm = 0.0
        if lb < 0.0:
            lb = 0.0
        cap = server.capacity
        if (
            (cap.gpu and (lg + demand.gpu) / cap.gpu > threshold)
            or (cap.cpu and (lc + demand.cpu) / cap.cpu > threshold)
            or (cap.mem and (lm + demand.mem) / cap.mem > threshold)
            or (cap.bw and (lb + demand.bw) / cap.bw > threshold)
        ):
            return True
        if gpu_id is not None:
            gpu = server.gpus[gpu_id]
            if gpu.failed:
                return True
            if not gpu.capacity:
                return demand.gpu > 0
            return (self.gpu_load(server, gpu_id) + demand.gpu) / gpu.capacity > threshold
        if not server.gpus:
            raise RuntimeError(f"server {server.server_id} has no GPUs")
        # Inline least_loaded_gpu over healthy devices: iteration is in
        # gpu_id order and strict ``<`` keeps the first minimum, matching
        # the ``(utilization, gpu_id)`` tie-break of the method.
        gpu_delta = self._gpu_delta
        sid = server.server_id
        best = None
        best_util = math.inf
        for g in server.gpus:
            if g.failed:
                continue
            g_load = g.load + gpu_delta.get((sid, g.gpu_id), 0.0)
            util = g_load / g.capacity if g.capacity else 0.0
            if util < best_util:
                best_util = util
                best = g
        if best is None:
            # Every device failed: least_loaded_gpu would fall back to a
            # failed GPU, which always overloads.
            return True
        if not best.capacity:
            return demand.gpu > 0
        return (best.load + gpu_delta.get((sid, best.gpu_id), 0.0) + demand.gpu) / best.capacity > threshold

    def task_location(self, task: Task) -> Optional[int]:
        """Server id hosting the task, honoring this round's tentative moves."""
        if task.task_id in self._locations:
            return self._locations[task.task_id]
        return task.server_id

    # -- commits -----------------------------------------------------------

    def commit_placement(self, task: Task, server_id: int, gpu_id: int) -> None:
        """Record a tentative placement of a queued task."""
        self._add(server_id, gpu_id, task.demand)
        self._locations[task.task_id] = server_id

    def commit_removal(self, task: Task) -> None:
        """Record a tentative removal (eviction or migration source)."""
        location = self.task_location(task)
        if location is None:
            raise ValueError(f"task {task.task_id} has no location to remove")
        gpu_id = task.gpu_id if task.gpu_id is not None else 0
        self._add(location, gpu_id, task.demand * -1.0)
        self._locations[task.task_id] = None

    def commit_migration(self, task: Task, dst_server_id: int, dst_gpu_id: int) -> None:
        """Record a tentative migration (removal + placement)."""
        self.commit_removal(task)
        self._add(dst_server_id, dst_gpu_id, task.demand)
        self._locations[task.task_id] = dst_server_id

    # -- snapshot / rollback -------------------------------------------------

    def snapshot(self) -> ShadowSnapshot:
        """Capture the tentative state (for speculative packing)."""
        return (
            dict(self._server_delta),
            dict(self._gpu_delta),
            dict(self._locations),
        )

    def restore(self, snapshot: ShadowSnapshot) -> None:
        """Roll back to a state captured by :meth:`snapshot`."""
        server_delta, gpu_delta, locations = snapshot
        self._server_delta = dict(server_delta)
        self._gpu_delta = dict(gpu_delta)
        self._locations = dict(locations)

    def _add(self, server_id: int, gpu_id: int, demand: ResourceVector) -> None:
        current = self._server_delta.get(server_id, ResourceVector.zeros())
        self._server_delta[server_id] = current + demand
        key = (server_id, gpu_id)
        self._gpu_delta[key] = self._gpu_delta.get(key, 0.0) + demand.gpu
