"""RIAL-style host selection for tasks (Section 3.3.2).

To place a task, MLF-H builds an *ideal virtual host server*

``U_V = (u_1,V, ..., u_M,V, u_BW,V, q_k,V)``

whose resource components are the minimum utilizations among the
underloaded servers, whose bandwidth component is the *maximum*
task↔server communication volume (so that high-volume communicating
tasks co-locate), and whose movement-degradation component ``q`` is 0.
The candidate closest to the ideal by Euclidean distance — and that
would not be overloaded by hosting the task — wins; the task then goes
to the server's least-loaded GPU.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.cluster.server import Server
from repro.core.config import MLFSConfig
from repro.sim.network import job_links
from repro.sim.shadow import ShadowCluster
from repro.workload.job import Job, Task


@dataclass(frozen=True, slots=True)
class HostChoice:
    """Outcome of host selection for one task."""

    server_id: int
    gpu_id: int
    distance: float


@dataclass
class TaskCommIndex:
    """Per-task communication peers, cached per job.

    For task ``k`` the index stores ``[(peer_task, volume_mb), ...]``
    across dependency edges and sync links, so one walk over a task's
    peers yields its communication volume to every server.

    The cache is built lazily per job and must be **invalidated on job
    completion** via :meth:`forget` (every scheduler holding an index
    calls it from ``on_job_complete``) — otherwise long sweeps and the
    service daemon's unbounded job stream grow it without bound.
    """

    _peers: dict[str, list[tuple[Task, float]]] = field(default_factory=dict)
    _indexed_jobs: set[str] = field(default_factory=set)

    def _index_job(self, job: Job) -> None:
        if job.job_id in self._indexed_jobs:
            return
        for link in job_links(job):
            self._peers.setdefault(link.src.task_id, []).append(
                (link.dst, link.volume_mb)
            )
            self._peers.setdefault(link.dst.task_id, []).append(
                (link.src, link.volume_mb)
            )
        self._indexed_jobs.add(job.job_id)

    def volumes_by_server(
        self, task: Task, shadow: ShadowCluster
    ) -> dict[int, float]:
        """Communication volume between ``task`` and each server hosting a peer.

        One walk over the task's peers; servers hosting none of them are
        absent (volume 0).  Each server's volume is summed in peer order.
        """
        self._index_job(task.job)
        volumes: dict[int, float] = {}
        for peer, volume in self._peers.get(task.task_id, ()):
            location = shadow.task_location(peer)
            if location is not None:
                volumes[location] = volumes.get(location, 0.0) + volume
        return volumes

    def forget(self, job: Job) -> None:
        """Drop the index of a finished job."""
        if job.job_id in self._indexed_jobs:
            for task in job.tasks:
                self._peers.pop(task.task_id, None)
            self._indexed_jobs.discard(job.job_id)

    def __len__(self) -> int:
        """Number of jobs currently indexed (leak checks in tests)."""
        return len(self._indexed_jobs)


#: Everything the placement predicates read of a server's live state:
#: ``failed``, the capacity and load 4-vectors, and each GPU's
#: ``(failed, capacity, load)``.
StateKey = tuple[Any, ...]


def state_key(server: Server) -> StateKey:
    """The live state ``would_overload`` and ``utilization_tuple`` read."""
    cap = server.capacity
    load = server.load
    return (
        server.failed,
        cap.gpu,
        cap.cpu,
        cap.mem,
        cap.bw,
        load.gpu,
        load.cpu,
        load.mem,
        load.bw,
        tuple([(g.failed, g.capacity, g.load) for g in server.gpus]),
    )


_SERVER_ID = attrgetter("server_id")


@dataclass
class ServerClasses:
    """Servers grouped into classes of equal :func:`state_key`.

    At Philly density nearly every server is a candidate for every
    task, yet only a few dozen distinct server states exist at a time
    (idle hosts of each shape, hosts carrying the same task mix).  Two
    servers with equal keys and no tentative shadow load answer
    ``would_overload`` and ``utilization_tuple`` identically, so
    :class:`PlacementEngine` evaluates them once per class.

    :meth:`refresh` rekeys only the servers the cluster changed since
    the last refresh (:meth:`~repro.cluster.cluster.Cluster.changed_since`).
    A class id names one key for the class's lifetime and is never
    reused, so its answers, read off the live state through a delta-free
    shadow, are memoised until the class empties.  Capacities and GPU
    lists are fixed for a server's lifetime.
    """

    cluster: Cluster
    #: Server id -> class id.
    class_of: list[int] = field(init=False)
    #: Class id -> member server ids, ascending.
    members: dict[int, list[int]] = field(init=False)
    _class_ids: dict[StateKey, int] = field(init=False, repr=False)
    _keys: list[Optional[StateKey]] = field(init=False, repr=False)
    #: Class id -> its members' utilization tuple.
    utils: dict[int, tuple[float, float, float, float]] = field(init=False, repr=False)
    #: Class id -> {(threshold, *demand): whether a member can host it}.
    _verdicts: dict[int, dict[tuple[float, ...], bool]] = field(init=False, repr=False)
    #: (threshold, *demand) -> :meth:`hosts` for the current live state.
    _hosts: dict[tuple[float, ...], list[Server]] = field(init=False, repr=False)
    _live: ShadowCluster = field(init=False, repr=False)
    _seen: int = field(init=False, repr=False)
    _next_id: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        servers = self.cluster.servers
        self.class_of = [-1] * len(servers)
        self.members = {}
        self._class_ids = {}
        self._keys = [None] * len(servers)
        self.utils = {}
        self._verdicts = {}
        self._hosts = {}
        self._live = ShadowCluster(self.cluster)
        self._seen = self.cluster.version
        for server in servers:
            self._rekey(server)

    def _rekey(self, server: Server) -> None:
        sid = server.server_id
        key = state_key(server)
        old = self.class_of[sid]
        cid = self._class_ids.get(key)
        if cid is not None and cid == old:
            return
        if old >= 0:
            members = self.members[old]
            members.remove(sid)
            if not members:
                del self.members[old], self._class_ids[self._keys[sid]]
                del self.utils[old], self._verdicts[old]
        if cid is None:
            cid = self._next_id
            self._next_id += 1
            self._class_ids[key] = cid
            self.members[cid] = [sid]
            self.utils[cid] = self._live.utilization_tuple(server)
            self._verdicts[cid] = {}
        else:
            bisect.insort(self.members[cid], sid)
        self.class_of[sid] = cid
        self._keys[sid] = key

    def refresh(self) -> None:
        """Rekey every server whose load or failure state moved."""
        if self._seen == self.cluster.version:
            return
        servers = self.cluster.servers
        for row in self.cluster.changed_since(self._seen):
            self._rekey(servers[row])
        self._seen = self.cluster.version
        self._hosts = {}

    def hosts(self, demand: ResourceVector, threshold: float) -> list[Server]:
        """The servers, in id order, of the classes that can host ``demand``."""
        key = (threshold, *demand.as_tuple())
        found = self._hosts.get(key)
        if found is None:
            servers = self.cluster.servers
            ids: list[int] = []
            for cid, members in self.members.items():
                verdicts = self._verdicts[cid]
                if key not in verdicts:
                    overloads = self._live.would_overload(servers[members[0]], demand, threshold)
                    verdicts[key] = not overloads
                if verdicts[key]:
                    ids.extend(members)
            found = self._hosts[key] = [servers[sid] for sid in sorted(ids)]
        return found


@dataclass
class PlacementEngine:
    """Selects host servers per the ideal-virtual-server rule."""

    config: MLFSConfig
    comm_index: TaskCommIndex = field(default_factory=TaskCommIndex)
    #: Pass-scoped server classes (see :class:`ServerClasses`), built
    #: lazily on the first query.  Cache state only — dropped on pickle
    #: (shadow tokens are process-local).
    _classes: Optional[ServerClasses] = field(default=None, init=False, repr=False)
    _classes_token: int = field(default=-1, init=False, repr=False)

    def _server_classes(self, shadow: ShadowCluster) -> ServerClasses:
        """The classes of ``shadow``'s cluster, fresh for this pass.

        A new shadow means a new pass; live loads never move while a
        pass runs, so the classes refresh once per shadow.  Callers that
        mutate *live* server loads mid-shadow must build a fresh
        :class:`~repro.sim.shadow.ShadowCluster` afterwards.
        """
        classes = self._classes
        if classes is None or classes.cluster is not shadow.cluster:
            classes = ServerClasses(shadow.cluster)
            self._classes = classes
        elif shadow.token != self._classes_token:
            classes.refresh()
        self._classes_token = shadow.token
        return classes

    def candidate_servers(
        self, task: Task, shadow: ShadowCluster
    ) -> list[Server]:
        """Servers that can host the task without overload, in id order.

        The live answer comes from :meth:`ServerClasses.hosts`: one
        ``would_overload`` verdict per server-state class and demand
        (the exact multi-resource predicate, which subsumes an
        underloaded-servers pre-filter since task demand is
        non-negative).  Servers with tentative shadow load are then
        checked on their own, per task, and added or dropped in place,
        which gives the same id-ordered list a per-server scan returns.
        """
        threshold = self.config.overload_threshold
        demand = task.demand
        hosts = list(self._server_classes(shadow).hosts(demand, threshold))
        servers = shadow.cluster.servers
        for sid in shadow.delta_server_ids():
            at = bisect.bisect_left(hosts, sid, key=_SERVER_ID)
            listed = at < len(hosts) and hosts[at].server_id == sid
            if shadow.would_overload(servers[sid], demand, threshold):
                if listed:
                    del hosts[at]
            elif not listed:
                hosts.insert(at, servers[sid])
        return hosts

    def __getstate__(self) -> dict[str, Any]:
        # Shadow tokens (the class freshness key) are process-local
        # counters; a restored engine rebuilds the classes lazily.
        state = self.__dict__.copy()
        state["_classes"] = None
        state["_classes_token"] = -1
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)

    def select_host(
        self,
        task: Task,
        shadow: ShadowCluster,
        movement_penalty: float = 0.0,
        candidates: Optional[list[Server]] = None,
    ) -> Optional[HostChoice]:
        """Pick the host closest to the ideal virtual server.

        ``movement_penalty`` is the normalized performance degradation
        ``q`` of moving this task (0 for fresh placements from the
        queue, positive for migrations).  ``candidates`` lets a caller
        that already computed :meth:`candidate_servers` for this task
        and shadow state skip the second scan.  Returns ``None`` when
        no underloaded server can host the task.
        """
        if candidates is None:
            candidates = self.candidate_servers(task, shadow)
        if not candidates:
            return None
        choice_id, distance = self._closest_to_ideal(
            task, candidates, shadow, movement_penalty
        )
        server = shadow.cluster.server(choice_id)
        gpu_id = shadow.least_loaded_gpu(server)
        return HostChoice(server_id=choice_id, gpu_id=gpu_id, distance=distance)

    def _closest_to_ideal(
        self,
        task: Task,
        candidates: list[Server],
        shadow: ShadowCluster,
        movement_penalty: float,
    ) -> tuple[int, float]:
        """The first candidate, in list order, nearest the ideal point.

        Only one *representative* per server-state class is evaluated:
        the class's first candidate in list order.  Servers with
        tentative shadow load or hosting one of the task's peers are
        their own representatives.  Every other class member has the
        same utilizations, zero volume and hence the same distance as
        its representative, so it neither moves the ideal point nor —
        under the strict ``distance < best - 1e-12`` rule, which never
        lets a later equal distance replace an earlier one — the choice.
        """
        use_bw = self.config.use_bandwidth
        volumes = self.comm_index.volumes_by_server(task, shadow) if use_bw else {}
        singles = shadow.delta_server_ids()
        singles.update(volumes)
        classes = self._server_classes(shadow)
        class_of = classes.class_of
        seen: set[int] = set()
        reps: list[Server] = []
        utils: list[tuple[float, float, float, float]] = []
        for server in candidates:
            sid = server.server_id
            if sid in singles:
                utils.append(shadow.utilization_tuple(server))
            else:
                cid = class_of[sid]
                if cid in seen:
                    continue
                seen.add(cid)
                utils.append(classes.utils[cid])
            reps.append(server)

        # Plain tuples and an unrolled distance loop: this runs per class
        # representative of every task placement, the RIAL hot path.
        ideal_0, ideal_1, ideal_2, ideal_3 = utils[0]
        for util in utils:
            if util[0] < ideal_0:
                ideal_0 = util[0]
            if util[1] < ideal_1:
                ideal_1 = util[1]
            if util[2] < ideal_2:
                ideal_2 = util[2]
            if util[3] < ideal_3:
                ideal_3 = util[3]
        # Peer hosts among the candidates are all representatives.
        max_volume = max(volumes.get(s.server_id, 0.0) for s in reps)

        penalty_sq = movement_penalty**2
        best_id = reps[0].server_id
        best_distance = math.inf
        for server, (u0, u1, u2, u3) in zip(reps, utils):
            d0 = u0 - ideal_0
            d1 = u1 - ideal_1
            d2 = u2 - ideal_2
            d3 = u3 - ideal_3
            distance_sq = d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3
            if max_volume > 0:
                # Ideal = the maximum volume (normalized to 1): servers
                # hosting more of the task's communication peers are
                # closer to the ideal.
                normalized = volumes.get(server.server_id, 0.0) / max_volume
                distance_sq += (normalized - 1.0) ** 2
            distance = math.sqrt(distance_sq + penalty_sq)
            if distance < best_distance - 1e-12:
                best_distance = distance
                best_id = server.server_id
        return best_id, best_distance
