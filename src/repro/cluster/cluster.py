"""The ML cluster: a set of servers plus the global waiting queue view.

Provides the cluster-wide aggregates used by MLF-C (Section 3.5): the
cluster utilization ``U_c`` and the overload degree
``O_c = (1/|N|) * sum_s ||U_s||`` compared against the threshold ``h_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional

import numpy as np

from repro.cluster.resources import ResourceKind, ResourceVector
from repro.cluster.server import DEFAULT_SERVER_CAPACITY, Server

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.job import Task


@dataclass
class Cluster:
    """A collection of :class:`~repro.cluster.server.Server` objects.

    Arrays mirror the servers' live state, one row per server: capacity,
    load and failed flag.  Every load change and server or GPU ``failed``
    write reaches :meth:`sync`, which bumps :attr:`version`; aggregates
    are memoised on it.  A server belongs to one cluster, and the server
    list is fixed after construction.
    """

    servers: list[Server] = field(default_factory=list)
    version: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._attach()

    def _attach(self) -> None:
        """Claim the servers and (re)build the arrays from them."""
        for row, server in enumerate(self.servers):
            server._cluster, server._row = self, row
        n, servers = len(self.servers), self.servers
        # Column-major, so the aggregates below work on contiguous columns.
        capacity = np.array([s.capacity.as_tuple() for s in servers], float, order="F")
        loads = np.array([s.load.as_tuple() for s in servers], float, order="F")
        self._capacity, self._loads = capacity.reshape(n, 4), loads.reshape(n, 4)
        # A zero capacity divides by inf: 0 for any finite load.
        self._divisor = np.where(self._capacity != 0, self._capacity, np.inf)
        self._failed = np.array([s.failed for s in self.servers], dtype=bool)
        self._stamps = np.full(n, self.version)
        self._memo: dict[Any, Any] = {"version": -1}

    def __getstate__(self) -> dict[str, Any]:
        # The private attributes are the arrays and memo: derived state.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._attach()

    def sync(self, server: Server) -> None:
        """Copy one server's load and failed flag into its row."""
        row = server._row
        self._loads[row] = server.load.as_tuple()
        self._failed[row] = server.failed
        self.version += 1
        self._stamps[row] = self.version

    def changed_since(self, version: int) -> list[int]:
        """Rows, ascending, changed after ``version``."""
        return np.flatnonzero(self._stamps > version).tolist()

    def _cache(self) -> dict[Any, Any]:
        """Clamped load over capacity per row (``"util"``) and values
        derived from it, rebuilt whenever a row changes."""
        if self._memo["version"] != self.version:
            util = self._loads / self._divisor
            self._memo = {"version": self.version, "util": np.maximum(util, 0.0, out=util)}
        return self._memo

    @classmethod
    def build(
        cls,
        num_servers: int,
        gpus_per_server: int = 4,
        capacity: Optional[ResourceVector] = None,
    ) -> "Cluster":
        """Construct a homogeneous cluster.

        Defaults match the paper's real testbed shape: 20 servers with
        4 GPUs each form the 80-GPU cluster; the large-scale simulation
        uses 550 servers and 2474 GPUs.
        """
        base = capacity or DEFAULT_SERVER_CAPACITY
        per_device = base.gpu / base.gpu if base.gpu else 1.0  # 1.0 per device
        cap = ResourceVector(
            gpu=float(gpus_per_server) * per_device,
            cpu=base.cpu,
            mem=base.mem,
            bw=base.bw,
        )
        servers = [
            Server(server_id=i, capacity=cap, num_gpus=gpus_per_server)
            for i in range(num_servers)
        ]
        return cls(servers=servers)

    # -- lookup ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.servers)

    def __iter__(self) -> Iterator[Server]:
        return iter(self.servers)

    def server(self, server_id: int) -> Server:
        """Return the server with the given id."""
        return self.servers[server_id]

    @property
    def total_gpus(self) -> int:
        """Total number of GPU devices across all servers."""
        return sum(s.num_gpus for s in self.servers)

    def total_capacity(self) -> ResourceVector:
        """Element-wise sum of every server's capacity."""
        total = ResourceVector.zeros()
        for server in self.servers:
            total = total + server.capacity
        return total

    def total_load(self) -> ResourceVector:
        """Element-wise sum of every server's current load."""
        total = ResourceVector.zeros()
        for server in self.servers:
            total = total + server.load
        return total

    # -- fault state (repro.faults) ----------------------------------------

    def healthy_servers(self) -> list[Server]:
        """Servers not currently marked failed by fault injection."""
        return [self.servers[i] for i in np.flatnonzero(~self._failed).tolist()]

    def failed_servers(self) -> list[Server]:
        """Servers currently marked failed by fault injection."""
        return [self.servers[i] for i in np.flatnonzero(self._failed).tolist()]

    # -- overload predicates (Sections 3.3.2 / 3.5) ------------------------
    # Elementwise over the rows and bit-identical to a per-server scalar
    # scan for finite loads: the same ``/``, clamps and summation order.

    def _overloaded_rows(self, threshold: float) -> list[int]:
        """Rows failed or with any utilization above ``threshold``."""
        cache = self._cache()
        if threshold not in cache:
            mask = (cache["util"].max(axis=1) > threshold) | self._failed
            cache[threshold] = np.flatnonzero(mask).tolist()
        return cache[threshold]

    def overloaded_servers(self, threshold: float) -> list[Server]:
        """Servers with any resource utilization above ``h_r`` (or failed)."""
        return [self.servers[i] for i in self._overloaded_rows(threshold)]

    def underloaded_servers(self, threshold: float) -> list[Server]:
        """Servers with every resource utilization at or below ``h_r``."""
        over = set(self._overloaded_rows(threshold))
        return [s for i, s in enumerate(self.servers) if i not in over]

    def cluster_utilization(self) -> list[ResourceVector]:
        """The paper's ``U_c``: the list of per-server utilization vectors."""
        return [s.utilization() for s in self.servers]

    def overload_degree(self) -> float:
        """``O_c`` — mean of per-server overload degrees ``||U_s||`` (Section 3.5)."""
        cache = self._cache()
        if "degree" not in cache:
            squares = cache["util"] * cache["util"]
            norms = np.sqrt(squares[:, 0] + squares[:, 1] + squares[:, 2] + squares[:, 3])
            # Python's left-to-right sum (as a per-server scan adds), not
            # numpy's pairwise one.
            cache["degree"] = sum(norms.tolist()) / len(self.servers) if self.servers else 0.0
        return cache["degree"]

    def is_overloaded(self, threshold: float, queue_nonempty: bool = False) -> bool:
        """MLF-C's system-overload predicate.

        "The system is considered to be overloaded when there are tasks
        in the queue or when ``O_c > h_s``" (Section 3.5).
        """
        return queue_nonempty or self.overload_degree() > threshold

    # -- convenience -------------------------------------------------------

    def running_tasks(self) -> list["Task"]:
        """All tasks currently placed on any server."""
        tasks: list["Task"] = []
        for server in self.servers:
            tasks.extend(server.tasks())
        return tasks

    def find_task_server(self, task_id: str) -> Optional[Server]:
        """Locate the server hosting a task, or ``None``."""
        for server in self.servers:
            if any(t.task_id == task_id for t in server.tasks()):
                return server
        return None


def mean_utilization(servers: Iterable[Server]) -> ResourceVector:
    """Average utilization vector over a set of servers."""
    servers = list(servers)
    if not servers:
        return ResourceVector.zeros()
    total = ResourceVector.zeros()
    for server in servers:
        total = total + server.utilization()
    return total * (1.0 / len(servers))



def capacity_bounds(cluster: Cluster) -> tuple[ResourceVector, ResourceVector]:
    """Element-wise sum and maximum of every server's capacity.

    Failed servers count: faults only flag hardware, so the bounds hold
    for the cluster's lifetime.
    """
    total = largest = ResourceVector.zeros()
    for server in cluster.servers:
        total = total + server.capacity
        largest = largest.element_max(server.capacity)
    return total, largest


def infeasible_reason(
    tasks: Iterable["Task"],
    bounds: tuple[ResourceVector, ResourceVector],
    threshold: float,
) -> Optional[str]:
    """Why a job's tasks can never all be placed, or ``None``.

    Placement keeps every server at or under ``threshold`` of its
    capacity (Section 3.3.2) and a job iterates only once its whole gang
    is placed, so the job can never run when, for some resource, its
    summed task ``demand`` exceeds ``threshold`` × the total capacity,
    or one task's ``demand`` exceeds ``threshold`` × the largest server
    (``bounds`` is :func:`capacity_bounds`).  A job that lacks room only
    while servers are down must wait, so it is not rejected.
    """
    columns = list(zip(*(task.demand.as_tuple() for task in tasks)))
    if not columns:
        return None
    summed = [sum(column) for column in columns]
    widest = [max(column) for column in columns]
    checks = (("", summed, bounds[0]), ("one task's ", widest, bounds[1]))
    for what, need, have in checks:
        for kind, amount, capacity in zip(ResourceKind, need, have):
            limit = threshold * capacity
            if capacity and amount > limit + 1e-9:
                amounts = f"{round(amount, 3)} > {round(limit, 3)}"
                return f"infeasible: {what}{kind.name.lower()} {amounts}"
    return None
