"""A multi-GPU server with CPU, memory and bandwidth capacities.

Mirrors the testbed of the paper's real experiments: AWS ``p3.8xlarge``
instances with 4 Tesla V100 GPUs, 32 vCPUs and 244 GB of memory each
(Section 4.1).  The server tracks the resource accounting needed by the
overload predicates of Section 3.3 — per-resource utilization against
``h_r`` and per-GPU utilization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cluster.gpu import GPU
from repro.cluster.resources import ResourceVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.workload.job import Task

#: Capacity of one AWS p3.8xlarge-like server (4 GPUs, 32 vCPU, 244 GB,
#: 10 Gb/s NIC expressed as 1250 MB/s).
DEFAULT_SERVER_CAPACITY = ResourceVector(gpu=4.0, cpu=32.0, mem=244.0, bw=1250.0)


@dataclass
class Server:
    """One server in the ML cluster.

    Parameters
    ----------
    server_id:
        Index of the server within the cluster.
    capacity:
        Total resources; the ``gpu`` component must equal the number of
        GPU devices times their per-device capacity.
    num_gpus:
        Number of discrete GPU devices on the server.
    """

    server_id: int
    capacity: ResourceVector = DEFAULT_SERVER_CAPACITY
    num_gpus: int = 4
    _failed: bool = field(default=False, init=False, repr=False)
    gpus: list[GPU] = field(default_factory=list)
    #: Monotonic count of load mutations (task placed or removed) on
    #: this server, including per-GPU load changes — they only happen
    #: through :meth:`place_task`/:meth:`remove_task`.  Lets callers
    #: memoize load-derived quantities (the iteration-duration model)
    #: and invalidate exactly when this host's load state changes.
    load_version: int = field(default=0, repr=False)
    _tasks: dict[str, "Task"] = field(default_factory=dict, repr=False)
    _load: ResourceVector = field(default_factory=ResourceVector.zeros, repr=False)
    #: The cluster whose arrays mirror this server (set by the cluster).
    _cluster: Optional["Cluster"] = field(default=None, init=False, repr=False, compare=False)
    _row: int = field(default=-1, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.gpus:
            per_gpu = self.capacity.gpu / self.num_gpus if self.num_gpus else 0.0
            self.gpus = [GPU(gpu_id=i, capacity=per_gpu) for i in range(self.num_gpus)]
        for gpu in self.gpus:
            gpu._server = self

    @property
    def failed(self) -> bool:
        """Fault-injection flag (repro.faults): a crashed server reports
        overloaded on every predicate and rejects placements until revived."""
        return self._failed

    @failed.setter
    def failed(self, value: bool) -> None:
        self._failed = value
        self.sync()

    def sync(self) -> None:
        """Mirror this server's load and flags into its cluster's arrays."""
        if self._cluster is not None:
            self._cluster.sync(self)

    # -- load accounting ---------------------------------------------------

    @property
    def load(self) -> ResourceVector:
        """Sum of the demands of all hosted tasks."""
        return self._load

    def utilization(self) -> ResourceVector:
        """The paper's ``U_s`` vector: per-resource load over capacity."""
        return self._load.divide_by(self.capacity).clamp_nonnegative()

    def healthy_gpus(self) -> list[GPU]:
        """The GPU devices not currently marked failed."""
        return [g for g in self.gpus if not g.failed]

    def least_loaded_gpu(self) -> GPU:
        """The GPU with the smallest utilization (placement target).

        Healthy devices are preferred; with every device failed the
        least-loaded failed one is returned so accounting paths (task
        removal, digests) keep working — placement predicates reject a
        failed device.
        """
        if not self.gpus:
            raise RuntimeError(f"server {self.server_id} has no GPUs")
        pool = self.healthy_gpus() or self.gpus
        return min(pool, key=lambda g: (g.utilization, g.gpu_id))

    # -- task placement ------------------------------------------------------

    def tasks(self) -> list["Task"]:
        """Snapshot list of the tasks hosted by this server."""
        return list(self._tasks.values())

    @property
    def task_count(self) -> int:
        """Number of tasks currently hosted."""
        return len(self._tasks)

    def place_task(self, task: "Task", gpu: Optional[GPU] = None) -> GPU:
        """Host a task, assigning it to ``gpu`` or the least-loaded GPU.

        Returns the GPU the task landed on.  The caller (the simulation
        engine) is responsible for updating the task's own placement
        bookkeeping.
        """
        if self.failed:
            raise ValueError(
                f"cannot place task {task.task_id}: server {self.server_id} failed"
            )
        if task.task_id in self._tasks:
            raise ValueError(
                f"task {task.task_id} already on server {self.server_id}"
            )
        target = gpu if gpu is not None else self.least_loaded_gpu()
        target.add_task(task)
        self._tasks[task.task_id] = task
        self._load = self._load + task.true_demand
        self.load_version += 1
        self.sync()
        return target

    def remove_task(self, task: "Task") -> None:
        """Release a hosted task and its resource demand."""
        if task.task_id not in self._tasks:
            raise KeyError(f"task {task.task_id} not on server {self.server_id}")
        gpu = self.gpus[task.gpu_id] if task.gpu_id is not None else None
        if gpu is not None and task.task_id in {t.task_id for t in gpu.tasks()}:
            gpu.remove_task(task)
        del self._tasks[task.task_id]
        self._load = (self._load - task.true_demand).clamp_nonnegative()
        self.load_version += 1
        self.sync()
