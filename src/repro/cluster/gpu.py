"""A single GPU device inside a server.

The paper schedules each task onto the least-loaded GPU of a chosen
server (Section 3.3.2) and requires that no individual GPU become
overloaded (Section 3.3.3).  A GPU here is a share-able device: every
hosted task contributes a fractional ``gpu`` demand and the device's
utilization is the sum of those demands over its capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cluster.server import Server
    from repro.workload.job import Task


@dataclass
class GPU:
    """One GPU device.

    Parameters
    ----------
    gpu_id:
        Index of the device within its server.
    capacity:
        Compute capacity in fractional device units; ``1.0`` for a whole
        device.  A task demanding ``0.5`` occupies half the device.
    """

    gpu_id: int
    capacity: float = 1.0
    _failed: bool = field(default=False, init=False, repr=False)
    _tasks: dict[str, "Task"] = field(default_factory=dict, repr=False)
    _load: float = field(default=0.0, repr=False)
    #: The server holding this device (set by it), told of flag flips.
    _server: Optional["Server"] = field(default=None, init=False, repr=False, compare=False)

    @property
    def failed(self) -> bool:
        """Fault-injection flag (repro.faults): a failed device keeps its
        accounting but refuses new work until revived."""
        return self._failed

    @failed.setter
    def failed(self, value: bool) -> None:
        self._failed = value
        if self._server is not None:
            self._server.sync()

    @property
    def load(self) -> float:
        """Sum of the ``gpu`` demands of the hosted tasks."""
        return self._load

    @property
    def utilization(self) -> float:
        """Load normalized by capacity; may exceed 1.0 when oversubscribed."""
        return self._load / self.capacity if self.capacity else 0.0

    @property
    def task_count(self) -> int:
        """Number of tasks currently assigned to this device."""
        return len(self._tasks)

    def tasks(self) -> list["Task"]:
        """Snapshot list of the tasks assigned to this device."""
        return list(self._tasks.values())

    def add_task(self, task: "Task") -> None:
        """Account a task's GPU demand onto this device."""
        if self.failed:
            raise ValueError(f"cannot place task {task.task_id}: GPU {self.gpu_id} failed")
        if task.task_id in self._tasks:
            raise ValueError(f"task {task.task_id} already on GPU {self.gpu_id}")
        self._tasks[task.task_id] = task
        self._load += task.true_demand.gpu

    def remove_task(self, task: "Task") -> None:
        """Release a task's GPU demand from this device."""
        if task.task_id not in self._tasks:
            raise KeyError(f"task {task.task_id} not on GPU {self.gpu_id}")
        del self._tasks[task.task_id]
        self._load -= task.true_demand.gpu
        if self._load < 1e-12:
            self._load = 0.0
