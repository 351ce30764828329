"""RL state featurization (Section 3.4).

The paper's RL state covers "the information of tasks … of each task's
job … and of servers and nodes (GPUs)".  We encode each (task,
candidate-server) pair into a fixed-size vector combining:

* task features — resource demand, PS flag, partition-size share;
* job features — urgency, temporal iteration importance, loss-reduction
  ratio, progress, deadline slack, waiting time, parallelism shape;
* server features — per-resource utilization, overload degree,
  least-loaded-GPU utilization;
* interaction features — task↔server communication volume and the
  fraction of the job already co-located on the server.

Times are squashed with ``tanh`` over hour scales so features stay in
``[-1, 1]``-ish ranges suitable for the MLP policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.server import Server
from repro.core.placement import TaskCommIndex
from repro.core.priority import job_temporal_factor
from repro.sim.shadow import ShadowCluster
from repro.workload.job import Task

#: Dimension of the per-candidate feature vector.
FEATURE_SIZE = 20


@dataclass
class StateFeaturizer:
    """Builds policy features for (task, candidate server) decisions."""

    comm_index: TaskCommIndex = field(default_factory=TaskCommIndex)

    def task_features(self, task: Task, now: float) -> list[float]:
        """The candidate-independent part of the feature vector."""
        job = task.job
        slack_h = (job.deadline - now) / 3600.0
        waiting_h = task.waiting_time(now) / 3600.0
        progress = (
            job.iterations_completed / job.max_iterations if job.max_iterations else 0.0
        )
        total_params = job.total_params_m
        return [
            task.demand.gpu,
            task.demand.cpu / 32.0,
            task.demand.mem / 244.0,
            task.demand.bw / 1250.0,
            1.0 if task.is_parameter_server else 0.0,
            task.partition_params_m / total_params if total_params else 1.0,
            job.urgency / 10.0,
            job_temporal_factor(job),
            progress,
            math.tanh(slack_h / 12.0),
            math.tanh(waiting_h),
            math.tanh(job.gpus_requested / 32.0),
        ]

    def candidate_features(
        self,
        task: Task,
        server: Server,
        shadow: ShadowCluster,
        now: float,
        volume: float,
        task_part: list[float] | None = None,
    ) -> np.ndarray:
        """Feature vector for one (task, server) pair.

        ``volume`` is the task's communication volume to ``server``
        (see :meth:`TaskCommIndex.volumes_by_server`).
        """
        base = task_part if task_part is not None else self.task_features(task, now)
        util = shadow.utilization(server)
        least_gpu = shadow.gpu_utilization(server, shadow.least_loaded_gpu(server))
        colocated = self._colocated_fraction(task, server.server_id, shadow)
        server_part = [
            util.gpu,
            util.cpu,
            util.mem,
            util.bw,
            util.norm() / 2.0,
            least_gpu,
            math.tanh(volume / 500.0),
            colocated,
        ]
        features = np.asarray(base + server_part, dtype=np.float64)
        if features.shape[0] != FEATURE_SIZE:
            raise AssertionError(
                f"feature size drifted: {features.shape[0]} != {FEATURE_SIZE}"
            )
        return features

    def candidate_matrix(
        self,
        task: Task,
        servers: list[Server],
        shadow: ShadowCluster,
        now: float,
    ) -> np.ndarray:
        """Stacked features for every candidate server (rows)."""
        task_part = self.task_features(task, now)
        volumes = self.comm_index.volumes_by_server(task, shadow)
        rows = [
            self.candidate_features(
                task, server, shadow, now, volumes.get(server.server_id, 0.0), task_part
            )
            for server in servers
        ]
        return np.vstack(rows)

    def _colocated_fraction(
        self, task: Task, server_id: int, shadow: ShadowCluster
    ) -> float:
        peers = [t for t in task.job.tasks if t.task_id != task.task_id]
        if not peers:
            return 0.0
        on_server = sum(1 for t in peers if shadow.task_location(t) == server_id)
        return on_server / len(peers)
