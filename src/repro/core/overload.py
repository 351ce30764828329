"""Overloaded-server relief: migration-task selection (Section 3.3.3).

For an overloaded server MLF-H builds an *ideal virtual task to move
out* ``U_v``: for each overloaded resource the component is the maximum
utilization among the server's tasks (move out a heavy consumer of the
hot resource); for each underloaded resource the minimum (disturb the
cold resources least); the bandwidth component is 0 (moving the task
should sever no co-located communication).  The task closest to the
ideal migrates; the process repeats until the server is no longer
overloaded.

Two ML-feature refinements from the paper:

* high-priority tasks must not be selected — when GPUs are overloaded,
  candidates come only from the lowest-priority ``p_s`` fraction of the
  tasks on the overloaded GPUs;
* per-GPU overload is relieved first, then server-level overload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.resources import ResourceKind
from repro.cluster.server import Server
from repro.core.config import MLFSConfig
from repro.core.placement import TaskCommIndex
from repro.sim.shadow import ShadowCluster
from repro.workload.job import Task


@dataclass
class OverloadTracker:
    """EWMA-smoothed cluster overload degree ``O_c`` (Section 3.5).

    The instantaneous ``O_c = (1/|N|) * Σ_s ||U_s||`` is noisy round to
    round (placements land, iterations finish).  Admission control in the
    service layer compares a smoothed value against ``h_s`` so that a
    single hot round does not flap the admission gate: accept/reject
    decisions follow the sustained overload level, not one sample.
    """

    #: EWMA weight of the newest sample; 1.0 disables smoothing.
    alpha: float = 0.5
    value: float = 0.0
    _primed: bool = field(default=False, repr=False)

    def observe(self, degree: float) -> float:
        """Fold in one ``O_c`` sample; returns the smoothed value."""
        if not self._primed:
            self.value = degree
            self._primed = True
        else:
            self.value = self.alpha * degree + (1.0 - self.alpha) * self.value
        return self.value

    def exceeds(self, threshold: float) -> bool:
        """Whether the smoothed overload degree is above ``h_s``."""
        return self._primed and self.value > threshold


@dataclass
class MigrationSelector:
    """Chooses which tasks leave an overloaded server."""

    config: MLFSConfig
    comm_index: TaskCommIndex = field(default_factory=TaskCommIndex)

    def select(
        self,
        server: Server,
        shadow: ShadowCluster,
        priorities: dict[str, float],
        max_tasks: int = 64,
    ) -> list[Task]:
        """Pick migration tasks until the server is not overloaded.

        The selections are committed to ``shadow`` as removals (they are
        "virtually moved to the queue"); the caller decides where each
        selected task actually goes.
        """
        selected: list[Task] = []
        threshold = self.config.overload_threshold
        while len(selected) < max_tasks and shadow.is_overloaded(server, threshold):
            remaining = [
                t
                for t in server.tasks()
                if shadow.task_location(t) == server.server_id
            ]
            if not remaining:
                break
            pool = self._candidate_pool(server, shadow, remaining, priorities)
            victim = self._closest_to_ideal_task(server, shadow, pool)
            shadow.commit_removal(victim)
            selected.append(victim)
        return selected

    # -- candidate pools ------------------------------------------------------

    def _candidate_pool(
        self,
        server: Server,
        shadow: ShadowCluster,
        remaining: list[Task],
        priorities: dict[str, float],
    ) -> list[Task]:
        """The paper's ``p_s`` rule.

        While some GPU is overloaded: order that GPU's tasks by ascending
        priority and keep the bottom ``p_s`` fraction.  Otherwise all of
        the server's tasks are candidates.
        """
        threshold = self.config.overload_threshold
        hot_gpus = [
            g.gpu_id
            for g in server.gpus
            if shadow.gpu_utilization(server, g.gpu_id) > threshold
        ]
        if hot_gpus:
            hot_set = set(hot_gpus)
            on_hot = [t for t in remaining if t.gpu_id in hot_set]
            if on_hot:
                on_hot.sort(key=lambda t: (priorities.get(t.task_id, 0.0), t.task_id))
                count = max(
                    1,
                    int(math.ceil(len(on_hot) * self.config.migration_candidate_fraction)),
                )
                return on_hot[:count]
        return remaining

    # -- ideal virtual task ------------------------------------------------------

    def _closest_to_ideal_task(
        self, server: Server, shadow: ShadowCluster, pool: list[Task]
    ) -> Task:
        threshold = self.config.overload_threshold
        server_util = shadow.utilization(server)
        capacity = server.capacity

        def task_util(task: Task) -> list[float]:
            return [
                task.demand[kind] / capacity[kind] if capacity[kind] else 0.0
                for kind in ResourceKind
            ]

        utils = {t.task_id: task_util(t) for t in pool}
        ideal = []
        for kind in ResourceKind:
            values = [utils[t.task_id][int(kind)] for t in pool]
            if server_util[kind] > threshold:
                ideal.append(max(values))
            else:
                ideal.append(min(values))

        use_bw = self.config.use_bandwidth
        volumes = {}
        max_volume = 0.0
        if use_bw:
            for task in pool:
                volume = self.comm_index.volumes_by_server(task, shadow).get(
                    server.server_id, 0.0
                )
                volumes[task.task_id] = volume
                max_volume = max(max_volume, volume)

        best = pool[0]
        best_distance = math.inf
        for task in pool:
            distance_sq = sum(
                (u - i) ** 2 for u, i in zip(utils[task.task_id], ideal)
            )
            if use_bw and max_volume > 0:
                # Ideal communication-to-server volume is 0: migrating a
                # chatty task away creates new cross-server traffic.
                distance_sq += (volumes[task.task_id] / max_volume) ** 2
            distance = math.sqrt(distance_sq)
            if distance < best_distance - 1e-12:
                best_distance = distance
                best = task
        return best
