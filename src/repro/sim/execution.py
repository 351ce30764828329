"""Iteration execution model: how long one training iteration takes.

One iteration of a fully-placed job costs

``duration = critical_path(compute with contention slowdowns) + comm``

* each task's compute time is stretched by its GPU's oversubscription
  factor and by any CPU/memory overload of its host server — this is the
  mechanism by which "overloaded server → long job latency, low accuracy
  by job deadline" (Figure 1) materializes in the simulator;
* the critical path respects the model-partition dependency DAG
  (sequential partitions serialize, layered partitions overlap);
* communication time comes from :mod:`repro.sim.network`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.workload.job import Job, Task
from repro.sim.network import CommLink, IterationComm, iteration_comm, job_links


@dataclass
class ExecutionModel:
    """Computes iteration durations, with per-job caches.

    Parameters
    ----------
    straggler_probability / straggler_slowdown:
        Optional failure injection (paper Section 3.3.3 discusses
        stragglers as future work): each iteration independently suffers
        a slowdown with the given probability.
    """

    straggler_probability: float = 0.0
    straggler_slowdown: float = 3.0

    _links_cache: dict[str, list[CommLink]] = field(default_factory=dict, repr=False)
    #: Memoized (placement+load key, compute seconds, comm) per job: a
    #: job iterating on an otherwise-quiet cluster re-derives the exact
    #: same critical path and comm time every iteration.  The key pins
    #: each task's (server, gpu, server load version), which covers
    #: every input of the duration model, so a hit is exact — see
    #: :meth:`iteration_duration`.
    _duration_cache: dict[
        str,
        tuple[tuple[tuple[int | None, int | None, int], ...], float, IterationComm],
    ] = field(default_factory=dict, repr=False)

    # -- caches ----------------------------------------------------------

    def links(self, job: Job) -> list[CommLink]:
        """Cached communication links of the job."""
        cached = self._links_cache.get(job.job_id)
        if cached is None:
            cached = job_links(job)
            self._links_cache[job.job_id] = cached
        return cached

    def forget(self, job: Job) -> None:
        """Drop caches of a finished job."""
        self._links_cache.pop(job.job_id, None)
        self._duration_cache.pop(job.job_id, None)

    # -- the model -------------------------------------------------------

    def task_slowdown(self, task: Task, cluster: Cluster) -> float:
        """Contention multiplier (>= 1) for one placed task."""
        if task.server_id is None or task.gpu_id is None:
            raise ValueError(f"task {task.task_id} is not placed")
        server = cluster.server(task.server_id)
        gpu = server.gpus[task.gpu_id]
        slowdown = max(1.0, gpu.utilization)
        # Scalar cpu/mem utilizations: this runs for every task of every
        # iteration start, and ``server.utilization()`` would allocate
        # two vectors per call.  ``max(1.0, clamp0(x)) == max(1.0, x)``,
        # so the clamp folds into the floor.
        load = server.load
        cap = server.capacity
        slowdown *= max(1.0, load.cpu / cap.cpu if cap.cpu else 0.0)
        slowdown *= max(1.0, load.mem / cap.mem if cap.mem else 0.0)
        return slowdown

    def compute_critical_path(self, job: Job, cluster: Cluster) -> float:
        """Longest dependency chain of contention-adjusted compute times."""
        return job.dag.critical_path(
            {
                task.task_id: task.compute_seconds * self.task_slowdown(task, cluster)
                for task in job.tasks
            }
        )

    def iteration_duration(
        self, job: Job, cluster: Cluster, straggler_draw: float = 1.0
    ) -> tuple[float, float]:
        """Duration (seconds) and cross-server volume (MB) of one iteration.

        ``straggler_draw`` is a uniform [0, 1) sample from the engine's
        RNG; the straggler slowdown applies when it falls below
        ``straggler_probability``.

        The pre-straggler (compute, comm) pair is memoized against the
        job's placement-and-load key: durations depend only on each
        task's (server, gpu) and its host server's load state, all of
        which :attr:`Server.load_version` tracks — every ``place_task``
        and ``remove_task`` anywhere on a host bumps its version, so a
        key match guarantees bit-identical inputs and the memo is exact
        (the straggler draw stays outside the cache).
        """
        key = tuple(
            (
                task.server_id,
                task.gpu_id,
                cluster.server(task.server_id).load_version
                if task.server_id is not None
                else -1,
            )
            for task in job.tasks
        )
        cached = self._duration_cache.get(job.job_id)
        if cached is not None and cached[0] == key:
            compute = cached[1]
            comm = cached[2]
        else:
            compute = self.compute_critical_path(job, cluster)
            comm = iteration_comm(job, cluster, self.links(job))
            self._duration_cache[job.job_id] = (key, compute, comm)
        duration = compute + comm.seconds
        if straggler_draw < self.straggler_probability:
            duration *= self.straggler_slowdown
        return duration, comm.cross_server_mb
