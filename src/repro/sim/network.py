"""Communication model: per-iteration transfer volumes and times.

Only *cross-server* links consume cluster bandwidth — co-located tasks
exchange data through host memory for free, which is exactly why the
paper's placement logic tries "to allocate high-volume communicating
tasks to the same server" (Section 3.3.2).  Per-iteration communication
time is the NIC bottleneck: the most loaded server's cross-traffic
divided by its NIC bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.cluster.cluster import Cluster
from repro.workload.job import Job, Task


@dataclass(frozen=True, slots=True)
class CommLink:
    """One resolved communication link between two tasks."""

    src: Task
    dst: Task
    volume_mb: float


@dataclass(frozen=True, slots=True)
class IterationComm:
    """Communication outcome of one iteration of one job."""

    cross_server_mb: float
    seconds: float


def job_links(job: Job) -> list[CommLink]:
    """All per-iteration communication links of a job.

    Dependency edges (activations/gradients between partitions and to a
    parameter server) plus all-reduce synchronization links.
    """
    by_id = {t.task_id: t for t in job.tasks}
    links = [
        CommLink(src=by_id[u], dst=by_id[v], volume_mb=vol)
        for u, v, vol in job.dag.edges
    ]
    links.extend(
        CommLink(src=by_id[u], dst=by_id[v], volume_mb=vol)
        for u, v, vol in job.sync_links
    )
    return links


def iteration_comm(
    job: Job, cluster: Cluster, links: Iterable[CommLink] | None = None
) -> IterationComm:
    """Volume and time of one iteration's communication for ``job``.

    All of the job's tasks must be placed.  Cross-server links charge
    their volume to both endpoints' NICs; the iteration's communication
    time is the worst per-server NIC time.
    """
    per_server_mb: dict[int, float] = {}
    cross_mb = 0.0
    rounds = float(job.model.comm_rounds_per_iteration)
    for link in links if links is not None else job_links(job):
        src_server = link.src.server_id
        dst_server = link.dst.server_id
        if src_server is None or dst_server is None:
            raise ValueError(
                f"task {link.src.task_id} or {link.dst.task_id} is not placed"
            )
        if src_server == dst_server:
            continue
        volume = link.volume_mb * rounds
        cross_mb += volume
        per_server_mb[src_server] = per_server_mb.get(src_server, 0.0) + volume
        per_server_mb[dst_server] = per_server_mb.get(dst_server, 0.0) + volume

    seconds = 0.0
    for server_id, mb in per_server_mb.items():
        bw = cluster.server(server_id).capacity.bw
        seconds = max(seconds, mb / bw if bw else 0.0)
    return IterationComm(cross_server_mb=cross_mb, seconds=seconds)


def migration_volume_mb(task: Task) -> float:
    """Bandwidth cost of moving a task: its partition's parameter state.

    One million fp32 parameters serialize to 4 MB; a small fixed
    container/checkpoint overhead is added.
    """
    return task.partition_params_m * 4.0 + 8.0


def pairwise_cross_volume(job: Job, task: Task, server_id: int) -> float:
    """Communication volume task ↔ rest-of-job that would cross servers
    if ``task`` lived on ``server_id``.

    Used by placement heuristics to score candidate servers (the
    ``u_BW,V`` component of the ideal virtual server in Section 3.3.2):
    lower is better.
    Unplaced peers are ignored — their location is unknown.
    """
    crossing = 0.0
    for link in job_links(job):
        if link.src.task_id == task.task_id:
            peer = link.dst
        elif link.dst.task_id == task.task_id:
            peer = link.src
        else:
            continue
        if peer.server_id is None:
            continue
        if peer.server_id != server_id:
            crossing += link.volume_mb
    return crossing
