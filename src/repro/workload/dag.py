"""Task dependency graph construction (Section 3.2, Figure 2).

A job running data parallelism × model parallelism spawns one task per
(replica, partition) cell.  The dependency edges come from the model
partition graph: sequential partitions chain within a replica, layered
partitions run in parallel.  Under the **parameter-server** structure the
final workers of every replica feed a dedicated PS task (which receives
the highest priority, Section 3.3.1); under **all-reduce** structures the
workers synchronize over a ring or a 2D torus — those links carry
communication volume every iteration but are not precedence edges.

Communication volumes per link are drawn uniformly from [50, 100] MB as
in the paper's simulation setup (Section 4.1).

Everything but those volumes and the demand jitter follows from the
job's *shape* — model, replicas, partitions and communication structure
— so it is computed once per shape into a :class:`JobTemplate` and each
job is stamped from it (DESIGN.md §15.13).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.cluster.cluster import DemandBounds, demand_bounds
from repro.cluster.resources import ResourceVector
from repro.workload.job import CommStructure, Job, JobGraph, Task
from repro.workload.models import ModelProfile
from repro.workload.partition import ModelPartition, partition_model

#: Paper's per-link communication volume range in MB (Section 4.1).
DEFAULT_COMM_VOLUME_RANGE: tuple[float, float] = (50.0, 100.0)

#: The most shapes kept at once.  A submission's GPU count comes off the
#: wire, so the number of shapes a process meets has no bound of its own.
TEMPLATE_CACHE_SIZE = 256

#: A link between two tasks of a template, by their id suffixes.
SuffixPair = tuple[str, str]


class TaskCell(NamedTuple):
    """What one task of a shape takes from the shape alone."""

    suffix: str  # the task id after the job id, e.g. ":r1p3" or ":ps"
    partition_index: int
    replica_index: int
    demand: ResourceVector
    partition_params_m: float
    compute_seconds: float
    is_parameter_server: bool


@dataclass(frozen=True, slots=True, eq=False)
class JobTemplate:
    """The part of a job fixed by its shape, shared by every such job.

    Holds only immutable values, over task id suffixes: a job's graph is
    ``graph`` with each suffix prefixed by the job id.

    Attributes
    ----------
    cells:
        The tasks, workers by replica then partition, the PS last.
    graph:
        The dependency graph over the cells' suffixes.
    edge_draws:
        Per ``graph.edges`` entry, the index of its volume draw:
        precedence edges, then PS edges, in insertion order.
    sync_links:
        Ring or torus links, in the order their volumes are drawn.
    critical_path_s:
        The compute-only critical path of one iteration.
    demand_bounds:
        Element-wise sum and maximum of the tasks' ``demand``.
    """

    cells: tuple[TaskCell, ...]
    graph: JobGraph
    edge_draws: tuple[int, ...]
    sync_links: tuple[SuffixPair, ...]
    critical_path_s: float
    demand_bounds: Optional[DemandBounds]

    def populate(
        self,
        job: Job,
        rng: random.Random,
        comm_volume_range: tuple[float, float] = DEFAULT_COMM_VOLUME_RANGE,
    ) -> None:
        """Give ``job`` fresh tasks, graph and sync links of this shape.

        Draws, in order: each edge's volume, each sync link's volume,
        then four demand jitters per task.
        """
        lo, hi = comm_volume_range
        span = hi - lo
        draw = rng.random
        volumes = [lo + span * draw() for _ in self.edge_draws]
        sync_volumes = [lo + span * draw() for _ in self.sync_links]

        job_id = job.job_id
        ids = {cell.suffix: f"{job_id}{cell.suffix}" for cell in self.cells}
        job.tasks = [
            Task(
                task_id=ids[suffix],
                job=job,
                partition_index=part,
                replica_index=replica,
                demand=demand,
                partition_params_m=params,
                compute_seconds=compute,
                is_parameter_server=is_ps,
                actual_demand=_jitter_demand(demand, rng),
            )
            for suffix, part, replica, demand, params, compute, is_ps in self.cells
        ]
        graph = self.graph
        job.dag = JobGraph(
            order=tuple([ids[node] for node in graph.order]),
            predecessors={
                ids[node]: tuple([ids[p] for p in parents])
                for node, parents in graph.predecessors.items()
            },
            successors={
                ids[node]: tuple([ids[c] for c in children])
                for node, children in graph.successors.items()
            },
            edges=tuple(
                [
                    (ids[src], ids[dst], volumes[k])
                    for (src, dst, _), k in zip(graph.edges, self.edge_draws)
                ]
            ),
            descendant_counts={
                ids[node]: count for node, count in graph.descendant_counts.items()
            },
        )
        job.sync_links = [
            (ids[src], ids[dst], volume)
            for (src, dst), volume in zip(self.sync_links, sync_volumes)
        ]


_TemplateKey = tuple[int, int, int, CommStructure]
_templates: dict[_TemplateKey, tuple[ModelProfile, JobTemplate]] = {}
_templates_lock = threading.Lock()


def job_template(job: Job) -> JobTemplate:
    """The cached template of ``job``'s shape, built on first use.

    Keyed by the profile's identity, not its name or value: a profile
    with the same name but other layers gets its own template, and the
    entry holds the profile, so its ``id`` cannot be reused while cached.
    The oldest shape is dropped once :data:`TEMPLATE_CACHE_SIZE` are held.
    """
    profile = job.model
    key = (id(profile), job.num_replicas, job.num_partitions, job.comm_structure)
    entry = _templates.get(key)
    if entry is not None:
        return entry[1]
    template = _build_template(
        profile, job.num_replicas, job.num_partitions, job.comm_structure
    )
    with _templates_lock:
        if key not in _templates and len(_templates) >= TEMPLATE_CACHE_SIZE:
            del _templates[next(iter(_templates))]
        _templates[key] = (profile, template)
    return template


def build_task_graph(
    job: Job,
    rng: random.Random,
    comm_volume_range: tuple[float, float] = DEFAULT_COMM_VOLUME_RANGE,
) -> None:
    """Populate ``job.tasks``, ``job.dag`` and ``job.sync_links``.

    Idempotent-hostile by design: calling twice on the same job raises,
    because task ids would collide.
    """
    if job.tasks:
        raise ValueError(f"job {job.job_id} already has tasks")
    job_template(job).populate(job, rng, comm_volume_range)


def _build_template(
    profile: ModelProfile,
    num_replicas: int,
    num_partitions: int,
    structure: CommStructure,
) -> JobTemplate:
    partitions = partition_model(profile, num_partitions)
    cells: list[TaskCell] = []
    grid: dict[tuple[int, int], str] = {}
    for replica in range(num_replicas):
        for part in partitions:
            cell = TaskCell(
                suffix=f":r{replica}p{part.index}",
                partition_index=part.index,
                replica_index=replica,
                demand=_worker_demand(profile, part),
                partition_params_m=part.params_m,
                compute_seconds=profile.base_iteration_seconds * part.compute_fraction,
                is_parameter_server=False,
            )
            grid[(replica, part.index)] = cell.suffix
            cells.append(cell)

    # Intra-replica precedence from sequential partitioning.
    edges: list[SuffixPair] = []
    for replica in range(num_replicas):
        for part in partitions:
            if part.depends_on_previous:
                src = grid[(replica, part.index - 1)]
                edges.append((src, grid[(replica, part.index)]))

    sync_links: list[SuffixPair] = []
    finals = _final_partitions(partitions)
    if structure is CommStructure.PARAMETER_SERVER:
        ps = _parameter_server(profile)
        cells.append(ps)
        for replica in range(num_replicas):
            for part in finals:
                edges.append((grid[(replica, part.index)], ps.suffix))
    else:
        # One reducer per replica per final partition: each replica's
        # final partition holds that replica's gradients.
        reducers = [
            grid[(replica, part.index)]
            for part in finals
            for replica in range(num_replicas)
        ]
        if structure is CommStructure.RING_ALLREDUCE:
            sync_links = _ring_links(reducers)
        else:
            sync_links = _torus_links(reducers)

    graph = JobGraph.build(
        [cell.suffix for cell in cells], [(src, dst, 0.0) for src, dst in edges]
    )
    draw_index = {edge: index for index, edge in enumerate(edges)}
    return JobTemplate(
        cells=tuple(cells),
        graph=graph,
        edge_draws=tuple(draw_index[src, dst] for src, dst, _ in graph.edges),
        sync_links=tuple(sync_links),
        critical_path_s=graph.critical_path(
            {cell.suffix: cell.compute_seconds for cell in cells}
        ),
        demand_bounds=demand_bounds([cell.demand for cell in cells]),
    )


def _parameter_server(profile: ModelProfile) -> TaskCell:
    """The PS task; CPU/memory heavy, negligible GPU use."""
    return TaskCell(
        suffix=":ps",
        partition_index=-1,
        replica_index=-1,
        demand=ResourceVector(
            gpu=0.05,
            cpu=2.0,
            mem=max(1.0, profile.model_state_mb / 1024.0 * 2.0),
            bw=40.0,
        ),
        partition_params_m=profile.total_params_m,
        compute_seconds=profile.base_iteration_seconds * 0.05,
        is_parameter_server=True,
    )


#: The least GPU demand of any worker, whatever its partition.
MIN_WORKER_GPU = 0.15


def _worker_demand(profile: ModelProfile, part: ModelPartition) -> ResourceVector:
    """Static resource demand of a worker.

    GPU demand scales with the partition's compute share so that small
    slices can share devices (which is what makes per-GPU overload and
    least-loaded-GPU placement meaningful); CPU and memory scale with the
    partition and mini-batch sizes; bandwidth demand reflects the
    per-iteration communication the worker sustains.
    """
    # GPU demand scales with the partition's compute share *and* the
    # model's compute intensity (an SVM worker is far lighter than an
    # AlexNet one), capped at 0.85 so that a single worker never
    # overloads an empty GPU under the paper's default h_r = 0.9 —
    # otherwise the task could never be placed by any overload-avoiding
    # scheduler.  The intensity term also keeps a 32-replica SVM job's
    # total demand placeable on modest clusters.
    intensity = min(1.0, profile.base_iteration_seconds / 90.0)
    gpu = min(0.85, max(MIN_WORKER_GPU, part.compute_fraction * intensity * 1.2))
    cpu = 1.0 + 3.0 * part.compute_fraction
    mem = 2.0 + part.params_m * 4.0 / 1024.0 * 3.0 + profile.batch_size_mb / 1024.0
    bw = 25.0 + 50.0 * part.compute_fraction
    return ResourceVector(gpu=gpu, cpu=cpu, mem=mem, bw=bw)


def _jitter_demand(demand: ResourceVector, rng: random.Random) -> ResourceVector:
    """Actual runtime consumption vs the planning estimate.

    Schedulers reserve by estimate; the engine accounts the actual.
    Under-estimation is what pushes servers past ``h_r`` at runtime and
    triggers the overload handling of Section 3.3.3.  The GPU component
    is capped at 0.88 so a lone task can never overload an empty GPU
    (which would make migration thrash rather than relieve).  Each
    factor is ``rng.uniform(lo, hi)`` written out as CPython defines it.
    """
    draw = rng.random
    gpu = min(0.88, demand.gpu * (0.9 + (1.3 - 0.9) * draw()))
    cpu = demand.cpu * (0.85 + (1.4 - 0.85) * draw())
    mem = demand.mem * (0.85 + (1.4 - 0.85) * draw())
    bw = demand.bw * (0.85 + (1.4 - 0.85) * draw())
    return ResourceVector(gpu=gpu, cpu=cpu, mem=mem, bw=bw)


def _final_partitions(partitions: list[ModelPartition]) -> list[ModelPartition]:
    """Partitions that emit results to the PS (the DAG's sinks).

    For a sequential chain that is only the last partition; for layered
    (parallel) partitions every partition reports to the PS.
    """
    if any(p.depends_on_previous for p in partitions):
        return [partitions[-1]]
    return list(partitions)


def _ring_links(reducers: list[str]) -> list[SuffixPair]:
    """Ring all-reduce: reducer ``i`` sends to reducer ``i+1 mod n``."""
    n = len(reducers)
    if n < 2:
        return []
    return [(reducers[i], reducers[(i + 1) % n]) for i in range(n)]


def _torus_links(reducers: list[str]) -> list[SuffixPair]:
    """2D-torus all-reduce: row rings then column rings over a near-square grid."""
    n = len(reducers)
    if n < 2:
        return []
    cols = max(1, int(n**0.5))
    rows = (n + cols - 1) // cols
    links: list[SuffixPair] = []
    for r in range(rows):
        links.extend(_ring_links(reducers[r * cols : (r + 1) * cols]))
    for c in range(cols):
        links.extend(_ring_links(reducers[c::cols]))
    return links


def critical_path_seconds(job: Job) -> float:
    """Length of the compute critical path of one iteration.

    The longest chain of per-task compute times through the dependency
    DAG; parallel partitions contribute their max, sequential chains sum.
    """
    if not job.tasks:
        return 0.0
    return job.dag.critical_path({t.task_id: t.compute_seconds for t in job.tasks})
