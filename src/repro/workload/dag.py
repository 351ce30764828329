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
"""

from __future__ import annotations

import random

import networkx as nx

from repro.cluster.resources import ResourceVector
from repro.workload.job import CommStructure, Job, Task
from repro.workload.partition import ModelPartition, partition_model

#: Paper's per-link communication volume range in MB (Section 4.1).
DEFAULT_COMM_VOLUME_RANGE: tuple[float, float] = (50.0, 100.0)


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

    partitions = partition_model(job.model, job.num_partitions)
    lo, hi = comm_volume_range

    def volume() -> float:
        return rng.uniform(lo, hi)

    dag = nx.DiGraph()
    tasks: list[Task] = []

    grid: dict[tuple[int, int], Task] = {}
    for replica in range(job.num_replicas):
        for part in partitions:
            task = _make_worker(job, replica, part)
            grid[(replica, part.index)] = task
            tasks.append(task)
            dag.add_node(task.task_id)

    # Intra-replica precedence from sequential partitioning.
    for replica in range(job.num_replicas):
        for part in partitions:
            if part.depends_on_previous:
                src = grid[(replica, part.index - 1)]
                dst = grid[(replica, part.index)]
                dag.add_edge(src.task_id, dst.task_id, volume_mb=volume())

    sync_links: list[tuple[str, str, float]] = []
    if job.comm_structure is CommStructure.PARAMETER_SERVER:
        ps_task = _make_parameter_server(job)
        tasks.append(ps_task)
        dag.add_node(ps_task.task_id)
        finals = _final_partitions(partitions)
        for replica in range(job.num_replicas):
            for part in finals:
                src = grid[(replica, part.index)]
                dag.add_edge(src.task_id, ps_task.task_id, volume_mb=volume())
    else:
        reducers = _reducer_tasks(grid, partitions, job.num_replicas)
        if job.comm_structure is CommStructure.RING_ALLREDUCE:
            sync_links = _ring_links(reducers, volume)
        else:
            sync_links = _torus_links(reducers, volume)

    for task in tasks:
        task.actual_demand = _jitter_demand(task.demand, rng)

    job.tasks = tasks
    job.dag = dag
    job.sync_links = sync_links


def _make_worker(job: Job, replica: int, part: ModelPartition) -> Task:
    """Create the worker task for one (replica, partition) cell."""
    profile = job.model
    compute = profile.base_iteration_seconds * part.compute_fraction
    demand = _worker_demand(job, part)
    return Task(
        task_id=f"{job.job_id}:r{replica}p{part.index}",
        job=job,
        partition_index=part.index,
        replica_index=replica,
        demand=demand,
        partition_params_m=part.params_m,
        compute_seconds=compute,
    )


def _make_parameter_server(job: Job) -> Task:
    """Create the PS task; CPU/memory heavy, negligible GPU use."""
    demand = ResourceVector(
        gpu=0.05,
        cpu=2.0,
        mem=max(1.0, job.model.model_state_mb / 1024.0 * 2.0),
        bw=40.0,
    )
    return Task(
        task_id=f"{job.job_id}:ps",
        job=job,
        partition_index=-1,
        replica_index=-1,
        demand=demand,
        partition_params_m=job.model.total_params_m,
        compute_seconds=job.model.base_iteration_seconds * 0.05,
        is_parameter_server=True,
    )


#: The least GPU demand of any worker, whatever its partition.
MIN_WORKER_GPU = 0.15


def _worker_demand(job: Job, part: ModelPartition) -> ResourceVector:
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
    intensity = min(1.0, job.model.base_iteration_seconds / 90.0)
    gpu = min(0.85, max(MIN_WORKER_GPU, part.compute_fraction * intensity * 1.2))
    cpu = 1.0 + 3.0 * part.compute_fraction
    mem = 2.0 + part.params_m * 4.0 / 1024.0 * 3.0 + job.model.batch_size_mb / 1024.0
    bw = 25.0 + 50.0 * part.compute_fraction
    return ResourceVector(gpu=gpu, cpu=cpu, mem=mem, bw=bw)


def _jitter_demand(demand: ResourceVector, rng: random.Random) -> ResourceVector:
    """Actual runtime consumption vs the planning estimate.

    Schedulers reserve by estimate; the engine accounts the actual.
    Under-estimation is what pushes servers past ``h_r`` at runtime and
    triggers the overload handling of Section 3.3.3.  The GPU component
    is capped at 0.88 so a lone task can never overload an empty GPU
    (which would make migration thrash rather than relieve).
    """
    gpu = min(0.88, demand.gpu * rng.uniform(0.9, 1.3))
    cpu = demand.cpu * rng.uniform(0.85, 1.4)
    mem = demand.mem * rng.uniform(0.85, 1.4)
    bw = demand.bw * rng.uniform(0.85, 1.4)
    return ResourceVector(gpu=gpu, cpu=cpu, mem=mem, bw=bw)


def _final_partitions(partitions: list[ModelPartition]) -> list[ModelPartition]:
    """Partitions that emit results to the PS (the DAG's sinks).

    For a sequential chain that is only the last partition; for layered
    (parallel) partitions every partition reports to the PS.
    """
    if any(p.depends_on_previous for p in partitions):
        return [partitions[-1]]
    return list(partitions)


def _reducer_tasks(
    grid: dict[tuple[int, int], Task],
    partitions: list[ModelPartition],
    num_replicas: int,
) -> list[Task]:
    """The tasks acting as reducers in an all-reduce structure.

    Each replica's final partition holds that replica's gradients, so one
    reducer per replica per final partition.
    """
    finals = _final_partitions(partitions)
    reducers = []
    for part in finals:
        for replica in range(num_replicas):
            reducers.append(grid[(replica, part.index)])
    return reducers


def _ring_links(reducers: list[Task], volume) -> list[tuple[str, str, float]]:
    """Ring all-reduce: reducer ``i`` sends to reducer ``i+1 mod n``."""
    n = len(reducers)
    if n < 2:
        return []
    return [
        (reducers[i].task_id, reducers[(i + 1) % n].task_id, volume())
        for i in range(n)
    ]


def _torus_links(reducers: list[Task], volume) -> list[tuple[str, str, float]]:
    """2D-torus all-reduce: row rings then column rings over a near-square grid."""
    n = len(reducers)
    if n < 2:
        return []
    cols = max(1, int(n**0.5))
    rows = (n + cols - 1) // cols
    links: list[tuple[str, str, float]] = []

    def at(r: int, c: int) -> Task | None:
        idx = r * cols + c
        return reducers[idx] if idx < n else None

    for r in range(rows):
        row = [at(r, c) for c in range(cols)]
        row = [t for t in row if t is not None]
        if len(row) >= 2:
            for i in range(len(row)):
                links.append((row[i].task_id, row[(i + 1) % len(row)].task_id, volume()))
    for c in range(cols):
        col = [at(r, c) for r in range(rows)]
        col = [t for t in col if t is not None]
        if len(col) >= 2:
            for i in range(len(col)):
                links.append((col[i].task_id, col[(i + 1) % len(col)].task_id, volume()))
    return links


def dependents_count(dag: nx.DiGraph, task_id: str) -> int:
    """Number of (transitive) dependents of a task in the DAG."""
    return len(nx.descendants(dag, task_id))


def critical_path_seconds(job: Job) -> float:
    """Length of the compute critical path of one iteration.

    The longest chain of per-task compute times through the dependency
    DAG; parallel partitions contribute their max, sequential chains sum.
    """
    if not job.tasks:
        return 0.0
    compute = {t.task_id: t.compute_seconds for t in job.tasks}
    longest: dict[str, float] = {}
    for node in nx.topological_sort(job.dag):
        preds = list(job.dag.predecessors(node))
        base = max((longest[p] for p in preds), default=0.0)
        longest[node] = base + compute.get(node, 0.0)
    return max(longest.values(), default=0.0)
