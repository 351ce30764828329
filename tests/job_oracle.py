"""Direct job construction: the oracle for per-shape job templates.

This is how :func:`repro.workload.generator.build_job` built every job
before jobs were stamped from cached templates: it partitions the model,
makes each task, draws each volume and builds the :class:`JobGraph` per
job, with ``rng.uniform`` and ``rng.choices`` as written.  Tests compare
the template build against it field by field, and ``rng.getstate()``
after both, so every draw must come in the same order.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.cluster.resources import ResourceVector
from repro.workload.dag import _worker_demand
from repro.workload.generator import WorkloadConfig, split_parallelism
from repro.workload.job import CommStructure, Edge, Job, JobGraph, Task
from repro.workload.models import get_model
from repro.workload.partition import ModelPartition, partition_model
from repro.workload.trace import TraceRecord


def build_job(
    record: TraceRecord,
    rng: random.Random,
    config: Optional[WorkloadConfig] = None,
) -> Job:
    """Construct one job (tasks, DAG, deadline, requirements) from a record."""
    return build_job_and_inputs(record, rng, config)[0]


def build_job_and_inputs(
    record: TraceRecord,
    rng: random.Random,
    config: Optional[WorkloadConfig] = None,
) -> tuple[Job, list[str], list[Edge]]:
    """:func:`build_job`, with the nodes and ``(src, dst, volume_mb)``
    edges its graph was built from, in insertion order."""
    cfg = config or WorkloadConfig()
    record.validate()
    model = get_model(record.model_name)
    replicas, partitions = split_parallelism(record.model_name, record.gpus_requested)

    structures = list(cfg.comm_structure_weights)
    weights = [cfg.comm_structure_weights[s] for s in structures]
    comm_structure = rng.choices(structures, weights=weights, k=1)[0]
    if replicas == 1 and comm_structure is not CommStructure.PARAMETER_SERVER:
        comm_structure = CommStructure.PARAMETER_SERVER

    options = list(cfg.stop_option_weights)
    option_weights = [cfg.stop_option_weights[o] for o in options]
    stop_option = rng.choices(options, weights=option_weights, k=1)[0]

    lo_jitter, hi_jitter = cfg.accuracy_ceiling_jitter
    ceiling = min(0.995, model.accuracy_ceiling * rng.uniform(lo_jitter, hi_jitter))
    half_life = model.curve_half_life * rng.uniform(0.8, 1.25)

    job = Job(
        job_id=record.job_id,
        model=model,
        arrival_time=record.arrival_time,
        num_replicas=replicas,
        num_partitions=partitions,
        comm_structure=comm_structure,
        max_iterations=record.max_iterations,
        urgency=record.urgency,
        deadline=0.0,
        accuracy_requirement=0.0,
        stop_option=stop_option,
        allow_downgrade=rng.random() < cfg.allow_downgrade_probability,
        training_data_mb=record.training_data_mb,
        accuracy_ceiling=ceiling,
        curve_half_life=half_life,
    )
    nodes, edges = build_task_graph(job, rng, cfg.comm_volume_range)

    achievable = job.accuracy_at(record.max_iterations)
    job.accuracy_requirement = round(achievable * record.accuracy_requirement, 6)

    job.estimated_duration = estimate_execution_time(job, cfg)
    lo_h, hi_h = cfg.deadline_uniform_range_hours
    t_r = rng.uniform(lo_h * 3600.0, hi_h * 3600.0)
    job.deadline = record.arrival_time + max(
        cfg.deadline_slack_factor * job.estimated_duration, t_r
    )
    return job, nodes, edges


def estimate_execution_time(job: Job, config: Optional[WorkloadConfig] = None) -> float:
    """Compute critical path plus link volume over the assumed bandwidth."""
    cfg = config or WorkloadConfig()
    compute = critical_path_seconds(job)
    volume = sum(v for *_pair, v in job.dag.edges)
    volume += sum(v for *_pair, v in job.sync_links)
    volume *= job.model.comm_rounds_per_iteration
    comm = volume / cfg.assumed_bandwidth_mbps if cfg.assumed_bandwidth_mbps else 0.0
    return job.max_iterations * (compute + comm)


def critical_path_seconds(job: Job) -> float:
    """Length of the compute critical path of one iteration."""
    if not job.tasks:
        return 0.0
    return job.dag.critical_path({t.task_id: t.compute_seconds for t in job.tasks})


def build_task_graph(
    job: Job,
    rng: random.Random,
    comm_volume_range: tuple[float, float] = (50.0, 100.0),
) -> tuple[list[str], list[Edge]]:
    """Populate ``job.tasks``, ``job.dag`` and ``job.sync_links``.

    Returns the nodes and ``(src, dst, volume_mb)`` edges the graph was
    built from, in insertion order.
    """
    if job.tasks:
        raise ValueError(f"job {job.job_id} already has tasks")

    partitions = partition_model(job.model, job.num_partitions)
    lo, hi = comm_volume_range

    def volume() -> float:
        return rng.uniform(lo, hi)

    nodes: list[str] = []
    edges: list[Edge] = []
    tasks: list[Task] = []

    grid: dict[tuple[int, int], Task] = {}
    for replica in range(job.num_replicas):
        for part in partitions:
            task = _make_worker(job, replica, part)
            grid[(replica, part.index)] = task
            tasks.append(task)
            nodes.append(task.task_id)

    for replica in range(job.num_replicas):
        for part in partitions:
            if part.depends_on_previous:
                src = grid[(replica, part.index - 1)]
                dst = grid[(replica, part.index)]
                edges.append((src.task_id, dst.task_id, volume()))

    sync_links: list[Edge] = []
    if job.comm_structure is CommStructure.PARAMETER_SERVER:
        ps_task = _make_parameter_server(job)
        tasks.append(ps_task)
        nodes.append(ps_task.task_id)
        finals = _final_partitions(partitions)
        for replica in range(job.num_replicas):
            for part in finals:
                src = grid[(replica, part.index)]
                edges.append((src.task_id, ps_task.task_id, volume()))
    else:
        reducers = _reducer_tasks(grid, partitions, job.num_replicas)
        if job.comm_structure is CommStructure.RING_ALLREDUCE:
            sync_links = _ring_links(reducers, volume)
        else:
            sync_links = _torus_links(reducers, volume)

    for task in tasks:
        task.actual_demand = _jitter_demand(task.demand, rng)

    job.tasks = tasks
    job.dag = JobGraph.build(nodes, edges)
    job.sync_links = sync_links
    return nodes, edges


def _make_worker(job: Job, replica: int, part: ModelPartition) -> Task:
    profile = job.model
    compute = profile.base_iteration_seconds * part.compute_fraction
    demand = _worker_demand(job.model, part)
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
        partition_params_m=sum(layer.params_m for layer in job.model.layers),
        compute_seconds=job.model.base_iteration_seconds * 0.05,
        is_parameter_server=True,
    )


def _jitter_demand(demand: ResourceVector, rng: random.Random) -> ResourceVector:
    gpu = min(0.88, demand.gpu * rng.uniform(0.9, 1.3))
    cpu = demand.cpu * rng.uniform(0.85, 1.4)
    mem = demand.mem * rng.uniform(0.85, 1.4)
    bw = demand.bw * rng.uniform(0.85, 1.4)
    return ResourceVector(gpu=gpu, cpu=cpu, mem=mem, bw=bw)


def _final_partitions(partitions: list[ModelPartition]) -> list[ModelPartition]:
    if any(p.depends_on_previous for p in partitions):
        return [partitions[-1]]
    return list(partitions)


def _reducer_tasks(
    grid: dict[tuple[int, int], Task],
    partitions: list[ModelPartition],
    num_replicas: int,
) -> list[Task]:
    finals = _final_partitions(partitions)
    reducers = []
    for part in finals:
        for replica in range(num_replicas):
            reducers.append(grid[(replica, part.index)])
    return reducers


def _ring_links(reducers: list[Task], volume) -> list[Edge]:
    n = len(reducers)
    if n < 2:
        return []
    return [
        (reducers[i].task_id, reducers[(i + 1) % n].task_id, volume())
        for i in range(n)
    ]


def _torus_links(reducers: list[Task], volume) -> list[Edge]:
    n = len(reducers)
    if n < 2:
        return []
    cols = max(1, int(n**0.5))
    rows = (n + cols - 1) // cols
    links: list[Edge] = []
    for r in range(rows):
        links.extend(_ring_links(reducers[r * cols : (r + 1) * cols], volume))
    for c in range(cols):
        links.extend(_ring_links(reducers[c::cols], volume))
    return links
