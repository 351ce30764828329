"""Workload builder: trace records → fully-formed :class:`Job` objects.

Follows the paper's experimental setting (Section 4.1):

* the model-partition count equals the GPUs requested;
* deadlines are ``arrival + max(1.1 * t_e, t_r)`` with
  ``t_r ~ U[0.5h, 24h]``;
* per-link communication volumes are drawn from [50, 100] MB;
* jobs without explicit requirements receive the most permissive ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.workload.dag import (
    DEFAULT_COMM_VOLUME_RANGE,
    build_task_graph,
    critical_path_seconds,
)
from repro.workload.job import CommStructure, Job, StopOption
from repro.workload.models import PartitionStyle, get_model
from repro.workload.trace import TraceRecord


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the trace → job conversion.

    Attributes
    ----------
    deadline_slack_factor:
        The ``1.1`` multiplier on the estimated execution time.
    deadline_uniform_range_hours:
        The ``t_r ~ U[0.5, 24]`` hours draw.
    comm_volume_range:
        Per-link communication volume in MB.
    comm_structure_weights:
        Mix of communication structures across jobs.
    stop_option_weights:
        Mix of MLF-C stop options users pick.
    allow_downgrade_probability:
        Fraction of users permitting MLF-C to downgrade their option.
    assumed_bandwidth_mbps:
        Bandwidth used to estimate per-iteration communication time for
        ``t_e`` (the real time is computed by the simulator).
    accuracy_ceiling_jitter:
        Jobs' accuracy ceilings are jittered by a factor drawn from this
        range around the model's nominal ceiling.
    """

    deadline_slack_factor: float = 1.1
    deadline_uniform_range_hours: tuple[float, float] = (0.5, 24.0)
    comm_volume_range: tuple[float, float] = DEFAULT_COMM_VOLUME_RANGE
    comm_structure_weights: dict[CommStructure, float] = field(
        default_factory=lambda: {
            CommStructure.PARAMETER_SERVER: 0.6,
            CommStructure.RING_ALLREDUCE: 0.3,
            CommStructure.TORUS_ALLREDUCE: 0.1,
        }
    )
    stop_option_weights: dict[StopOption, float] = field(
        default_factory=lambda: {
            StopOption.FIXED_ITERATIONS: 0.6,
            StopOption.OPT_STOP: 0.25,
            StopOption.ACCURACY_ONLY: 0.15,
        }
    )
    allow_downgrade_probability: float = 0.9
    assumed_bandwidth_mbps: float = 1250.0
    accuracy_ceiling_jitter: tuple[float, float] = (0.9, 1.0)


def split_parallelism(model_name: str, gpus_requested: int) -> tuple[int, int]:
    """Decide (replicas, partitions) for a job.

    The paper sets the model-partition count to the GPU count; SVM runs
    data parallelism only ("SVM did not run in model parallelism").  For
    partitionable models with >= 4 GPUs we use 2 data-parallel replicas
    so that both parallelism dimensions are exercised, matching the
    paper's mixed data+model parallelism scenario.
    """
    profile = get_model(model_name)
    gpus = max(1, gpus_requested)
    if profile.partition_style is PartitionStyle.NONE:
        return gpus, 1
    if gpus >= 4:
        return 2, gpus // 2
    return 1, gpus


def min_workers(model_name: str, gpus_requested: int) -> int:
    """The fewest worker tasks such a job builds: sequential partitioning
    may merge partitions down to one, layered slicing never does."""
    replicas, partitions = split_parallelism(model_name, gpus_requested)
    layered = get_model(model_name).partition_style is PartitionStyle.LAYERED
    return replicas * (partitions if layered else 1)


def build_job(
    record: TraceRecord,
    rng: random.Random,
    config: Optional[WorkloadConfig] = None,
) -> Job:
    """Construct one job (tasks, DAG, deadline, requirements) from a record."""
    cfg = config or WorkloadConfig()
    record.validate()
    model = get_model(record.model_name)
    replicas, partitions = split_parallelism(record.model_name, record.gpus_requested)

    structures = list(cfg.comm_structure_weights)
    weights = [cfg.comm_structure_weights[s] for s in structures]
    comm_structure = rng.choices(structures, weights=weights, k=1)[0]
    if replicas == 1 and comm_structure is not CommStructure.PARAMETER_SERVER:
        # All-reduce needs multiple reducers; single-replica jobs use PS.
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
        deadline=0.0,  # set below once t_e is known
        accuracy_requirement=0.0,  # set below once the curve is known
        stop_option=stop_option,
        allow_downgrade=rng.random() < cfg.allow_downgrade_probability,
        training_data_mb=record.training_data_mb,
        accuracy_ceiling=ceiling,
        curve_half_life=half_life,
    )
    build_task_graph(job, rng, cfg.comm_volume_range)

    # Accuracy requirement: the trace stores a quantile of the accuracy
    # achievable at max_iterations, keeping requirements demanding but
    # feasible (Section 4.1 uses the Philly completion status here).
    achievable = job.accuracy_at(record.max_iterations)
    job.accuracy_requirement = round(achievable * record.accuracy_requirement, 6)

    job.estimated_duration = estimate_execution_time(job, cfg)
    lo_h, hi_h = cfg.deadline_uniform_range_hours
    t_r = rng.uniform(lo_h * 3600.0, hi_h * 3600.0)
    job.deadline = record.arrival_time + max(
        cfg.deadline_slack_factor * job.estimated_duration, t_r
    )
    return job


def estimate_execution_time(job: Job, config: Optional[WorkloadConfig] = None) -> float:
    """Estimate total execution time ``t_e`` of a job.

    Per-iteration time = compute critical path + communication volume
    over an assumed NIC bandwidth (worst case: every link crosses
    servers).  The simulator computes the true time; this estimate feeds
    deadlines and the runtime predictor, mirroring the paper's assumption
    that total running time is predictable (Section 3.1, via [42]).
    """
    cfg = config or WorkloadConfig()
    compute = critical_path_seconds(job)
    volume = sum(d["volume_mb"] for *_e, d in job.dag.edges(data=True))
    volume += sum(v for *_pair, v in job.sync_links)
    volume *= job.model.comm_rounds_per_iteration
    comm = volume / cfg.assumed_bandwidth_mbps if cfg.assumed_bandwidth_mbps else 0.0
    return job.max_iterations * (compute + comm)


def build_jobs(
    records: Iterable[TraceRecord],
    seed: int = 0,
    config: Optional[WorkloadConfig] = None,
) -> list[Job]:
    """Build jobs for every record, sorted by arrival time."""
    rng = random.Random(seed)
    jobs = [build_job(record, rng, config) for record in records]
    jobs.sort(key=lambda j: j.arrival_time)
    return jobs


def scale_job_count(records: Sequence[TraceRecord], factor: float) -> list[TraceRecord]:
    """Scale a trace's job count by ``factor`` (the paper's ``x`` sweeps).

    ``factor < 1`` truncates; ``factor > 1`` replays the trace with
    shifted ids and arrival offsets so arrival density scales too.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    base = list(records)
    target = max(1, int(round(len(base) * factor)))
    if target <= len(base):
        return base[:target]
    out = list(base)
    span = max(r.arrival_time for r in base) - min(r.arrival_time for r in base)
    copy = 1
    while len(out) < target:
        jitter = span * 0.01 * copy
        for record in base:
            if len(out) >= target:
                break
            out.append(
                TraceRecord(
                    job_id=f"{record.job_id}_x{copy}",
                    arrival_time=record.arrival_time + jitter,
                    gpus_requested=record.gpus_requested,
                    model_name=record.model_name,
                    max_iterations=record.max_iterations,
                    accuracy_requirement=record.accuracy_requirement,
                    urgency=record.urgency,
                    training_data_mb=record.training_data_mb,
                )
            )
        copy += 1
    out.sort(key=lambda r: r.arrival_time)
    return out
