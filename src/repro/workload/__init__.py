"""Workload substrate: models, partitions, jobs, task DAGs and traces."""

from repro.workload.dag import (
    DEFAULT_COMM_VOLUME_RANGE,
    build_task_graph,
    critical_path_seconds,
)
from repro.workload.generator import (
    WorkloadConfig,
    build_job,
    build_jobs,
    estimate_execution_time,
    scale_job_count,
    split_parallelism,
)
from repro.workload.job import (
    CommStructure,
    Job,
    JobGraph,
    JobState,
    StopOption,
    Task,
    TaskState,
)
from repro.workload.models import (
    MODEL_NAMES,
    MODEL_ZOO,
    LayerSpec,
    ModelProfile,
    PartitionStyle,
    get_model,
)
from repro.workload.partition import ModelPartition, partition_model
from repro.workload.synthetic import (
    GPU_CHOICES,
    PhillyLikeTraceGenerator,
    SyntheticTraceConfig,
    generate_trace,
)
from repro.workload.trace import TraceRecord, iter_window, read_trace, write_trace

__all__ = [
    "CommStructure",
    "DEFAULT_COMM_VOLUME_RANGE",
    "GPU_CHOICES",
    "Job",
    "JobGraph",
    "JobState",
    "LayerSpec",
    "MODEL_NAMES",
    "MODEL_ZOO",
    "ModelPartition",
    "ModelProfile",
    "PartitionStyle",
    "PhillyLikeTraceGenerator",
    "StopOption",
    "SyntheticTraceConfig",
    "Task",
    "TaskState",
    "TraceRecord",
    "WorkloadConfig",
    "build_job",
    "build_jobs",
    "build_task_graph",
    "critical_path_seconds",
    "estimate_execution_time",
    "generate_trace",
    "get_model",
    "iter_window",
    "read_trace",
    "scale_job_count",
    "split_parallelism",
    "write_trace",
]
