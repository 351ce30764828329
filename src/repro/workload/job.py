"""Jobs and tasks — the unit of scheduling.

A *job* is one training workload submitted to the cluster; it carries the
user-facing requirements of Section 3.1 (deadline, accuracy requirement,
urgency level) plus the parallelism configuration of Section 3.2 (data
parallelism replicas × model parallelism partitions, communication
structure).  A *task* is one worker: it computes one model partition for
one mini-batch stream, and is the unit the schedulers queue, place and
migrate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.cluster.resources import ResourceVector
from repro.workload.models import ModelProfile

#: A communication link between two tasks: ``(src, dst, volume_mb)``.
Edge = tuple[str, str, float]


class CommStructure(enum.Enum):
    """How workers exchange learned parameters (Section 3.2)."""

    PARAMETER_SERVER = "parameter_server"
    RING_ALLREDUCE = "ring_allreduce"
    TORUS_ALLREDUCE = "torus_allreduce"


class StopOption(enum.Enum):
    """MLF-C per-job stopping options (Section 3.5).

    * ``FIXED_ITERATIONS`` — option (i): run the iterations the user asked
      for (the status-quo behaviour).
    * ``OPT_STOP`` — option (ii): stop at the iteration where the
      predicted accuracy plateaus (OptStop).
    * ``ACCURACY_ONLY`` — option (iii): stop as soon as the required
      accuracy is reached.
    """

    FIXED_ITERATIONS = "fixed_iterations"
    OPT_STOP = "opt_stop"
    ACCURACY_ONLY = "accuracy_only"


class TaskState(enum.Enum):
    """Lifecycle of a task."""

    QUEUED = "queued"
    RUNNING = "running"
    FINISHED = "finished"


class JobState(enum.Enum):
    """Lifecycle of a job."""

    WAITING = "waiting"
    RUNNING = "running"
    COMPLETED = "completed"


@dataclass(frozen=True, slots=True, eq=False)
class JobGraph:
    """A job's task dependency graph, frozen once built.

    :meth:`build` runs once, at the end of
    :func:`repro.workload.dag.build_task_graph`, and nothing changes the
    graph afterwards, so every reader walks these fields directly and no
    component keeps (or has to evict) its own copy.  Nodes are task ids.

    Attributes
    ----------
    order:
        Topological order, generation by generation: the sources in node
        insertion order, then each task as its last incoming edge is
        consumed.
    predecessors / successors:
        Task id -> direct parents / children, in edge insertion order.
    edges:
        The dependency edges: sources in node insertion order, each
        followed by its successors.
    descendant_counts:
        Task id -> number of its transitive descendants.
    """

    order: tuple[str, ...] = ()
    predecessors: dict[str, tuple[str, ...]] = field(default_factory=dict)
    successors: dict[str, tuple[str, ...]] = field(default_factory=dict)
    edges: tuple[Edge, ...] = ()
    descendant_counts: dict[str, int] = field(default_factory=dict)

    @classmethod
    def build(cls, nodes: Sequence[str], edges: Sequence[Edge]) -> JobGraph:
        """Freeze the graph over ``nodes`` and ``edges`` (in insertion order)."""
        preds: dict[str, list[str]] = {node: [] for node in nodes}
        succs: dict[str, list[str]] = {node: [] for node in nodes}
        volumes: dict[tuple[str, str], float] = {}
        for src, dst, volume in edges:
            succs[src].append(dst)
            preds[dst].append(src)
            volumes[src, dst] = volume

        indegree = {node: len(parents) for node, parents in preds.items()}
        order: list[str] = []
        generation = [node for node in nodes if not indegree[node]]
        while generation:
            order.extend(generation)
            consumed: list[str] = []
            for node in generation:
                for child in succs[node]:
                    indegree[child] -= 1
                    if not indegree[child]:
                        consumed.append(child)
            generation = consumed

        # Descendant sets as bitmasks over topological positions, built
        # children first.
        position = {node: index for index, node in enumerate(order)}
        reach: dict[str, int] = {}
        for node in reversed(order):
            mask = 0
            for child in succs[node]:
                mask |= reach[child] | (1 << position[child])
            reach[node] = mask

        return cls(
            order=tuple(order),
            predecessors={node: tuple(preds[node]) for node in nodes},
            successors={node: tuple(succs[node]) for node in nodes},
            edges=tuple(
                (src, dst, volumes[src, dst]) for src in nodes for dst in succs[src]
            ),
            descendant_counts={node: reach[node].bit_count() for node in nodes},
        )

    def critical_path(self, weights: Mapping[str, float]) -> float:
        """Heaviest chain of per-task ``weights`` (all >= 0) through the graph."""
        predecessors = self.predecessors
        longest: dict[str, float] = {}
        for node in self.order:
            best = 0.0
            for pred in predecessors[node]:
                value = longest[pred]
                if value > best:
                    best = value
            longest[node] = best + weights[node]
        return max(longest.values(), default=0.0)


@dataclass
class Task:
    """One worker of a job.

    Attributes
    ----------
    task_id:
        Globally unique id, e.g. ``"j12:r0p3"`` (replica 0, partition 3)
        or ``"j12:ps"`` for a parameter-server task.
    job:
        Back-reference to the owning :class:`Job`.
    partition_index / replica_index:
        Position in the parallelism grid.  ``-1`` for PS tasks.
    is_parameter_server:
        PS tasks exist only under the parameter-server communication
        structure and receive the highest priority (Section 3.3.1).
    demand:
        Static resource demand vector of the worker.
    partition_params_m:
        Parameter count of the model partition (``S_k``, millions).
    compute_seconds:
        Compute time this worker contributes to one iteration on an
        unshared GPU.
    """

    task_id: str
    job: "Job"
    partition_index: int
    replica_index: int
    demand: ResourceVector
    partition_params_m: float
    compute_seconds: float
    is_parameter_server: bool = False
    #: What the task *really* consumes once running.  Schedulers plan
    #: with ``demand`` (the estimate); the engine accounts with this.
    #: The gap is what creates overloaded servers at runtime — the
    #: situation MLF-H's migration (Section 3.3.3) exists to fix.
    actual_demand: Optional[ResourceVector] = None

    state: TaskState = TaskState.QUEUED
    server_id: Optional[int] = None
    gpu_id: Optional[int] = None
    queued_since: float = 0.0
    total_queue_wait: float = 0.0
    num_migrations: int = 0

    @property
    def job_id(self) -> str:
        """Id of the owning job."""
        return self.job.job_id

    @property
    def true_demand(self) -> ResourceVector:
        """The demand to account on servers (actual if known)."""
        return self.actual_demand if self.actual_demand is not None else self.demand

    @property
    def is_placed(self) -> bool:
        """Whether the task currently occupies a server."""
        return self.state is TaskState.RUNNING and self.server_id is not None

    def waiting_time(self, now: float) -> float:
        """Time spent in the queue, including the current stint if queued."""
        total = self.total_queue_wait
        if self.state is TaskState.QUEUED:
            total += max(0.0, now - self.queued_since)
        return total

    def mark_placed(self, now: float, server_id: int, gpu_id: int) -> None:
        """Record placement onto a server/GPU, closing the queue stint."""
        if self.state is TaskState.QUEUED:
            self.total_queue_wait += max(0.0, now - self.queued_since)
        self.state = TaskState.RUNNING
        self.server_id = server_id
        self.gpu_id = gpu_id

    def mark_queued(self, now: float) -> None:
        """Record eviction back to the waiting queue."""
        self.state = TaskState.QUEUED
        self.server_id = None
        self.gpu_id = None
        self.queued_since = now

    def mark_finished(self) -> None:
        """Record final completion (job finished or stopped)."""
        self.state = TaskState.FINISHED
        self.server_id = None
        self.gpu_id = None


@dataclass
class Job:
    """One ML training job.

    Construction is normally done by
    :func:`repro.workload.generator.build_job`, which also populates the
    task list and dependency graph.
    """

    job_id: str
    model: ModelProfile
    arrival_time: float
    num_replicas: int
    num_partitions: int
    comm_structure: CommStructure
    max_iterations: int
    urgency: int
    deadline: float
    accuracy_requirement: float
    stop_option: StopOption = StopOption.FIXED_ITERATIONS
    allow_downgrade: bool = True
    training_data_mb: float = 500.0

    #: Job-specific accuracy curve: ``a(i) = ceiling * i / (i + half_life)``.
    accuracy_ceiling: float = 0.9
    curve_half_life: float = 8.0

    #: Estimated total execution time ``t_e`` (set by the generator; used
    #: for deadlines and by predictors).
    estimated_duration: float = 0.0

    tasks: list[Task] = field(default_factory=list)
    #: Dependency graph over task ids; an edge's ``volume_mb`` is the
    #: per-iteration communication volume on that edge.
    dag: JobGraph = field(default_factory=JobGraph)
    #: Non-dependency synchronization links (all-reduce rings/tori),
    #: charged every iteration.
    sync_links: list[Edge] = field(default_factory=list)

    state: JobState = JobState.WAITING
    iterations_completed: int = 0
    completion_time: Optional[float] = None
    first_run_time: Optional[float] = None
    stopped_early: bool = False
    #: Stop option actually in force (MLF-C may downgrade the user's one).
    effective_stop_option: Optional[StopOption] = None
    #: Accuracy measured at the deadline instant (filled by the engine).
    accuracy_at_deadline: Optional[float] = None
    #: Iterations that had completed by the deadline (engine bookkeeping).
    iterations_at_deadline: int = 0

    def __post_init__(self) -> None:
        if self.effective_stop_option is None:
            self.effective_stop_option = self.stop_option

    # -- identity ----------------------------------------------------------

    def __hash__(self) -> int:
        return hash(self.job_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Job) and other.job_id == self.job_id

    # -- size & parallelism ---------------------------------------------------

    @property
    def gpus_requested(self) -> int:
        """GPUs the job asked for (replicas × partitions)."""
        return self.num_replicas * self.num_partitions

    @property
    def total_params_m(self) -> float:
        """Whole-model parameter count ``S_J`` in millions."""
        return self.model.total_params_m

    # -- learning curves (temporal ML features) ----------------------------

    def loss_at(self, iteration: int) -> float:
        """Training loss after ``iteration`` completed iterations.

        ``l(i) = floor + (initial - floor) * (1 + i)^(-decay)`` — a
        power-law decay exhibiting the diminishing loss-reduction returns
        the paper leans on (Section 3.3.1, citing SLAQ).
        """
        m = self.model
        return m.loss_floor + (m.loss_initial - m.loss_floor) * (1.0 + iteration) ** (
            -m.loss_decay
        )

    def delta_loss(self, iteration: int) -> float:
        """Loss reduction ``δl_I`` achieved by iteration ``iteration``."""
        if iteration < 1:
            return 0.0
        return self.loss_at(iteration - 1) - self.loss_at(iteration)

    def cumulative_delta_loss(self, iteration: int) -> float:
        """``Σ_{j=1..iteration} δl_j`` — total loss reduction so far."""
        if iteration < 1:
            return 0.0
        return self.loss_at(0) - self.loss_at(iteration)

    def accuracy_at(self, iterations: float) -> float:
        """Model accuracy after ``iterations`` iterations.

        A saturating curve ``a(i) = ceiling * i / (i + half_life)`` — the
        canonical diminishing-returns shape.
        """
        if iterations <= 0:
            return 0.0
        return self.accuracy_ceiling * iterations / (iterations + self.curve_half_life)

    def iterations_for_accuracy(self, target: float) -> Optional[int]:
        """Smallest iteration count whose accuracy meets ``target``.

        Returns ``None`` when the target exceeds what ``max_iterations``
        can reach.
        """
        if target <= 0:
            return 0
        if target >= self.accuracy_ceiling:
            return None
        exact = self.curve_half_life * target / (self.accuracy_ceiling - target)
        needed = int(exact) + (0 if exact == int(exact) else 1)
        return needed if needed <= self.max_iterations else None

    @property
    def current_accuracy(self) -> float:
        """Accuracy achieved by the iterations completed so far."""
        return self.accuracy_at(self.iterations_completed)

    @property
    def final_accuracy(self) -> float:
        """Accuracy at completion (== current accuracy once completed)."""
        return self.current_accuracy

    # -- task/graph helpers ----------------------------------------------------

    def task_by_id(self, task_id: str) -> Task:
        """Look up one of this job's tasks."""
        for task in self.tasks:
            if task.task_id == task_id:
                return task
        raise KeyError(task_id)

    def queued_tasks(self) -> list[Task]:
        """Tasks currently waiting in the queue."""
        return [t for t in self.tasks if t.state is TaskState.QUEUED]

    def placed_tasks(self) -> list[Task]:
        """Tasks currently occupying a server."""
        return [t for t in self.tasks if t.state is TaskState.RUNNING]

    @property
    def is_fully_placed(self) -> bool:
        """Whether every task is on a server — the job can iterate."""
        return bool(self.tasks) and all(
            t.state is TaskState.RUNNING for t in self.tasks
        )

    @property
    def remaining_iterations(self) -> int:
        """Iterations left until ``max_iterations``."""
        return max(0, self.max_iterations - self.iterations_completed)

    @property
    def is_complete(self) -> bool:
        """Whether the job has finished (normally or stopped early)."""
        return self.state is JobState.COMPLETED

    # -- outcome metrics -----------------------------------------------------

    def jct(self) -> Optional[float]:
        """Job completion time (completion − arrival), or ``None``."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    def met_deadline(self) -> bool:
        """Whether the job completed at or before its deadline."""
        return self.completion_time is not None and self.completion_time <= self.deadline

    def met_accuracy(self) -> bool:
        """Whether the accuracy by the deadline met the requirement."""
        achieved = (
            self.accuracy_at_deadline
            if self.accuracy_at_deadline is not None
            else self.final_accuracy
        )
        return achieved >= self.accuracy_requirement
