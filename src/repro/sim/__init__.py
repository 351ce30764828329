"""Discrete-event ML-cluster simulator: events, execution, network, engine."""

from repro.sim.engine import EngineConfig, PassResult, SimulationEngine, TaskQueue
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.execution import ExecutionModel
from repro.sim.interface import (
    Eviction,
    JobStop,
    Migration,
    Placement,
    Scheduler,
    SchedulerDecision,
    SchedulingContext,
)
from repro.sim.metrics import JobRecord, SimulationMetrics
from repro.sim.network import (
    CommLink,
    IterationComm,
    iteration_comm,
    job_links,
    migration_volume_mb,
    pairwise_cross_volume,
)

__all__ = [
    "CommLink",
    "EngineConfig",
    "Event",
    "EventKind",
    "EventQueue",
    "Eviction",
    "ExecutionModel",
    "IterationComm",
    "JobRecord",
    "JobStop",
    "Migration",
    "PassResult",
    "Placement",
    "Scheduler",
    "SchedulerDecision",
    "SchedulingContext",
    "SimulationEngine",
    "SimulationMetrics",
    "TaskQueue",
    "iteration_comm",
    "job_links",
    "migration_volume_mb",
    "pairwise_cross_volume",
]

