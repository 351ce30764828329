"""Comparison schedulers from the paper's evaluation (Section 4.1)."""

from repro.baselines.base import GangScheduler, pack_tasks, waiting_jobs
from repro.baselines.fair import FairScheduler
from repro.baselines.fifo import FIFOScheduler
from repro.baselines.gandiva import GandivaScheduler
from repro.baselines.graphene import GrapheneScheduler
from repro.baselines.hypersched import HyperSchedScheduler
from repro.baselines.rl_sched import RLScheduler
from repro.baselines.slaq import SLAQScheduler
from repro.baselines.tiresias import TiresiasScheduler

__all__ = [
    "FIFOScheduler",
    "FairScheduler",
    "GandivaScheduler",
    "GangScheduler",
    "GrapheneScheduler",
    "HyperSchedScheduler",
    "RLScheduler",
    "SLAQScheduler",
    "TiresiasScheduler",
    "pack_tasks",
    "waiting_jobs",
]
