"""Metrics collection — everything the paper's evaluation reports.

One :class:`SimulationMetrics` instance per run gathers per-job records
and cluster-level counters, then exposes the aggregates behind every
figure of Section 4.2: JCT CDF (4a/5a), average JCT (4b/5b), deadline
guarantee ratio (4c/5c), average job waiting time (4d/5d), average
accuracy by deadline (4e/5e), accuracy guarantee ratio (4f/5f),
bandwidth cost (4g/5g), scheduler time overhead (4h/5h), makespan
(Section 4.2.1 text) and server-overload occurrences (Figure 8a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.workload.job import Job


@dataclass(frozen=True, slots=True)
class JobRecord:
    """Final outcome of one job."""

    job_id: str
    model_name: str
    arrival_time: float
    completion_time: float
    deadline: float
    jct: float
    waiting_time: float
    iterations_completed: int
    max_iterations: int
    final_accuracy: float
    accuracy_at_deadline: float
    accuracy_requirement: float
    urgency: int
    gpus_requested: int
    stopped_early: bool
    num_migrations: int

    @property
    def met_deadline(self) -> bool:
        """Whether the job completed by its deadline."""
        return self.completion_time <= self.deadline

    @property
    def met_accuracy(self) -> bool:
        """Whether the accuracy by the deadline met the requirement."""
        return self.accuracy_at_deadline >= self.accuracy_requirement


@dataclass
class SimulationMetrics:
    """Accumulates per-run measurements."""

    job_records: list[JobRecord] = field(default_factory=list)
    bandwidth_mb: float = 0.0
    migration_bandwidth_mb: float = 0.0
    num_migrations: int = 0
    num_evictions: int = 0
    overload_occurrences: int = 0
    # Fault injection (repro.faults): applied events, capacity transitions,
    # kills and checkpoint-restart lost work.
    fault_events: int = 0
    servers_failed: int = 0
    servers_revived: int = 0
    gpus_failed: int = 0
    gpus_revived: int = 0
    straggler_events: int = 0
    tasks_killed: int = 0
    iterations_lost: int = 0
    scheduler_overhead_seconds: list[float] = field(default_factory=list)
    #: Jobs rejected at arrival as never placeable: ``job_id -> reason``.
    #: They have no :class:`JobRecord` and hence no JCT.
    rejected: dict[str, str] = field(default_factory=dict)
    first_arrival: Optional[float] = None
    last_completion: Optional[float] = None

    # -- recording ---------------------------------------------------------

    def record_job(self, job: Job, waiting_time: float) -> None:
        """Append the final record of a completed job."""
        if job.completion_time is None:
            raise ValueError(f"job {job.job_id} has not completed")
        accuracy_at_deadline = (
            job.accuracy_at_deadline
            if job.accuracy_at_deadline is not None
            else job.final_accuracy
        )
        self.job_records.append(
            JobRecord(
                job_id=job.job_id,
                model_name=job.model.name,
                arrival_time=job.arrival_time,
                completion_time=job.completion_time,
                deadline=job.deadline,
                jct=job.completion_time - job.arrival_time,
                waiting_time=waiting_time,
                iterations_completed=job.iterations_completed,
                max_iterations=job.max_iterations,
                final_accuracy=job.final_accuracy,
                accuracy_at_deadline=accuracy_at_deadline,
                accuracy_requirement=job.accuracy_requirement,
                urgency=job.urgency,
                gpus_requested=job.gpus_requested,
                stopped_early=job.stopped_early,
                num_migrations=job.tasks and sum(t.num_migrations for t in job.tasks) or 0,
            )
        )
        if self.first_arrival is None or job.arrival_time < self.first_arrival:
            self.first_arrival = job.arrival_time
        if self.last_completion is None or job.completion_time > self.last_completion:
            self.last_completion = job.completion_time

    def record_overhead(self, seconds: float) -> None:
        """Record one scheduler invocation's wall-clock cost."""
        self.scheduler_overhead_seconds.append(seconds)

    # -- aggregates (the paper's y-axes) ---------------------------------------

    def average_jct(self) -> float:
        """Mean job completion time in seconds (Figures 4b/5b)."""
        return _mean([r.jct for r in self.job_records])

    def jct_cdf(self, points: Optional[Sequence[float]] = None) -> list[tuple[float, float]]:
        """CDF of JCT (Figures 4a/5a) as (jct_seconds, fraction) pairs."""
        jcts = sorted(r.jct for r in self.job_records)
        if not jcts:
            return []
        if points is None:
            return [
                (jct, (index + 1) / len(jcts)) for index, jct in enumerate(jcts)
            ]
        out = []
        for p in points:
            count = sum(1 for j in jcts if j <= p)
            out.append((p, count / len(jcts)))
        return out

    def deadline_guarantee_ratio(self) -> float:
        """Fraction of jobs completing by their deadline (4c/5c)."""
        return _ratio([r.met_deadline for r in self.job_records])

    def average_waiting_time(self) -> float:
        """Mean accumulated job waiting time (4d/5d)."""
        return _mean([r.waiting_time for r in self.job_records])

    def average_accuracy(self) -> float:
        """Mean accuracy by the deadline (4e/5e)."""
        return _mean([r.accuracy_at_deadline for r in self.job_records])

    def accuracy_guarantee_ratio(self) -> float:
        """Fraction of jobs meeting their accuracy requirement (4f/5f)."""
        return _ratio([r.met_accuracy for r in self.job_records])

    def total_bandwidth_mb(self) -> float:
        """Total cross-server traffic incl. migrations in MB (4g/5g)."""
        return self.bandwidth_mb + self.migration_bandwidth_mb

    def average_overhead_ms(self) -> float:
        """Mean scheduler invocation cost in milliseconds (4h/5h)."""
        return _mean(self.scheduler_overhead_seconds) * 1000.0

    def makespan(self) -> float:
        """First arrival → last completion (Section 4.2.1)."""
        if self.first_arrival is None or self.last_completion is None:
            return 0.0
        return self.last_completion - self.first_arrival

    def urgent_deadline_ratio(self, urgency_threshold: int = 8) -> float:
        """Deadline guarantee ratio among urgent jobs (Figure 6)."""
        urgent = [r.met_deadline for r in self.job_records if r.urgency > urgency_threshold]
        return _ratio(urgent)

    def fraction_jct_below(self, seconds: float) -> float:
        """Fraction of jobs with JCT below a threshold (used in §4.2.1)."""
        if not self.job_records:
            return 0.0
        return sum(1 for r in self.job_records if r.jct < seconds) / len(self.job_records)

    def summary(self) -> dict[str, float]:
        """All headline aggregates in one dict (for tables and tests)."""
        return {
            "jobs": float(len(self.job_records)),
            "jobs_rejected": float(len(self.rejected)),
            "avg_jct_s": self.average_jct(),
            "makespan_s": self.makespan(),
            "deadline_ratio": self.deadline_guarantee_ratio(),
            "avg_wait_s": self.average_waiting_time(),
            "avg_accuracy": self.average_accuracy(),
            "accuracy_ratio": self.accuracy_guarantee_ratio(),
            "bandwidth_gb": self.total_bandwidth_mb() / 1024.0,
            "overhead_ms": self.average_overhead_ms(),
            "overload_occurrences": float(self.overload_occurrences),
            "migrations": float(self.num_migrations),
            "fault_events": float(self.fault_events),
            "tasks_killed": float(self.tasks_killed),
            "iterations_lost": float(self.iterations_lost),
        }


def _mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(flags: Sequence[bool]) -> float:
    flags = list(flags)
    return sum(flags) / len(flags) if flags else 0.0
