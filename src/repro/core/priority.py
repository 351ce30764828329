"""Task priority determination — Equations 2 through 6 (Section 3.3.1).

The priority of task ``k`` of job ``J`` at its ``I``-th iteration blends

* the **ML-feature priority** (Eq. 2–3): urgency coefficient ``L_J``,
  temporal iteration importance ``1/I`` and normalized loss reduction
  ``δl_{I-1} / Σ δl_j``, spatial partition size ``S_k / S_J``, and the
  dependency propagation ``P_k = P'_k + γ Σ_{i ∈ child(k)} P_i``;
* the **computation-feature priority** (Eq. 4–5): deadline closeness,
  remaining running time and queue waiting time, with the same
  dependency propagation;

combined as ``P = α P^ML + (1-α) P^C`` (Eq. 6).

Time-valued quantities are normalized to hours so the three Eq. 4 terms
live on comparable scales.  Parameter-server tasks receive the highest
priority of their job ("only after the parameter server is determined,
the tasks in the workers know where to send their results").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.config import MLFSConfig, PriorityWeights
from repro.workload.job import Job, Task

#: Floor on deadline slack (seconds) so 1/slack stays bounded.
MIN_SLACK_SECONDS = 60.0
#: Floor on remaining time (seconds) so 1/remaining stays bounded.
MIN_REMAINING_SECONDS = 30.0
#: Multiplier placing PS tasks above every worker of their job.
PS_PRIORITY_BOOST = 1.5


def job_temporal_factor(job: Job) -> float:
    """``(1/I) * (δl_{I-1} / Σ_{j<I} δl_j)`` — Eq. 2's temporal terms.

    ``I`` is the job's *current* iteration (1-based).  Before any
    iteration completes there is no loss history; the factor is 1 (the
    first iteration is maximally important).
    """
    current = job.iterations_completed + 1
    if job.iterations_completed < 1:
        return 1.0
    total = job.cumulative_delta_loss(job.iterations_completed)
    if total <= 0.0:
        ratio = 0.0
    else:
        ratio = job.delta_loss(job.iterations_completed) / total
    return (1.0 / current) * ratio


@dataclass
class PriorityCalculator:
    """Computes Eq. 6 priorities for every task of a set of jobs."""

    config: MLFSConfig

    # -- per-task base priorities ------------------------------------------

    def base_ml_priority(self, task: Task) -> float:
        """Eq. 2: ``P'_ML = L_J * (1/I) * (δl/Σδl) * S_k/S_J``."""
        job = task.job
        weights = self.config.priority
        urgency = float(job.urgency) if self.config.use_urgency else 1.0
        temporal = job_temporal_factor(job)
        total = job.total_params_m
        size = task.partition_params_m / total if total > 0 else 1.0
        del weights  # Eq. 2 has no tunable weight; kept for symmetry
        return urgency * temporal * size

    def base_computation_priority(self, task: Task, now: float) -> float:
        """Eq. 4: ``P'_C = γ_d/(d_k - t) + γ_r/r_k + γ_w w_k`` (hours).

        Task deadline approximated by the job deadline; remaining time
        is remaining iterations times the task's per-iteration compute.
        """
        job = task.job
        w = self.config.priority
        slack_h = max(job.deadline - now, MIN_SLACK_SECONDS) / 3600.0
        remaining_s = max(
            job.remaining_iterations * max(task.compute_seconds, 1e-3),
            MIN_REMAINING_SECONDS,
        )
        remaining_h = remaining_s / 3600.0
        # Waiting time saturates (tanh over a 4 h scale): it provides
        # starvation resistance without drowning the deadline and
        # remaining-time terms under a deep backlog.  Eq. 4 leaves the
        # units of w_k unspecified; this is our normalization choice.
        waiting = math.tanh(task.waiting_time(now) / (4.0 * 3600.0))
        # Deadline urgency applies only while the deadline is still
        # achievable (slack >= remaining work): boosting a job that can
        # no longer finish in time would waste capacity other jobs need
        # to meet *their* deadlines.
        deadline_term = 0.0
        if self.config.use_deadline and (job.deadline - now) >= remaining_s:
            deadline_term = w.gamma_d / slack_h
        return deadline_term + w.gamma_r / remaining_h + w.gamma_w * waiting

    # -- DAG propagation (Eqs. 3 and 5) --------------------------------------

    def _propagate(self, job: Job, base: dict[str, float]) -> dict[str, float]:
        """``P_k = P'_k + γ Σ_{i ∈ child(k)} P_i`` in reverse topo order."""
        gamma = self.config.priority.gamma
        children = job.dag.successors
        out: dict[str, float] = {}
        for node in reversed(job.dag.order):
            total = base.get(node, 0.0)
            for child in children[node]:
                total += gamma * out[child]
            out[node] = total
        return out

    # -- public API --------------------------------------------------------

    def job_priorities(self, job: Job, now: float) -> dict[str, float]:
        """Eq. 6 priorities for every task of one job."""
        alpha = self.config.priority.alpha if self.config.use_ml_features else 0.0
        ml_base = {t.task_id: self.base_ml_priority(t) for t in job.tasks}
        ml = self._propagate(job, ml_base)
        comp_base = {
            t.task_id: self.base_computation_priority(t, now) for t in job.tasks
        }
        comp = self._propagate(job, comp_base)
        combined = {
            tid: alpha * ml[tid] + (1.0 - alpha) * comp[tid] for tid in ml
        }
        self._boost_parameter_server(job, combined)
        return combined

    def priorities(self, jobs: list[Job], now: float) -> dict[str, float]:
        """Eq. 6 priorities for every task of every job."""
        out: dict[str, float] = {}
        for job in jobs:
            out.update(self.job_priorities(job, now))
        return out

    def _boost_parameter_server(self, job: Job, priorities: dict[str, float]) -> None:
        ps_ids = [t.task_id for t in job.tasks if t.is_parameter_server]
        if not ps_ids:
            return
        ps_set = set(ps_ids)
        worker_max = max(
            (p for tid, p in priorities.items() if tid not in ps_set),
            default=0.0,
        )
        for tid in ps_ids:
            priorities[tid] = max(priorities[tid], worker_max * PS_PRIORITY_BOOST)


def make_calculator(
    config: Optional[MLFSConfig] = None,
    weights: Optional[PriorityWeights] = None,
) -> PriorityCalculator:
    """Build a calculator, optionally overriding just the Eq. 2–6 weights."""
    if config is None:
        config = MLFSConfig() if weights is None else MLFSConfig(priority=weights)
    config.validate()
    return PriorityCalculator(config=config)
