"""SLAQ (Zhang et al., SoCC 2017) — as characterized in the paper.

"SLAQ aims to maximize the overall job accuracy … predicts the loss
reduction and runtime … and then chooses the job with the maximum loss
reduction per unit runtime" (Section 2).  Each epoch SLAQ reallocates:
waiting jobs with high marginal quality gain displace running jobs with
low gain.  It does not consider JCT, deadlines or bandwidth — which is
why it trails on those metrics in Figure 4.

Two pieces of clocked state back that description:

* the reallocation *epoch* — preemption runs every ``epoch_passes``-th
  scheduling pass on a pass-indexed :class:`~repro.sim.clock.PassClock`
  (SLAQ re-evaluates allocations at epoch, not pass, granularity);
* the quality-gain *estimate* — an EWMA of the observed loss reduction
  per second, updated from iteration-completion events (SLAQ's online
  measurement of each job's marginal quality), blended with the
  predictor's one-step-ahead estimate.

The epoch clock advances analytically across parked gaps through
:meth:`accrue`; the EWMA is driven purely by iteration events, which
fire identically under both pass policies — so SLAQ parks with
bit-identical outcomes (DESIGN.md §15.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.base import GangScheduler, waiting_jobs
from repro.sim.clock import PassClock
from repro.sim.interface import SchedulingContext
from repro.workload.job import Job


@dataclass
class SLAQScheduler(GangScheduler):
    """Quality-driven (loss-reduction-per-second) gang scheduling."""

    name: str = "SLAQ"
    max_preemptions_per_round: int = 4
    #: Reallocation cadence: preemption runs every N-th pass (1 = every
    #: pass, the pre-epoch behavior).
    epoch_passes: int = 1
    #: EWMA weight of the newest observed loss-reduction rate.
    ewma_alpha: float = 0.25
    #: Observed loss reduction per second, per job (EWMA).
    _gain_rate: dict[str, float] = field(default_factory=dict)
    #: Last iteration-completion time per job (rate denominator).
    _last_iteration_at: dict[str, float] = field(default_factory=dict)
    _clock: PassClock = field(init=False)

    def __post_init__(self) -> None:
        self._clock = PassClock(max(1, self.epoch_passes))

    def accrue(
        self,
        gap_seconds: float,
        *,
        skipped_passes: int,
        now: float,
        tick_seconds: float,
    ) -> None:
        """Replay the epoch clock over a parked gap.

        Epochs that elapsed inside the gap evaluated preemption against
        an empty waiting set (the park precondition) and did nothing;
        the integer modulo of :class:`PassClock` is that loop's closed
        form.  The quality-gain EWMA needs no accrual: it advances on
        iteration completions, which fire during parked gaps exactly as
        they do under the fixed cadence.
        """
        self._clock.advance(skipped_passes)

    # -- quality-gain estimation ----------------------------------------------

    def on_iteration_complete(self, job: Job, now: float) -> None:
        """Fold the just-measured loss reduction into the job's EWMA."""
        previous = self._last_iteration_at.get(job.job_id)
        self._last_iteration_at[job.job_id] = now
        if previous is None or now <= previous:
            return
        iteration = max(job.iterations_completed, 1)
        observed = job.delta_loss(iteration) / (now - previous)
        current = self._gain_rate.get(job.job_id)
        if current is None:
            self._gain_rate[job.job_id] = observed
        else:
            self._gain_rate[job.job_id] = (
                self.ewma_alpha * observed + (1.0 - self.ewma_alpha) * current
            )

    def on_job_complete(self, job: Job, now: float) -> None:
        self._gain_rate.pop(job.job_id, None)
        self._last_iteration_at.pop(job.job_id, None)

    def quality_score(self, job: Job, ctx: SchedulingContext) -> float:
        """Loss reduction of the next iteration per second.

        The predictor's one-step-ahead estimate, averaged with the
        observed EWMA once the job has produced one — SLAQ's measured
        marginal quality correcting the model's prior.
        """
        next_iteration = job.iterations_completed + 1
        if next_iteration > job.max_iterations:
            return 0.0
        loss_reduction = job.delta_loss(next_iteration)
        iter_time = max(ctx.runtime_predictor.iteration_time(job), 1e-6)
        predicted = loss_reduction / iter_time
        observed = self._gain_rate.get(job.job_id)
        if observed is None:
            return predicted
        return 0.5 * (predicted + observed)

    # -- GangScheduler hooks --------------------------------------------------

    def job_order(self, jobs: list[Job], ctx: SchedulingContext) -> list[Job]:
        return sorted(
            jobs,
            key=lambda j: (-self.quality_score(j, ctx), j.arrival_time, j.job_id),
        )

    def preemptions(self, ctx: SchedulingContext) -> list[Job]:
        """Displace running jobs whose marginal quality trails waiters.

        Runs once per epoch: the clock ticks first (every pass, in both
        pass policies) and gates the evaluation.
        """
        due = self._clock.tick()
        if not due:
            return []
        waiting = waiting_jobs(ctx)
        if not waiting:
            return []
        best_waiting = max(self.quality_score(j, ctx) for j in waiting)
        running = [j for j in ctx.active_jobs if j.is_fully_placed]
        victims = [
            j for j in running if self.quality_score(j, ctx) < best_waiting * 0.5
        ]
        victims.sort(key=lambda j: self.quality_score(j, ctx))
        return victims[: self.max_preemptions_per_round]
