"""OptStop: the optimal ML iteration stopping rule (paper Section 3.5).

"When a job is running, we first use a weighted probabilistic learning
curve model to predict the job's accuracy at the specified maximum
iteration.  If the predicted accuracy is less than an accuracy
threshold, the training stops when the prediction confidence is higher
than a threshold.  Otherwise, the training continues and stops when the
achieved accuracy reaches the accuracy threshold."

The *accuracy threshold* depends on the job's effective stop option:

* ``OPT_STOP`` targets the near-maximum accuracy (a fraction of the
  predicted final accuracy — "equals or is close to the maximum"),
* ``ACCURACY_ONLY`` targets the user's required accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.learncurve.accuracy import AccuracyPredictor
from repro.workload.job import Job, StopOption


class StopDecision(Enum):
    """Outcome of an OptStop evaluation."""

    CONTINUE = "continue"
    STOP_TARGET_REACHED = "stop_target_reached"
    STOP_UNREACHABLE = "stop_unreachable"


@dataclass
class OptStopPolicy:
    """The early-stopping rule evaluated at every iteration boundary.

    Parameters
    ----------
    plateau_fraction:
        Under ``OPT_STOP``, stop once the achieved accuracy reaches this
        fraction of the predicted final accuracy (the point where more
        iterations yield "little or no improvement").
    confidence_threshold:
        Confidence required before aborting a job predicted to miss its
        threshold.
    min_iterations:
        Never stop before this many iterations — the predictor needs a
        prefix to extrapolate from.
    """

    plateau_fraction: float = 0.995
    confidence_threshold: float = 0.9
    #: Predicted shortfall required (on top of confidence) before
    #: aborting — guards against ensemble noise killing healthy jobs.
    unreachable_margin: float = 0.02
    min_iterations: int = 3

    def target_accuracy(self, job: Job, predictor: AccuracyPredictor) -> float:
        """The accuracy threshold implied by the job's effective option."""
        option = job.effective_stop_option or job.stop_option
        if option is StopOption.ACCURACY_ONLY:
            return job.accuracy_requirement
        if option is StopOption.OPT_STOP:
            predicted_final = predictor.predict_final(job)
            return max(job.accuracy_requirement, predicted_final * self.plateau_fraction)
        return float("inf")  # FIXED_ITERATIONS: never stop early

    def evaluate(
        self, job: Job, predictor: AccuracyPredictor, achieved_accuracy: float
    ) -> StopDecision:
        """Decide whether a job should stop now.

        Parameters
        ----------
        job:
            The running job; its ``effective_stop_option`` selects the
            threshold.
        predictor:
            The accuracy-prediction service holding the job's history.
        achieved_accuracy:
            The most recent measured accuracy.
        """
        option = job.effective_stop_option or job.stop_option
        if option is StopOption.FIXED_ITERATIONS:
            return StopDecision.CONTINUE
        if job.iterations_completed < self.min_iterations:
            return StopDecision.CONTINUE

        threshold = self.target_accuracy(job, predictor)
        if achieved_accuracy >= threshold:
            return StopDecision.STOP_TARGET_REACHED

        # The unreachable check only makes sense against an *absolute*
        # requirement.  Under OPT_STOP the threshold is derived from the
        # predicted final accuracy itself, so comparing the prediction
        # against it would merely re-test the ensemble's noise.
        if option is StopOption.ACCURACY_ONLY:
            requirement = job.accuracy_requirement
            predicted_final = predictor.predict_final(job)
            if predicted_final < requirement - self.unreachable_margin:
                confidence = predictor.confidence_below(
                    job, job.max_iterations, requirement
                )
                if confidence >= self.confidence_threshold:
                    return StopDecision.STOP_UNREACHABLE
        return StopDecision.CONTINUE
