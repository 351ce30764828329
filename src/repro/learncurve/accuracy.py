"""Accuracy prediction service (paper Section 3.1).

The paper assumes "the accuracy of a job can be predicted … around 90%
accuracy" using the learning-curve extrapolation of [17].  The predictor
here observes a job's accuracy history (optionally with measurement
noise, to reproduce the 90%-accurate rather than oracle behaviour) and
extrapolates with the weighted probabilistic ensemble.  A cheap
closed-form fallback is used while too few observations exist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.learncurve.ensemble import CurveEnsemble
from repro.workload.job import Job


@dataclass
class AccuracyPredictor:
    """Predicts a job's accuracy at a future iteration.

    Parameters
    ----------
    noise_std:
        Standard deviation of the multiplicative observation noise;
        ``0.03`` yields roughly the 90% prediction accuracy the paper
        reports for [17].
    min_observations:
        Observations required before the ensemble is fitted; below this
        the predictor falls back to the analytic curve through the last
        observation.
    refit_every:
        Ensemble refit cadence (in new observations) to bound cost.
    """

    noise_std: float = 0.02
    min_observations: int = 4
    refit_every: int = 5
    seed: int = 0

    _rng: random.Random = field(init=False, repr=False)
    _history: dict[str, tuple[list[float], list[float]]] = field(
        default_factory=dict, repr=False
    )
    _ensembles: dict[str, CurveEnsemble] = field(default_factory=dict, repr=False)
    _since_fit: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    # -- observation ------------------------------------------------------

    def observe(self, job: Job, iteration: int, accuracy: Optional[float] = None) -> float:
        """Record a (noisy) accuracy measurement for a job.

        ``accuracy=None`` reads the job's true curve and applies the
        configured observation noise.  Returns the recorded value.
        """
        true = job.accuracy_at(iteration) if accuracy is None else accuracy
        noisy = true
        if accuracy is None and self.noise_std > 0:
            noisy = max(0.0, min(1.0, true * (1.0 + self._rng.gauss(0.0, self.noise_std))))
        history = self._history.get(job.job_id)
        if history is None:
            history = self._history[job.job_id] = ([], [])
        xs, ys = history
        xs.append(float(iteration))
        ys.append(noisy)
        self._since_fit[job.job_id] = self._since_fit.get(job.job_id, 0) + 1
        return noisy

    def observations(self, job: Job) -> int:
        """Number of recorded observations for a job."""
        xs, _ys = self._history.get(job.job_id, ([], []))
        return len(xs)

    # -- prediction ---------------------------------------------------------

    def predict(self, job: Job, iteration: int) -> float:
        """Predicted accuracy of ``job`` at ``iteration``."""
        ensemble = self._ensemble_for(job)
        if ensemble is not None:
            return ensemble.predict(iteration)
        return self._fallback(job, iteration)

    def predict_final(self, job: Job) -> float:
        """Predicted accuracy at the job's specified maximum iteration."""
        return self.predict(job, job.max_iterations)

    def confidence_below(self, job: Job, iteration: int, threshold: float) -> float:
        """P(accuracy at ``iteration`` < ``threshold``)."""
        ensemble = self._ensemble_for(job)
        if ensemble is not None:
            return ensemble.confidence_below(iteration, threshold)
        # Fallback: point estimate with a fixed modest uncertainty.
        predicted = self._fallback(job, iteration)
        return 1.0 if predicted < threshold else 0.0

    def forget(self, job: Job) -> None:
        """Drop all state for a finished job."""
        self._history.pop(job.job_id, None)
        self._ensembles.pop(job.job_id, None)
        self._since_fit.pop(job.job_id, None)

    # -- internals -------------------------------------------------------------

    def _ensemble_for(self, job: Job) -> Optional[CurveEnsemble]:
        xs, ys = self._history.get(job.job_id, ([], []))
        if len(xs) < self.min_observations:
            return None
        stale = self._since_fit.get(job.job_id, 0) >= self.refit_every
        if job.job_id not in self._ensembles or stale:
            self._ensembles[job.job_id] = CurveEnsemble.fit(xs, ys)
            self._since_fit[job.job_id] = 0
        return self._ensembles[job.job_id]

    def _fallback(self, job: Job, iteration: int) -> float:
        """Closed-form early estimate: scale the analytic curve through
        the most recent observation."""
        xs, ys = self._history.get(job.job_id, ([], []))
        if not xs:
            return job.accuracy_at(iteration)
        last_x, last_y = xs[-1], ys[-1]
        model_last = job.accuracy_at(int(last_x))
        scale = last_y / model_last if model_last > 1e-9 else 1.0
        return max(0.0, min(1.0, job.accuracy_at(iteration) * scale))
