"""Weighted probabilistic learning-curve ensemble (Domhan et al. [17]).

The paper's OptStop "uses a weighted probabilistic learning curve model
to predict the job's accuracy at the specified maximum iteration"
(Section 3.5).  We fit every family in
:data:`repro.learncurve.curves.CURVE_FAMILIES` to the observed
(iteration, accuracy) points, weight members by goodness of fit, and
expose a predictive mean plus an uncertainty estimate — enough to
implement the "stop when the prediction confidence is higher than a
threshold" rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.learncurve.curves import CURVE_FAMILIES, CurveFamily, fit_family


@dataclass
class FittedMember:
    """One fitted ensemble member: a family, its parameters and weight."""

    family: CurveFamily
    params: list[float]
    sse: float
    weight: float

    def predict(self, iteration: float) -> float:
        """Evaluate this member at an iteration count."""
        return float(self.family(np.asarray([iteration]), self.params)[0])


@dataclass
class CurveEnsemble:
    """A fitted weighted ensemble over learning-curve families.

    Use :meth:`fit` to construct.  The ensemble weight of member ``m``
    is ``softmin`` of its per-point mean squared error, so better-fitting
    families dominate the prediction while every family retains
    probability mass (the "probabilistic" aspect of [17]).
    """

    members: list[FittedMember] = field(default_factory=list)
    observed_x: list[float] = field(default_factory=list)
    observed_y: list[float] = field(default_factory=list)

    @classmethod
    def fit(
        cls, iterations: Sequence[float], accuracies: Sequence[float]
    ) -> "CurveEnsemble":
        """Fit all families to the observations and weight them."""
        if len(iterations) != len(accuracies):
            raise ValueError("iterations and accuracies must be the same length")
        if len(iterations) < 2:
            raise ValueError("need at least two observations to fit an ensemble")
        x = list(map(float, iterations))
        y = list(map(float, accuracies))
        n = len(x)

        members = []
        for family in CURVE_FAMILIES:
            params, err = fit_family(family, x, y)
            members.append(FittedMember(family=family, params=params, sse=err, weight=0.0))

        mses = np.asarray([m.sse / n for m in members])
        # Soft-min weighting with a temperature tied to the error scale.
        scale = max(float(np.min(mses)), 1e-8)
        logits = -mses / scale
        logits -= logits.max()
        weights = np.exp(logits)
        weights /= weights.sum()
        for member, weight in zip(members, weights):
            member.weight = float(weight)
        return cls(members=members, observed_x=x, observed_y=y)

    # -- prediction -----------------------------------------------------

    def predict(self, iteration: float) -> float:
        """Weighted-mean accuracy prediction at an iteration count."""
        value = sum(m.weight * m.predict(iteration) for m in self.members)
        return float(min(1.0, max(0.0, value)))

    def predict_std(self, iteration: float) -> float:
        """Ensemble spread at an iteration — the uncertainty estimate.

        Combines the weighted variance of member predictions with the
        residual error on the observed prefix.
        """
        mean = sum(m.weight * m.predict(iteration) for m in self.members)
        var = sum(m.weight * (m.predict(iteration) - mean) ** 2 for m in self.members)
        residual = self._residual_std()
        return math.sqrt(var + residual * residual)

    def confidence_below(self, iteration: float, threshold: float) -> float:
        """P(accuracy at ``iteration`` < ``threshold``) under a normal model.

        This is the confidence OptStop requires before aborting a job
        whose predicted accuracy misses its requirement.
        """
        mean = self.predict(iteration)
        std = max(self.predict_std(iteration), 1e-6)
        z = (threshold - mean) / std
        return _normal_cdf(z)

    def _residual_std(self) -> float:
        """Weighted RMS residual of the members on the observed data."""
        n = max(len(self.observed_x), 1)
        mse = sum(m.weight * m.sse / n for m in self.members)
        return math.sqrt(max(mse, 0.0))


def _normal_cdf(z: float) -> float:
    """Standard normal CDF via erf (no SciPy dependency)."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
