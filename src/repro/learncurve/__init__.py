"""Learning-curve substrate: curve families, ensembles, predictors, OptStop."""

from repro.learncurve.accuracy import AccuracyPredictor
from repro.learncurve.curves import CURVE_FAMILIES, CurveFamily, fit_family
from repro.learncurve.ensemble import CurveEnsemble, FittedMember
from repro.learncurve.optstop import OptStopPolicy, StopDecision
from repro.learncurve.runtime import RuntimePredictor

__all__ = [
    "AccuracyPredictor",
    "CURVE_FAMILIES",
    "CurveEnsemble",
    "CurveFamily",
    "FittedMember",
    "OptStopPolicy",
    "RuntimePredictor",
    "StopDecision",
    "fit_family",
]
