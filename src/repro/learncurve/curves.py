"""Parametric learning-curve families.

The weighted probabilistic learning-curve model of Domhan et al. [17] —
which the paper adopts for accuracy prediction and OptStop (Sections 3.1
and 3.5) — extrapolates training curves by fitting an ensemble of
parametric families.  We implement the families most relevant to
accuracy-vs-iteration curves, each with a closed-form evaluation and a
NumPy-only least-squares fit (coarse grid search refined by coordinate
descent, so no SciPy dependency is required at runtime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

CurveFn = Callable[[np.ndarray, Sequence[float]], np.ndarray]


@dataclass(frozen=True)
class CurveFamily:
    """One parametric curve family.

    Attributes
    ----------
    name:
        Family identifier.
    fn:
        Vectorized evaluation ``fn(x, params) -> y``.
    param_grids:
        Per-parameter coarse search grids used to seed the fit.
    group_axis:
        The parameter held scalar in each bulk pass of the grid search
        (see :func:`grid_sse`); the family's ``np.power`` exponent, if
        it has one.
    """

    name: str
    fn: CurveFn
    param_grids: tuple[tuple[float, ...], ...]
    group_axis: int

    def __call__(self, x: np.ndarray, params: Sequence[float]) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=float), params)


# Each ``fn`` also accepts array parameters that broadcast against ``x``
# (a trailing axis of length 1), with the ``group_axis`` parameter left
# a scalar: that is how :func:`grid_sse` scores a whole group at once.


def _pow3(x: np.ndarray, p: Sequence[float]) -> np.ndarray:
    """``c - a * x^(-alpha)`` — the classic power-law saturation."""
    c, a, alpha = p
    return c - a * np.power(np.maximum(x, 1e-9), -alpha)


def _log_power(x: np.ndarray, p: Sequence[float]) -> np.ndarray:
    """``c / (1 + (x / e^b)^(-a))`` — log-power sigmoid."""
    c, a, b = p
    x = np.maximum(x, 1e-9)
    return c / (1.0 + np.power(x / _exp(b), -a))


def _vapor_pressure(x: np.ndarray, p: Sequence[float]) -> np.ndarray:
    """``exp(a + b / x + c * log(x))`` — vapor-pressure curve."""
    a, b, c = p
    x = np.maximum(x, 1e-9)
    return np.exp(a + b / x + c * np.log(x))


def _mmf(x: np.ndarray, p: Sequence[float]) -> np.ndarray:
    """``c * x / (x + k)`` — Michaelis–Menten/hyperbolic saturation."""
    c, k, _unused = p
    x = np.maximum(x, 0.0)
    return c * x / (x + np.maximum(k, 1e-9))


def _exp(v: float | np.ndarray) -> float | np.ndarray:
    """``math.exp``, elementwise on arrays: ``np.exp`` may differ by an ulp."""
    if isinstance(v, np.ndarray):
        return _elementwise_exp(v)
    return math.exp(v)


_elementwise_exp = np.vectorize(math.exp, otypes=[float])


#: The ensemble members, ordered deterministically.
CURVE_FAMILIES: tuple[CurveFamily, ...] = (
    CurveFamily(
        name="pow3",
        fn=_pow3,
        param_grids=(
            tuple(np.linspace(0.3, 1.0, 8)),
            tuple(np.linspace(0.1, 1.5, 8)),
            tuple(np.linspace(0.2, 2.0, 8)),
        ),
        group_axis=2,
    ),
    CurveFamily(
        name="log_power",
        fn=_log_power,
        param_grids=(
            tuple(np.linspace(0.3, 1.0, 8)),
            tuple(np.linspace(0.5, 3.0, 6)),
            tuple(np.linspace(0.0, 3.0, 6)),
        ),
        group_axis=1,
    ),
    CurveFamily(
        name="vapor_pressure",
        fn=_vapor_pressure,
        param_grids=(
            tuple(np.linspace(-2.0, 0.0, 6)),
            tuple(np.linspace(-3.0, 0.0, 6)),
            tuple(np.linspace(0.0, 0.4, 6)),
        ),
        group_axis=0,
    ),
    CurveFamily(
        name="mmf",
        fn=_mmf,
        param_grids=(
            tuple(np.linspace(0.3, 1.0, 10)),
            tuple(np.linspace(0.5, 30.0, 10)),
            (0.0,),
        ),
        group_axis=2,
    ),
)


def fit_family(
    family: CurveFamily,
    x: Sequence[float],
    y: Sequence[float],
    refine_rounds: int = 3,
) -> tuple[list[float], float]:
    """Fit one family by grid search + coordinate refinement.

    Returns ``(params, sse)``.  Deterministic; NumPy only.  The grid is
    scored in bulk (:func:`grid_sse`); of equal errors the first
    candidate in grid order wins.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size == 0:
        raise ValueError("cannot fit a curve to zero observations")

    # Coarse grid search over the cartesian product.
    grids = family.param_grids
    errors = grid_sse(family, xa, ya)
    best = int(np.argmin(errors))
    best_err = float(errors.flat[best])
    if best_err == math.inf:
        raise ValueError(f"no finite {family.name} fit on the search grid")
    best_index = np.unravel_index(best, errors.shape)
    best_params = [grid[j] for grid, j in zip(grids, best_index)]

    # Coordinate-descent refinement around the best grid point.
    step_fractions = (0.5, 0.25, 0.1)[:refine_rounds]
    spacings = [_grid_span(grid) for grid in grids]
    for frac in step_fractions:
        for i in range(len(best_params)):
            span = spacings[i] * frac
            if span <= 0:
                continue
            for delta in (-span, span, -span / 2, span / 2):
                trial = list(best_params)
                trial[i] += delta
                err = _trial_sse(family.fn(xa, trial), ya)
                if err < best_err:
                    best_err = err
                    best_params = trial
    return best_params, best_err


def grid_sse(family: CurveFamily, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The SSE of every grid candidate, shaped like the grid.

    One pass per value of ``family.group_axis``, with that parameter a
    scalar and the others broadcast, so each pass computes
    ``(candidates in the group, n)`` rows.  Every row is the same IEEE
    operation sequence as a one-candidate evaluation, so each entry is
    bit-identical to scoring that candidate alone.
    """
    grids = family.param_grids
    axis = family.group_axis
    others = [i for i in range(len(grids)) if i != axis]
    params: list[float | np.ndarray] = [0.0] * len(grids)
    for pos, i in enumerate(others):
        shape = [1] * (len(others) + 1)
        shape[pos] = len(grids[i])
        params[i] = np.asarray(grids[i]).reshape(shape)
    errors = np.empty(tuple(len(grid) for grid in grids))
    by_group = np.moveaxis(errors, axis, 0)
    for j, value in enumerate(grids[axis]):
        params[axis] = value
        by_group[j] = np.add.reduce((family.fn(x, params) - y) ** 2, axis=-1)
    # A non-finite prediction makes its row's sum inf or NaN; NaN would
    # win an argmin, so it scores inf like every other non-finite row.
    errors[np.isnan(errors)] = np.inf
    return errors


def _trial_sse(pred: np.ndarray, y: np.ndarray) -> float:
    """Sum of squared errors of one prediction; ``inf`` if non-finite."""
    err = float(np.add.reduce((pred - y) ** 2))
    return math.inf if math.isnan(err) else err


def _grid_span(grid: tuple[float, ...]) -> float:
    """Spacing scale of a search grid."""
    if len(grid) < 2:
        return 0.0
    return (max(grid) - min(grid)) / (len(grid) - 1)
