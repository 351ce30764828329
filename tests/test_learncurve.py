"""Unit tests for curve fitting, the ensemble, predictors and OptStop."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.learncurve import (
    CURVE_FAMILIES,
    AccuracyPredictor,
    CurveEnsemble,
    CurveFamily,
    OptStopPolicy,
    RuntimePredictor,
    StopDecision,
    fit_family,
)
from repro.learncurve.curves import _grid_span, grid_sse
from repro.workload import StopOption
from tests.conftest import make_job


def saturating_curve(x, ceiling=0.9, half=8.0):
    return ceiling * x / (x + half)


class TestCurveFamilies:
    def test_four_families(self):
        assert len(CURVE_FAMILIES) == 4
        assert {f.name for f in CURVE_FAMILIES} == {
            "pow3",
            "log_power",
            "vapor_pressure",
            "mmf",
        }

    def test_fit_recovers_mmf(self):
        family = next(f for f in CURVE_FAMILIES if f.name == "mmf")
        xs = list(range(1, 15))
        ys = [saturating_curve(x) for x in xs]
        params, err = fit_family(family, xs, ys)
        assert err < 1e-3
        assert family(np.array([100.0]), params)[0] == pytest.approx(
            saturating_curve(100.0), abs=0.05
        )

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            fit_family(CURVE_FAMILIES[0], [], [])

    def test_fit_deterministic(self):
        xs = [1, 2, 3, 4, 5]
        ys = [0.2, 0.35, 0.45, 0.5, 0.55]
        a = fit_family(CURVE_FAMILIES[0], xs, ys)
        b = fit_family(CURVE_FAMILIES[0], xs, ys)
        assert a == b


# -- the oracle: the one-candidate-at-a-time fit ----------------------------


def scalar_sse(family, params, x, y):
    """Sum of squared errors of one parameterization; inf if non-finite."""
    pred = family(x, params)
    if not np.all(np.isfinite(pred)):
        return float("inf")
    return float(np.sum((pred - y) ** 2))


def scalar_fit_family(family, x, y, refine_rounds=3):
    """The scalar grid search + coordinate refinement :func:`fit_family`
    must reproduce bit for bit: every candidate scored by its own
    :func:`scalar_sse` call, in grid order, under a strict ``<``."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size == 0:
        raise ValueError("cannot fit a curve to zero observations")
    best_params = None
    best_err = float("inf")
    grids = family.param_grids
    for candidate in grid_candidates(family):
        err = scalar_sse(family, candidate, xa, ya)
        if err < best_err:
            best_err = err
            best_params = list(candidate)
    assert best_params is not None
    for frac in (0.5, 0.25, 0.1)[:refine_rounds]:
        for i in range(len(best_params)):
            span = _grid_span(grids[i]) * frac
            if span <= 0:
                continue
            for delta in (-span, span, -span / 2, span / 2):
                trial = list(best_params)
                trial[i] += delta
                err = scalar_sse(family, trial, xa, ya)
                if err < best_err:
                    best_err = err
                    best_params = trial
    return best_params, best_err


def grid_candidates(family):
    """The cartesian product of the family's grids, in grid order."""
    stack = [[]]
    for grid in family.param_grids:
        stack = [prefix + [value] for prefix in stack for value in grid]
    return stack


def fit_bits(result):
    """``(params, sse)`` as exact float bits."""
    params, err = result
    return [float(value).hex() for value in params], float(err).hex()


def assert_matches_oracle(family, x, y):
    """Fit and grid SSEs are bit-identical to the scalar oracle."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    expected = [scalar_sse(family, c, x, y) for c in grid_candidates(family)]
    got = grid_sse(family, x, y).ravel()
    assert [float(v).hex() for v in got] == [float(v).hex() for v in expected]
    assert fit_bits(fit_family(family, x, y)) == fit_bits(
        scalar_fit_family(family, x, y)
    )


def make_curve(kind, n, start, step, noise, seed):
    """A learning-curve history: ``kind`` in flat / decreasing / saturating."""
    x = start + step * np.arange(n, dtype=float)
    rng = np.random.default_rng(seed)
    if kind == "flat":
        y = np.full(n, 0.6)
    elif kind == "decreasing":
        y = 0.9 - 0.4 * x / (x + 10.0)
    else:
        y = saturating_curve(x)
    return x, y + rng.normal(0.0, noise, n)


FAMILY_NAMES = [family.name for family in CURVE_FAMILIES]


def family_named(name):
    return next(f for f in CURVE_FAMILIES if f.name == name)


#: A family whose grid overflows on part of its rows (large rates) and
#: turns NaN on others (``0 * inf``), so rows of one pass disagree.
EXP_RATE = CurveFamily(
    name="exp_rate",
    fn=lambda x, p: p[0] * np.exp(p[1] * x),
    param_grids=((0.0, 0.5, 1.0), (-1.0, 0.5, 100.0, 1000.0)),
    group_axis=0,
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFitMatchesOracle:
    @given(
        kind=st.sampled_from(["flat", "decreasing", "saturating"]),
        n=st.integers(min_value=2, max_value=300),
        start=st.sampled_from([0.0, 1.0]),
        step=st.floats(min_value=0.01, max_value=50.0),
        noise=st.sampled_from([0.0, 0.01, 0.1]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_family_matches_oracle(self, kind, n, start, step, noise, seed):
        x, y = make_curve(kind, n, start, step, noise, seed)
        for family in CURVE_FAMILIES:
            assert_matches_oracle(family, x, y)

    @pytest.mark.parametrize("n", [127, 128, 129, 8193, 20000])
    def test_long_histories_match_oracle(self, n):
        x, y = make_curve("saturating", n, 1.0, 1.0, 0.02, seed=n)
        for family in CURVE_FAMILIES:
            assert_matches_oracle(family, x, y)

    def test_non_finite_rows_score_inf(self):
        x = np.linspace(0.0, 5.0, 12)
        y = np.exp(-x)
        errors = grid_sse(EXP_RATE, x, y)
        assert np.isinf(errors).any() and np.isfinite(errors).any()
        assert not np.isnan(errors).any()
        assert_matches_oracle(EXP_RATE, x, y)

    def test_vapor_pressure_overflow_matches_oracle(self):
        """Tiny iterations make ``b / x`` overflow ``exp`` once the
        refine steps ``b`` past 0, so some candidates are non-finite."""
        x = np.array([1e-9, 1e-6, 1e-3, 1.0, 2.0])
        y = x**0.4
        family = family_named("vapor_pressure")
        non_finite = []

        def watched(xs, params):
            pred = family.fn(xs, params)
            non_finite.append(not np.all(np.isfinite(pred)))
            return pred

        fit_family(dataclasses.replace(family, fn=watched), x, y)
        assert any(non_finite)
        assert_matches_oracle(family, x, y)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_ties_go_to_first_candidate(self, name):
        """At x = 1 (x = 0 for mmf) whole grid axes predict the same
        curve, so their SSEs tie and the first grid value must win."""
        family = family_named(name)
        x = np.zeros(4) if name == "mmf" else np.ones(4)
        y = np.full(4, 0.5)
        errors = grid_sse(family, x, y)
        best = np.unravel_index(int(np.argmin(errors)), errors.shape)
        assert (errors == errors[best]).sum() > 1
        assert_matches_oracle(family, x, y)
        if name == "mmf":
            params, _ = fit_family(family, x, y)
            assert params == [grid[0] for grid in family.param_grids]

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_all_inf_grid_raises(self, name):
        family = family_named(name)
        x = np.arange(1.0, 5.0)
        y = np.array([0.1, np.inf, 0.3, 0.4])
        assert np.isinf(grid_sse(family, x, y)).all()
        with pytest.raises(ValueError, match="no finite"):
            fit_family(family, x, y)
        with pytest.raises(AssertionError):
            scalar_fit_family(family, x, y)


class TestEnsemble:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            CurveEnsemble.fit([1], [0.5])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            CurveEnsemble.fit([1, 2], [0.5])

    def test_weights_sum_to_one(self):
        xs = list(range(1, 10))
        ys = [saturating_curve(x) for x in xs]
        ensemble = CurveEnsemble.fit(xs, ys)
        assert sum(m.weight for m in ensemble.members) == pytest.approx(1.0)

    def test_extrapolation_close_to_truth(self):
        xs = list(range(1, 12))
        ys = [saturating_curve(x) for x in xs]
        ensemble = CurveEnsemble.fit(xs, ys)
        predicted = ensemble.predict(40)
        assert predicted == pytest.approx(saturating_curve(40), abs=0.08)

    def test_prediction_clamped_to_unit_interval(self):
        ensemble = CurveEnsemble.fit([1, 2, 3, 4], [0.9, 0.95, 0.97, 0.99])
        assert 0.0 <= ensemble.predict(1000) <= 1.0

    def test_std_positive(self):
        xs = list(range(1, 8))
        ys = [saturating_curve(x) for x in xs]
        ensemble = CurveEnsemble.fit(xs, ys)
        assert ensemble.predict_std(30) > 0.0

    def test_confidence_below_monotone_in_threshold(self):
        xs = list(range(1, 8))
        ys = [saturating_curve(x) for x in xs]
        ensemble = CurveEnsemble.fit(xs, ys)
        low = ensemble.confidence_below(30, 0.2)
        high = ensemble.confidence_below(30, 0.99)
        assert low < high

    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_fit_never_crashes_on_noiseless_curves(self, n):
        xs = list(range(1, n + 1))
        ys = [saturating_curve(x) for x in xs]
        ensemble = CurveEnsemble.fit(xs, ys)
        assert 0.0 <= ensemble.predict(n * 2) <= 1.0


class TestAccuracyPredictor:
    def test_observe_and_predict_noiseless(self):
        predictor = AccuracyPredictor(noise_std=0.0)
        job = make_job(seed=1, iterations=40)
        for i in range(1, 8):
            predictor.observe(job, i)
        predicted = predictor.predict(job, 40)
        assert predicted == pytest.approx(job.accuracy_at(40), abs=0.05)

    def test_noisy_observation_bounded(self):
        predictor = AccuracyPredictor(noise_std=0.05, seed=3)
        job = make_job(seed=1)
        for i in range(1, 6):
            value = predictor.observe(job, i)
            assert 0.0 <= value <= 1.0

    def test_fallback_before_min_observations(self):
        predictor = AccuracyPredictor(noise_std=0.0, min_observations=10)
        job = make_job(seed=1)
        predictor.observe(job, 1)
        assert predictor.predict(job, 20) == pytest.approx(
            job.accuracy_at(20), abs=0.02
        )

    def test_predict_without_observations_uses_curve(self):
        predictor = AccuracyPredictor()
        job = make_job(seed=2)
        assert predictor.predict(job, 10) == pytest.approx(job.accuracy_at(10))

    def test_forget_clears_state(self):
        predictor = AccuracyPredictor()
        job = make_job(seed=2)
        predictor.observe(job, 1)
        assert predictor.observations(job) == 1
        predictor.forget(job)
        assert predictor.observations(job) == 0

    def test_confidence_below(self):
        predictor = AccuracyPredictor(noise_std=0.0)
        job = make_job(seed=2, iterations=40)
        for i in range(1, 8):
            predictor.observe(job, i)
        # Achievable accuracy is well below 0.999.
        assert predictor.confidence_below(job, 40, 0.999) > 0.5


class TestRuntimePredictor:
    def test_cold_prediction_uses_estimate(self):
        predictor = RuntimePredictor(cold_error_std=0.0, warm_error_std=0.0)
        job = make_job(seed=3, iterations=10)
        total = predictor.total_time(job)
        assert total == pytest.approx(job.estimated_duration, rel=1e-6)

    def test_cold_factor_sticky(self):
        predictor = RuntimePredictor(cold_error_std=0.3, seed=1)
        job = make_job(seed=3)
        assert predictor.iteration_time(job) == predictor.iteration_time(job)

    def test_warm_prediction_tracks_observations(self):
        predictor = RuntimePredictor(warm_error_std=0.0)
        job = make_job(seed=3, iterations=10)
        for _ in range(5):
            predictor.observe_iteration(job, 120.0)
        assert predictor.iteration_time(job) == pytest.approx(120.0)
        job.iterations_completed = 4
        assert predictor.remaining_time(job) == pytest.approx(6 * 120.0)

    def test_negative_duration_rejected(self):
        predictor = RuntimePredictor()
        with pytest.raises(ValueError):
            predictor.observe_iteration(make_job(seed=3), -1.0)

    def test_remaining_zero_when_done(self):
        predictor = RuntimePredictor()
        job = make_job(seed=3, iterations=10)
        job.iterations_completed = 10
        assert predictor.remaining_time(job) == 0.0

    def test_window_limits_memory(self):
        predictor = RuntimePredictor(window=4, warm_error_std=0.0)
        job = make_job(seed=3)
        for value in [100.0] * 10 + [10.0] * 4:
            predictor.observe_iteration(job, value)
        assert predictor.iteration_time(job) == pytest.approx(10.0)

    def test_forget(self):
        predictor = RuntimePredictor()
        job = make_job(seed=3)
        predictor.observe_iteration(job, 5.0)
        predictor.forget(job)
        assert not predictor.has_history(job)


class TestOptStop:
    def make_ready_job(self, option, seed=4, iterations=60):
        job = make_job(seed=seed, iterations=iterations)
        job.stop_option = option
        job.effective_stop_option = option
        return job

    def observed_predictor(self, job, upto):
        predictor = AccuracyPredictor(noise_std=0.0)
        for i in range(1, upto + 1):
            predictor.observe(job, i)
        return predictor

    def test_fixed_iterations_never_stops(self):
        job = self.make_ready_job(StopOption.FIXED_ITERATIONS)
        job.iterations_completed = 50
        predictor = self.observed_predictor(job, 50)
        policy = OptStopPolicy()
        assert (
            policy.evaluate(job, predictor, job.current_accuracy)
            is StopDecision.CONTINUE
        )

    def test_accuracy_only_stops_at_requirement(self):
        job = self.make_ready_job(StopOption.ACCURACY_ONLY)
        job.accuracy_requirement = job.accuracy_at(10)
        job.iterations_completed = 12
        predictor = self.observed_predictor(job, 12)
        policy = OptStopPolicy()
        assert (
            policy.evaluate(job, predictor, job.current_accuracy)
            is StopDecision.STOP_TARGET_REACHED
        )

    def test_min_iterations_guard(self):
        job = self.make_ready_job(StopOption.ACCURACY_ONLY)
        job.accuracy_requirement = 0.0001
        job.iterations_completed = 1
        predictor = self.observed_predictor(job, 1)
        policy = OptStopPolicy(min_iterations=3)
        assert (
            policy.evaluate(job, predictor, job.current_accuracy)
            is StopDecision.CONTINUE
        )

    def test_optstop_stops_near_plateau(self):
        job = self.make_ready_job(StopOption.OPT_STOP, iterations=300)
        # Drive the job deep into the plateau.
        job.iterations_completed = 290
        predictor = self.observed_predictor(job, 290)
        policy = OptStopPolicy()
        decision = policy.evaluate(job, predictor, job.current_accuracy)
        assert decision is StopDecision.STOP_TARGET_REACHED

    def test_optstop_continues_early(self):
        job = self.make_ready_job(StopOption.OPT_STOP, iterations=100)
        job.iterations_completed = 5
        predictor = self.observed_predictor(job, 5)
        policy = OptStopPolicy()
        assert (
            policy.evaluate(job, predictor, job.current_accuracy)
            is StopDecision.CONTINUE
        )

    def test_unreachable_abort_requires_margin_and_confidence(self):
        job = self.make_ready_job(StopOption.ACCURACY_ONLY, iterations=20)
        # Requirement far above what 20 iterations can reach.
        job.accuracy_requirement = min(0.99, job.accuracy_ceiling * 0.999)
        job.iterations_completed = 10
        predictor = self.observed_predictor(job, 10)
        policy = OptStopPolicy(confidence_threshold=0.5)
        decision = policy.evaluate(job, predictor, job.current_accuracy)
        assert decision in (StopDecision.STOP_UNREACHABLE, StopDecision.CONTINUE)

    def test_target_accuracy_fixed_is_infinite(self):
        job = self.make_ready_job(StopOption.FIXED_ITERATIONS)
        policy = OptStopPolicy()
        predictor = AccuracyPredictor(noise_std=0.0)
        assert policy.target_accuracy(job, predictor) == float("inf")
