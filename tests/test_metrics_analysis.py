"""Unit tests for metrics aggregation and the analysis helpers."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    FigureSeries,
    cdf_at,
    empirical_cdf,
    format_table,
    improvement,
    log_spaced_points,
    percentile,
    percentile_sorted,
    summary_rows,
)
from repro.service.telemetry import JCT_PERCENTILES, RunningJctStats
from repro.sim import SimulationMetrics
from tests.conftest import make_job


def completed_job(seed=0, jct=100.0, meets_deadline=True, accuracy=0.8, **kwargs):
    job = make_job(seed=seed, **kwargs)
    job.completion_time = job.arrival_time + jct
    job.deadline = job.completion_time + (10.0 if meets_deadline else -10.0)
    job.accuracy_at_deadline = accuracy
    job.accuracy_requirement = 0.5
    job.iterations_completed = job.max_iterations
    return job


class TestSimulationMetrics:
    def test_record_requires_completion(self):
        metrics = SimulationMetrics()
        with pytest.raises(ValueError):
            metrics.record_job(make_job(seed=1), waiting_time=0.0)

    def test_basic_aggregates(self):
        metrics = SimulationMetrics()
        metrics.record_job(completed_job(seed=1, jct=100.0), waiting_time=10.0)
        metrics.record_job(
            completed_job(seed=2, jct=300.0, meets_deadline=False, accuracy=0.4),
            waiting_time=30.0,
        )
        assert metrics.average_jct() == pytest.approx(200.0)
        assert metrics.deadline_guarantee_ratio() == pytest.approx(0.5)
        assert metrics.average_waiting_time() == pytest.approx(20.0)
        assert metrics.average_accuracy() == pytest.approx(0.6)

    def test_accuracy_guarantee_ratio(self):
        metrics = SimulationMetrics()
        metrics.record_job(completed_job(seed=1, accuracy=0.9), waiting_time=0.0)
        metrics.record_job(completed_job(seed=2, accuracy=0.3), waiting_time=0.0)
        assert metrics.accuracy_guarantee_ratio() == pytest.approx(0.5)

    def test_jct_cdf_monotone(self):
        metrics = SimulationMetrics()
        for seed, jct in enumerate((50.0, 100.0, 200.0, 400.0)):
            metrics.record_job(completed_job(seed=seed, jct=jct), waiting_time=0.0)
        cdf = metrics.jct_cdf()
        fractions = [f for _v, f in cdf]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_jct_cdf_at_points(self):
        metrics = SimulationMetrics()
        for seed, jct in enumerate((50.0, 150.0)):
            metrics.record_job(completed_job(seed=seed, jct=jct), waiting_time=0.0)
        cdf = metrics.jct_cdf(points=[100.0])
        assert cdf == [(100.0, 0.5)]

    def test_makespan(self):
        metrics = SimulationMetrics()
        early = completed_job(seed=1, jct=100.0, arrival=0.0)
        late = completed_job(seed=2, jct=100.0, arrival=500.0)
        metrics.record_job(early, waiting_time=0.0)
        metrics.record_job(late, waiting_time=0.0)
        assert metrics.makespan() == pytest.approx(
            late.completion_time - early.arrival_time
        )

    def test_empty_metrics_are_zero(self):
        metrics = SimulationMetrics()
        summary = metrics.summary()
        assert summary["jobs"] == 0.0
        assert summary["avg_jct_s"] == 0.0
        assert metrics.makespan() == 0.0
        assert metrics.jct_cdf() == []

    def test_overhead_ms(self):
        metrics = SimulationMetrics()
        metrics.record_overhead(0.002)
        metrics.record_overhead(0.004)
        assert metrics.average_overhead_ms() == pytest.approx(3.0)

    def test_urgent_deadline_ratio(self):
        metrics = SimulationMetrics()
        metrics.record_job(
            completed_job(seed=1, meets_deadline=True, urgency=9), waiting_time=0.0
        )
        metrics.record_job(
            completed_job(seed=2, meets_deadline=False, urgency=10), waiting_time=0.0
        )
        metrics.record_job(
            completed_job(seed=3, meets_deadline=False, urgency=2), waiting_time=0.0
        )
        assert metrics.urgent_deadline_ratio(8) == pytest.approx(0.5)

    def test_fraction_jct_below(self):
        metrics = SimulationMetrics()
        for seed, jct in enumerate((60.0, 120.0, 240.0)):
            metrics.record_job(completed_job(seed=seed, jct=jct), waiting_time=0.0)
        assert metrics.fraction_jct_below(100.0) == pytest.approx(1 / 3)

    def test_bandwidth_totals(self):
        metrics = SimulationMetrics()
        metrics.bandwidth_mb = 1024.0
        metrics.migration_bandwidth_mb = 1024.0
        assert metrics.total_bandwidth_mb() == pytest.approx(2048.0)
        assert metrics.summary()["bandwidth_gb"] == pytest.approx(2.0)


class TestCdfHelpers:
    def test_empirical_cdf(self):
        cdf = empirical_cdf([3.0, 1.0, 2.0])
        assert cdf == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]

    def test_cdf_at(self):
        assert cdf_at([1.0, 2.0, 3.0], [0.5, 2.0, 5.0]) == [0.0, 2 / 3, 1.0]

    def test_cdf_at_empty(self):
        assert cdf_at([], [1.0]) == [0.0]

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 50.0) == pytest.approx(5.0)
        assert percentile([1.0, 2.0, 3.0], 0.0) == 1.0
        assert percentile([1.0, 2.0, 3.0], 100.0) == 3.0

    def test_percentile_errors(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 200.0)

    def test_log_spaced_points(self):
        points = log_spaced_points(1.0, 100.0, 3)
        assert points == pytest.approx([1.0, 10.0, 100.0])
        with pytest.raises(ValueError):
            log_spaced_points(0.0, 10.0)
        with pytest.raises(ValueError):
            log_spaced_points(1.0, 10.0, 1)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_percentile_within_range(self, values):
        p = percentile(values, 37.5)
        assert min(values) <= p <= max(values)


class TestRunningJctStats:
    @given(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1e7), max_size=8),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_full_sort_after_every_batch(self, batches):
        """The incremental sample reports exactly the percentiles of a
        from-scratch sort of every JCT so far, after each batch."""
        metrics = SimulationMetrics()
        metrics.record_job(completed_job(seed=1), waiting_time=0.0)
        template = metrics.job_records.pop()
        stats = RunningJctStats()
        for batch in batches:
            for jct in batch:
                metrics.job_records.append(dataclasses.replace(template, jct=jct))
            stats.sync(metrics)
            jcts = sorted(r.jct for r in metrics.job_records)
            assert len(stats) == len(jcts)
            if jcts:
                assert [stats.percentile(q) for q in JCT_PERCENTILES] == [
                    percentile_sorted(jcts, q) for q in JCT_PERCENTILES
                ]


class TestTables:
    def test_format_table_aligned(self):
        text = format_table(["name", "x"], [["a", 1.0], ["bb", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "---" in lines[1]

    def test_figure_series_render(self):
        series = FigureSeries(title="Fig", x_label="jobs", y_label="jct")
        series.add("MLFS", 100, 5.0)
        series.add("FIFO", 100, 9.0)
        series.add("MLFS", 200, 7.0)
        text = series.render()
        assert "jobs=100" in text and "jobs=200" in text
        assert "MLFS" in text and "FIFO" in text

    def test_figure_series_ranking(self):
        series = FigureSeries(title="Fig")
        series.add("A", 1, 5.0)
        series.add("B", 1, 3.0)
        assert series.ranking(1, ascending=True) == ["B", "A"]
        assert series.ranking(1, ascending=False) == ["A", "B"]

    def test_improvement(self):
        assert improvement(120.0, 100.0) == pytest.approx(0.2)
        assert improvement(1.0, 0.0) == 0.0

    def test_summary_rows(self):
        rows = summary_rows({"s": {"a": 1.0}}, ["a", "b"])
        assert rows[0][0] == "s"
        assert rows[0][1] == 1.0
