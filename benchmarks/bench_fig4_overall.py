"""Figure 4 — overall performance at the real-experiment scale.

One bench per sub-figure of the paper's Figure 4 (and the makespan
numbers quoted in Section 4.2.1).  All eight extract their metric from
the same cached job-count sweep (see ``harness.run_sweep``); the first
bench to run pays the sweep cost.  Run with
``pytest benchmarks/ --ignore=benchmarks/suite -s`` to see the series
tables.
"""

import pytest
from harness import REAL, figure, jct_cdfs, print_figure, run_sweep

from repro.analysis import cdf_at, log_spaced_points


@pytest.mark.paper
def test_fig4a_jct_cdf():
    """Fig. 4(a): CDF of JCT at the highest workload."""

    def build():
        return jct_cdfs(REAL)

    cdfs = build()
    points = log_spaced_points(60.0, 4.0 * 3600.0, 8)
    print("\nFig 4(a) — CDF of jobs vs JCT (fraction with JCT <= t)")
    header = "scheduler".ljust(12) + "".join(f"{p/60.0:>9.0f}m" for p in points)
    print(header)
    for name, cdf in cdfs.items():
        values = cdf_at([v for v, _f in cdf], points)
        print(name.ljust(12) + "".join(f"{v:>10.2f}" for v in values))
    # Shape check: MLFS's CDF dominates the fair scheduler's.
    mlfs = cdf_at([v for v, _ in cdfs["MLFS"]], points)
    fair = cdf_at([v for v, _ in cdfs["TensorFlow"]], points)
    assert sum(mlfs) >= sum(fair)


@pytest.mark.paper
def test_fig4b_avg_jct():
    """Fig. 4(b): average JCT vs number of jobs."""
    series = figure(REAL, "avg_jct_s", "Fig 4(b) avg JCT", "seconds")
    print_figure(series)
    top = max(series.xs())
    ranking = series.ranking(top, ascending=True)
    assert ranking.index("MLFS") < ranking.index("TensorFlow")


@pytest.mark.paper
def test_fig4c_deadline_ratio():
    """Fig. 4(c): job deadline guarantee ratio vs number of jobs."""
    series = figure(REAL, "deadline_ratio", "Fig 4(c) deadline ratio", "ratio")
    print_figure(series)
    top = max(series.xs())
    ranking = series.ranking(top, ascending=False)
    assert ranking.index("MLFS") < ranking.index("SLAQ")


@pytest.mark.paper
def test_fig4d_waiting_time():
    """Fig. 4(d): average job waiting time vs number of jobs."""
    series = figure(REAL, "avg_wait_s", "Fig 4(d) avg waiting", "seconds")
    print_figure(series)
    top = max(series.xs())
    ranking = series.ranking(top, ascending=True)
    assert ranking.index("MLFS") < ranking.index("TensorFlow")


@pytest.mark.paper
def test_fig4e_average_accuracy():
    """Fig. 4(e): average accuracy by the deadline vs number of jobs."""
    series = figure(REAL, "avg_accuracy", "Fig 4(e) avg accuracy", "accuracy")
    print_figure(series)
    top = max(series.xs())
    ranking = series.ranking(top, ascending=False)
    assert ranking.index("MLFS") < ranking.index("TensorFlow")


@pytest.mark.paper
def test_fig4f_accuracy_ratio():
    """Fig. 4(f): accuracy guarantee ratio vs number of jobs."""
    series = figure(REAL, "accuracy_ratio", "Fig 4(f) accuracy ratio", "ratio")
    print_figure(series)
    top = max(series.xs())
    ranking = series.ranking(top, ascending=False)
    assert ranking.index("MLFS") < ranking.index("TensorFlow")


@pytest.mark.paper
def test_fig4g_bandwidth():
    """Fig. 4(g): total bandwidth cost vs number of jobs."""
    series = figure(REAL, "bandwidth_gb", "Fig 4(g) bandwidth", "GB")
    print_figure(series)
    top = max(series.xs())
    ranking = series.ranking(top, ascending=True)
    # The MLFS family must be the three lowest-bandwidth schedulers.
    assert set(ranking[:3]) == {"MLFS", "MLF-RL", "MLF-H"}


@pytest.mark.paper
def test_fig4h_scheduler_overhead():
    """Fig. 4(h): average scheduler time overhead vs number of jobs."""
    series = figure(REAL, "overhead_ms", "Fig 4(h) overhead", "ms")
    print_figure(series)
    top = max(series.xs())
    ranking = series.ranking(top, ascending=False)
    # MLFS (RL + load control) is the most expensive scheduler.
    assert ranking[0] == "MLFS"


@pytest.mark.paper
def test_fig4_makespan():
    """Section 4.2.1 text: makespan at every workload level."""
    series = figure(REAL, "makespan_s", "Fig 4 makespan", "seconds")
    print_figure(series)
    top = max(series.xs())
    sweep = run_sweep(REAL)
    assert sweep["MLFS"][top]["makespan_s"] <= sweep["TensorFlow"][top]["makespan_s"]
