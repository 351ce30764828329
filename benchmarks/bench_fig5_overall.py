"""Figure 5 — overall performance at the large-scale simulation scale.

Same eight sub-figures as Figure 4 but on the larger ``SIM`` profile
(the paper's 550-server Philly-trace simulation, scaled down).  Shapes,
not absolute values, are asserted; see EXPERIMENTS.md for the measured
vs paper comparison.
"""

from harness import SIM, figure, jct_cdfs, print_figure

from repro.analysis import cdf_at, log_spaced_points


def test_fig5a_jct_cdf():
    """Fig. 5(a): CDF of JCT at the highest workload (sim scale)."""
    cdfs = jct_cdfs(SIM)
    points = log_spaced_points(60.0, 4.0 * 3600.0, 8)
    print("\nFig 5(a) — CDF of jobs vs JCT (fraction with JCT <= t)")
    for name, cdf in cdfs.items():
        values = cdf_at([v for v, _f in cdf], points)
        print(name.ljust(12) + "".join(f"{v:>10.2f}" for v in values))
    mlfs = cdf_at([v for v, _ in cdfs["MLFS"]], points)
    fair = cdf_at([v for v, _ in cdfs["TensorFlow"]], points)
    assert sum(mlfs) >= sum(fair)


def test_fig5b_avg_jct():
    """Fig. 5(b): average JCT vs number of jobs (sim scale)."""
    series = figure(SIM, "avg_jct_s", "Fig 5(b) avg JCT", "seconds")
    print_figure(series)
    ranking = series.ranking(max(series.xs()), ascending=True)
    assert ranking.index("MLFS") < ranking.index("TensorFlow")


def test_fig5c_deadline_ratio():
    """Fig. 5(c): deadline guarantee ratio (sim scale)."""
    series = figure(SIM, "deadline_ratio", "Fig 5(c) deadline ratio", "ratio")
    print_figure(series)
    ranking = series.ranking(max(series.xs()), ascending=False)
    assert ranking.index("MLFS") < ranking.index("SLAQ")


def test_fig5d_waiting_time():
    """Fig. 5(d): average job waiting time (sim scale)."""
    series = figure(SIM, "avg_wait_s", "Fig 5(d) avg waiting", "seconds")
    print_figure(series)
    ranking = series.ranking(max(series.xs()), ascending=True)
    assert ranking.index("MLFS") < ranking.index("TensorFlow")


def test_fig5e_average_accuracy():
    """Fig. 5(e): average accuracy by deadline (sim scale)."""
    series = figure(SIM, "avg_accuracy", "Fig 5(e) avg accuracy", "accuracy")
    print_figure(series)
    ranking = series.ranking(max(series.xs()), ascending=False)
    assert ranking.index("MLFS") < ranking.index("TensorFlow")


def test_fig5f_accuracy_ratio():
    """Fig. 5(f): accuracy guarantee ratio (sim scale)."""
    series = figure(SIM, "accuracy_ratio", "Fig 5(f) accuracy ratio", "ratio")
    print_figure(series)
    ranking = series.ranking(max(series.xs()), ascending=False)
    assert ranking.index("MLFS") < ranking.index("TensorFlow")


def test_fig5g_bandwidth():
    """Fig. 5(g): total bandwidth cost (sim scale)."""
    series = figure(SIM, "bandwidth_gb", "Fig 5(g) bandwidth", "GB")
    print_figure(series)
    ranking = series.ranking(max(series.xs()), ascending=True)
    assert set(ranking[:3]) == {"MLFS", "MLF-RL", "MLF-H"}


def test_fig5h_scheduler_overhead():
    """Fig. 5(h): scheduler time overhead (sim scale)."""
    series = figure(SIM, "overhead_ms", "Fig 5(h) overhead", "ms")
    print_figure(series)
    ranking = series.ranking(max(series.xs()), ascending=False)
    assert ranking[0] == "MLFS"
