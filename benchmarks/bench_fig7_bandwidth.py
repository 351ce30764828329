"""Figure 7 — bandwidth-cost consideration.

The paper reports that including the bandwidth term in the placement
and migration rules (Section 3.3.2) reduces JCT by 5–15% and bandwidth
cost by 20–35%.  This bench compares MLF-H with and without the term.
"""

from harness import ablation_figure, print_figure, run_config_sweep

from repro.api import SchedulerSpec


def _sweeps():
    return {
        "w/ bandwidth": run_config_sweep(
            "bw-on",
            SchedulerSpec("MLF-H", config={"use_bandwidth": True}),
        ),
        "w/o bandwidth": run_config_sweep(
            "bw-off",
            SchedulerSpec("MLF-H", config={"use_bandwidth": False}),
        ),
    }


def test_fig7_bandwidth_cost():
    """Total bandwidth with vs without the bandwidth term (left Y)."""
    sweeps = _sweeps()
    series = ablation_figure("Fig 7 bandwidth cost", "GB", "bandwidth_gb", sweeps)
    print_figure(series)
    top = max(series.xs())
    assert series.data["w/ bandwidth"][top] < series.data["w/o bandwidth"][top]


def test_fig7_jct():
    """Average JCT with vs without the bandwidth term (right Y)."""
    sweeps = _sweeps()
    series = ablation_figure("Fig 7 avg JCT", "seconds", "avg_jct_s", sweeps)
    print_figure(series)
    top = max(series.xs())
    # Co-locating chatty tasks shortens iterations; allow slack since
    # the effect is the paper's 5-15%.
    assert series.data["w/ bandwidth"][top] <= series.data["w/o bandwidth"][top] * 1.10
