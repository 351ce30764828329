"""Figure 8 — effectiveness of task migration (overload handling).

8(a): number of server-overload occurrences and bandwidth cost with vs
without migration.  8(b): average accuracy by deadline and average JCT
with vs without migration.  The paper reports migration reduces
overload occurrences by 36–60% and JCT by 15–24% while adding 10–14%
bandwidth.
"""

import pytest
from harness import ablation_figure, print_figure, run_config_sweep

from repro.api import SchedulerSpec


def _sweeps():
    return {
        "w/ migration": run_config_sweep(
            "mig-on",
            SchedulerSpec("MLF-H", config={"enable_migration": True}),
        ),
        "w/o migration": run_config_sweep(
            "mig-off",
            SchedulerSpec("MLF-H", config={"enable_migration": False}),
        ),
    }


@pytest.mark.paper
def test_fig8a_overload_occurrences():
    """Fig. 8(a) left Y: server-overload occurrences."""
    sweeps = _sweeps()
    series = ablation_figure(
        "Fig 8(a) overload occurrences", "count", "overload_occurrences", sweeps
    )
    print_figure(series)
    top = max(series.xs())
    assert series.data["w/ migration"][top] <= series.data["w/o migration"][top]


@pytest.mark.paper
def test_fig8a_bandwidth():
    """Fig. 8(a) right Y: bandwidth cost (migration adds traffic)."""
    sweeps = _sweeps()
    series = ablation_figure("Fig 8(a) bandwidth", "GB", "bandwidth_gb", sweeps)
    print_figure(series)
    top = max(series.xs())
    migrations = run_config_sweep("mig-on", None)  # cached
    assert migrations[top]["migrations"] > 0


@pytest.mark.paper
def test_fig8b_accuracy():
    """Fig. 8(b) left Y: average accuracy by deadline."""
    sweeps = _sweeps()
    series = ablation_figure("Fig 8(b) avg accuracy", "accuracy", "avg_accuracy", sweeps)
    print_figure(series)
    top = max(series.xs())
    assert (
        series.data["w/ migration"][top]
        >= series.data["w/o migration"][top] - 0.05
    )


@pytest.mark.paper
def test_fig8b_jct():
    """Fig. 8(b) right Y: average JCT."""
    sweeps = _sweeps()
    series = ablation_figure("Fig 8(b) avg JCT", "seconds", "avg_jct_s", sweeps)
    print_figure(series)
    top = max(series.xs())
    assert series.data["w/ migration"][top] <= series.data["w/o migration"][top] * 1.10
