"""Figure 6 — urgency and deadline consideration in the priority.

Left axis of the paper's Figure 6: deadline guarantee ratio of *urgent*
jobs (urgency > 8) with and without the urgency coefficient ``L_J`` in
Eq. 2.  Right axis: overall deadline guarantee ratio with and without
the deadline term ``γ_d / (d_k − t)`` in Eq. 4.
"""

from harness import ablation_figure, print_figure, run_config_sweep

from repro.api import SchedulerSpec


def test_fig6_urgency_consideration():
    """Urgent-job deadline ratio, w/ vs w/o the urgency coefficient."""

    def run():
        return {
            "w/ urgency": run_config_sweep(
                "urgency-on",
                SchedulerSpec("MLF-H", config={"use_urgency": True}),
            ),
            "w/o urgency": run_config_sweep(
                "urgency-off",
                SchedulerSpec("MLF-H", config={"use_urgency": False}),
            ),
        }

    sweeps = run()
    series = ablation_figure(
        "Fig 6 urgent-job deadline ratio",
        "ratio",
        "urgent_deadline_ratio",
        sweeps,
    )
    print_figure(series)
    top = max(series.xs())
    assert (
        series.data["w/ urgency"][top] >= series.data["w/o urgency"][top] - 0.05
    )


def test_fig6_deadline_consideration():
    """Overall deadline ratio, w/ vs w/o the Eq. 4 deadline term."""

    def run():
        return {
            "w/ deadline": run_config_sweep(
                "deadline-on",
                SchedulerSpec("MLF-H", config={"use_deadline": True}),
            ),
            "w/o deadline": run_config_sweep(
                "deadline-off",
                SchedulerSpec("MLF-H", config={"use_deadline": False}),
            ),
        }

    sweeps = run()
    series = ablation_figure(
        "Fig 6 overall deadline ratio", "ratio", "deadline_ratio", sweeps
    )
    print_figure(series)
    top = max(series.xs())
    assert (
        series.data["w/ deadline"][top] >= series.data["w/o deadline"][top] - 0.05
    )
