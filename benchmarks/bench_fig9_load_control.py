"""Figure 9 — effectiveness of MLF-C system load control.

Accuracy guarantee ratio and average JCT with vs without MLF-C.  The
paper reports MLF-C improves the accuracy guarantee ratio by 17–23% and
average JCT by 28–42% under overload.
"""

from harness import BENCH_PRETRAIN, ablation_figure, print_figure, run_config_sweep

from repro.api import SchedulerSpec


def _sweeps():
    return {
        # Full MLFS = MLF-RL + MLF-C; the ablation removes only MLF-C.
        "w/ MLF-C": run_config_sweep(
            "mlfc-on", SchedulerSpec("MLFS", pretrain=BENCH_PRETRAIN)
        ),
        "w/o MLF-C": run_config_sweep(
            "mlfc-off", SchedulerSpec("MLF-RL", pretrain=BENCH_PRETRAIN)
        ),
    }


def test_fig9_accuracy_guarantee():
    """Left Y: accuracy guarantee ratio with vs without MLF-C."""
    sweeps = _sweeps()
    series = ablation_figure(
        "Fig 9 accuracy guarantee ratio", "ratio", "accuracy_ratio", sweeps
    )
    print_figure(series)
    top = max(series.xs())
    assert series.data["w/ MLF-C"][top] >= series.data["w/o MLF-C"][top] - 0.05


def test_fig9_jct():
    """Right Y: average JCT with vs without MLF-C."""
    sweeps = _sweeps()
    series = ablation_figure("Fig 9 avg JCT", "seconds", "avg_jct_s", sweeps)
    print_figure(series)
    top = max(series.xs())
    # MLF-C sheds unnecessary iterations; JCT must improve under load.
    assert series.data["w/ MLF-C"][top] < series.data["w/o MLF-C"][top]
