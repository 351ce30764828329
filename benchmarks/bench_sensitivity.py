"""Parameter-sensitivity ablations (the paper defers these to future
work — DESIGN.md §6 extension).

Sweeps the MLF-H weight ``α`` (ML vs computation features, Eq. 6), the
dependency discount ``γ`` (Eq. 3/5) and the migration-candidate
fraction ``p_s`` (Section 3.3.3), reporting average JCT and accuracy at
one contended workload point.  The four sweeps take 50-70 s on
2 vCPUs, so they carry the ``slow`` marker and run in CI's slow job.
"""

import pytest
from harness import ABLATION

from repro import api
from repro.analysis import format_table

pytestmark = pytest.mark.slow

_JOBS = 80


def _run(config: dict) -> dict:
    spec = api.replace_path(
        ABLATION.base_spec(api.SchedulerSpec("MLF-H", config=config)),
        "workload.num_jobs",
        _JOBS,
    )
    return api.run(spec)["summary"]


def test_alpha_sensitivity():
    """Eq. 6 blend weight α ∈ {0, 0.3, 0.7, 1.0}."""

    def run():
        rows = []
        for alpha in (0.0, 0.3, 0.7, 1.0):
            summary = _run({"priority": {"alpha": alpha}})
            rows.append([alpha, summary["avg_jct_s"], summary["avg_accuracy"]])
        return rows

    rows = run()
    print("\n" + format_table(["alpha", "avg_jct_s", "avg_accuracy"], rows))
    assert len(rows) == 4
    assert all(jct > 0 for _a, jct, _acc in rows)


def test_gamma_sensitivity():
    """Dependency discount γ ∈ {0.2, 0.5, 0.8, 0.95}."""

    def run():
        rows = []
        for gamma in (0.2, 0.5, 0.8, 0.95):
            summary = _run({"priority": {"gamma": gamma}})
            rows.append([gamma, summary["avg_jct_s"], summary["deadline_ratio"]])
        return rows

    rows = run()
    print("\n" + format_table(["gamma", "avg_jct_s", "deadline_ratio"], rows))
    assert len(rows) == 4


def test_ps_fraction_sensitivity():
    """Migration-candidate fraction p_s ∈ {0.05, 0.1, 0.3, 1.0}."""

    def run():
        rows = []
        for ps in (0.05, 0.1, 0.3, 1.0):
            summary = _run({"migration_candidate_fraction": ps})
            rows.append([ps, summary["avg_jct_s"], summary["migrations"]])
        return rows

    rows = run()
    print("\n" + format_table(["p_s", "avg_jct_s", "migrations"], rows))
    assert len(rows) == 4


def test_overload_threshold_sensitivity():
    """Overload threshold h_r ∈ {0.7, 0.8, 0.9, 0.99}."""

    def run():
        rows = []
        for hr in (0.7, 0.8, 0.9, 0.99):
            summary = _run(
                {"overload_threshold": hr, "system_overload_threshold": hr}
            )
            rows.append([hr, summary["avg_jct_s"], summary["overload_occurrences"]])
        return rows

    rows = run()
    print("\n" + format_table(["h_r", "avg_jct_s", "overloads"], rows))
    assert len(rows) == 4
