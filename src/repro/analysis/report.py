"""Markdown report generation for comparison runs.

Turns a ``{scheduler: run record}`` mapping (records as returned by
:func:`repro.api.run`, one per scheduler over the same workload) into a
self-contained Markdown report: a headline table, per-metric rankings
with the paper's improvement ratio ``(y - z) / z``, and a JCT
distribution section.  A record's deterministic ``summary`` and its
wall-clock ``measured`` side-channel (``overhead_ms``) are read as one
set of metrics; the JCT percentiles come from its sorted ``jct_cdf``.
Records of :func:`repro.api.sweep` lack ``measured`` and are refused.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.analysis.cdf import percentile_sorted
from repro.analysis.tables import format_table

#: ``{scheduler: run record}``, the input of every function here.
Records = Mapping[str, Mapping[str, Any]]

#: Metrics where lower values are better.
LOWER_IS_BETTER = {
    "avg_jct_s",
    "makespan_s",
    "avg_wait_s",
    "bandwidth_gb",
    "overhead_ms",
}

#: Headline metrics in report order.
HEADLINE_METRICS = [
    "avg_jct_s",
    "makespan_s",
    "deadline_ratio",
    "avg_wait_s",
    "avg_accuracy",
    "accuracy_ratio",
    "bandwidth_gb",
    "overhead_ms",
]


def metrics_of(record: Mapping[str, Any]) -> dict[str, float]:
    """A run record's metrics: its ``summary`` plus its ``measured`` values.

    Only :func:`repro.api.run` records carry ``measured``: a sweep moves
    it to ``SweepResult.measured`` (keyed by digest; cached shards have
    none), so its records are refused rather than reported without
    ``overhead_ms``.
    """
    if "measured" not in record:
        raise ValueError(
            f"the {record['scheduler']} record has no 'measured' values;"
            " the report takes api.run records"
        )
    return {**record["summary"], **record["measured"]}


def best_scheduler(results: Records, metric: str) -> tuple[str, float]:
    """The winning scheduler and its value on one metric."""
    pairs = [(name, metrics_of(r)[metric]) for name, r in results.items()]
    if metric in LOWER_IS_BETTER:
        return min(pairs, key=lambda kv: kv[1])
    return max(pairs, key=lambda kv: kv[1])


def improvement_over(
    results: Records,
    metric: str,
    subject: str,
    reference: str,
) -> float:
    """The paper's improvement ratio of ``subject`` over ``reference``.

    Positive = subject better, using the metric's direction.
    """
    s = metrics_of(results[subject])[metric]
    r = metrics_of(results[reference])[metric]
    if r == 0:
        return 0.0
    if metric in LOWER_IS_BETTER:
        return (r - s) / r
    return (s - r) / r


def render_report(
    results: Records,
    title: str = "Scheduler comparison",
    reference: str | None = None,
) -> str:
    """Render the full Markdown report.

    ``reference`` names the baseline used for improvement lines
    (defaults to the worst scheduler by average JCT).
    """
    if not results:
        raise ValueError("no results to report")
    names = list(results)
    if reference is None:
        reference = max(names, key=lambda n: results[n]["summary"]["avg_jct_s"])
    if reference not in results:
        raise KeyError(f"unknown reference scheduler {reference!r}")

    lines = [f"# {title}", ""]

    # Headline table, sorted by average JCT.
    rows = sorted(
        (
            [name] + [round(metrics_of(results[name])[m], 3) for m in HEADLINE_METRICS]
            for name in names
        ),
        key=lambda row: row[1],
    )
    lines.append("## Headline metrics")
    lines.append("")
    lines.append("```")
    lines.append(format_table(["scheduler"] + HEADLINE_METRICS, rows))
    lines.append("```")
    lines.append("")

    # Winners and improvements.
    lines.append(f"## Winners (improvement vs {reference})")
    lines.append("")
    for metric in HEADLINE_METRICS:
        winner, value = best_scheduler(results, metric)
        gain = improvement_over(results, metric, winner, reference)
        direction = "min" if metric in LOWER_IS_BETTER else "max"
        lines.append(
            f"- **{metric}** ({direction}): {winner} at {value:.3f}"
            f" ({gain:+.0%} vs {reference})"
        )
    lines.append("")

    # JCT distribution.
    lines.append("## JCT distribution (seconds)")
    lines.append("")
    dist_rows = []
    for name in names:
        jcts = [jct for jct, _fraction in results[name]["jct_cdf"]]
        if not jcts:
            continue
        dist_rows.append(
            [
                name,
                round(percentile_sorted(jcts, 50.0), 1),
                round(percentile_sorted(jcts, 90.0), 1),
                round(percentile_sorted(jcts, 99.0), 1),
                round(jcts[-1], 1),
            ]
        )
    lines.append("```")
    lines.append(format_table(["scheduler", "p50", "p90", "p99", "max"], dist_rows))
    lines.append("```")
    lines.append("")
    return "\n".join(lines)
