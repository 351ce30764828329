"""Result analysis: CDFs, percentiles, figure tables."""

from repro.analysis.report import (
    best_scheduler,
    improvement_over,
    render_report,
)
from repro.analysis.cdf import (
    cdf_at,
    empirical_cdf,
    log_spaced_points,
    percentile,
    percentile_sorted,
)
from repro.analysis.tables import (
    FigureSeries,
    format_table,
    improvement,
    summary_rows,
)
from repro.analysis.telemetry import (
    gateway_telemetry_paths,
    render_gateway_report,
    render_telemetry_report,
    summary_table,
    telemetry_rows,
    telemetry_table,
)

__all__ = [
    "FigureSeries",
    "best_scheduler",
    "improvement_over",
    "render_report",
    "cdf_at",
    "empirical_cdf",
    "format_table",
    "gateway_telemetry_paths",
    "improvement",
    "log_spaced_points",
    "percentile",
    "percentile_sorted",
    "render_gateway_report",
    "render_telemetry_report",
    "summary_rows",
    "summary_table",
    "telemetry_rows",
    "telemetry_table",
]
