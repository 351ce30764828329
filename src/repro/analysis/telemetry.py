"""Service-telemetry analysis: turn JSONL round records into tables.

The daemon (:mod:`repro.service.telemetry`) emits one JSON record per
scheduler round.  This module renders those streams with the same
table/CDF tooling the batch benchmarks use, so online-service runs and
batch-simulation runs report through one pipeline.

Gateway runs leave one stream per partition
(``<workdir>/worker-NN/telemetry.jsonl``); :func:`render_gateway_report`
renders each partition's section plus a cluster rollup over all of them
— ``repro report <workdir>`` picks it automatically for directories.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.analysis.tables import format_table

#: Columns of the per-round table, in display order.
ROUND_COLUMNS = (
    "round",
    "sim_time",
    "queue_depth",
    "admission_queue_depth",
    "active_jobs",
    "running_jobs",
    "overload_degree",
    "placements",
    "migrations",
    "evictions",
    "completions",
    "jct_p50",
    "jct_p95",
)


#: v2 (event-mode) records rename some v1 keys; the readers accept
#: both schemas by falling back through these aliases.
_COLUMN_ALIASES: dict[str, tuple[str, ...]] = {
    "round": ("pass_index",),
    "pass_index": ("round",),
}


def _column_value(record: dict[str, Any], column: str) -> object:
    value = record.get(column)
    if value is not None:
        return value
    for alias in _COLUMN_ALIASES.get(column, ()):
        value = record.get(alias)
        if value is not None:
            return value
    return 0


def telemetry_rows(
    records: Iterable[dict[str, Any]], columns: Sequence[str] = ROUND_COLUMNS
) -> list[list[object]]:
    """Per-round table rows (missing fields render as 0).

    Accepts both the v1 (``round``-keyed) and v2 (``pass_index``-keyed)
    telemetry schemas — the counters alias each other in either
    direction.
    """
    rows: list[list[object]] = []
    for record in records:
        rows.append([_column_value(record, column) for column in columns])
    return rows


def telemetry_table(
    records: Iterable[dict[str, Any]],
    columns: Sequence[str] = ROUND_COLUMNS,
    every: int = 1,
    precision: int = 2,
) -> str:
    """Render a telemetry stream as an aligned table.

    ``every`` subsamples long runs (keep one row in ``every``, always
    including the final row).
    """
    records = list(records)
    if every > 1 and records:
        kept = records[::every]
        if kept[-1] is not records[-1]:
            kept.append(records[-1])
        records = kept
    return format_table(list(columns), telemetry_rows(records, columns), precision)


def summary_table(summary: dict[str, float], precision: int = 2) -> str:
    """Render a :func:`repro.service.telemetry.summarize_telemetry` dict."""
    rows = [[key, value] for key, value in summary.items()]
    return format_table(["metric", "value"], rows, precision=precision)


def render_telemetry_report(
    path: str | Path,
    every: int = 1,
    rounds: bool = True,
    precision: int = 2,
) -> str:
    """One self-contained report for a telemetry JSONL file.

    A summary table (JCT percentiles, deadline ratio, migration/eviction
    rates, peak overload) optionally preceded by the per-round table —
    the rendering behind ``repro report``.
    """
    from repro.service.telemetry import read_telemetry, summarize_telemetry

    records = read_telemetry(path)
    if not records:
        return f"no telemetry records in {path}"
    sections: list[str] = []
    if rounds:
        sections.append(f"## Rounds ({len(records)} records)")
        sections.append(telemetry_table(records, every=every, precision=precision))
    sections.append("## Summary")
    sections.append(summary_table(summarize_telemetry(records), precision=precision))
    return "\n\n".join(sections)


#: Per-partition summary fields that sum across the cluster; the rest
#: (percentiles, ratios, depths) roll up as the max over partitions.
_ROLLUP_SUMS = (
    "rounds",
    "jobs_completed",
    "placements",
    "migrations",
    "evictions",
    "stops",
    "bandwidth_gb",
)


def gateway_telemetry_paths(workdir: str | Path) -> dict[str, Path]:
    """``{partition name: telemetry path}`` under a gateway workdir."""
    root = Path(workdir)
    return {
        worker.name: worker / "telemetry.jsonl"
        for worker in sorted(root.glob("worker-*"))
        if (worker / "telemetry.jsonl").is_file()
    }


def render_gateway_report(
    workdir: str | Path,
    every: int = 1,
    rounds: bool = True,
    precision: int = 2,
) -> str:
    """A multi-worker report over a gateway telemetry directory.

    One section per partition (its own rounds/summary tables) followed
    by a cluster rollup: additive aggregates summed across partitions,
    peaks (queue depth, overload, JCT percentiles) as the per-partition
    maximum.  Raises ``FileNotFoundError`` when the directory holds no
    ``worker-*/telemetry.jsonl`` streams.
    """
    from repro.service.telemetry import read_telemetry, summarize_telemetry

    streams = gateway_telemetry_paths(workdir)
    if not streams:
        raise FileNotFoundError(
            f"no worker-*/telemetry.jsonl streams under {workdir}"
        )
    sections: list[str] = [f"# Gateway telemetry: {workdir}"]
    summaries: dict[str, dict[str, float]] = {}
    for name, path in streams.items():
        records = read_telemetry(path)
        sections.append(f"## Partition {name} ({len(records)} records)")
        if not records:
            sections.append("(no telemetry records)")
            continue
        if rounds:
            sections.append(
                telemetry_table(records, every=every, precision=precision)
            )
        summaries[name] = summarize_telemetry(records)
        sections.append(summary_table(summaries[name], precision=precision))
    if summaries:
        rollup: dict[str, float] = {"partitions": float(len(summaries))}
        keys: list[str] = []
        for summary in summaries.values():
            keys.extend(k for k in summary if k not in keys)
        for key in keys:
            values = [s[key] for s in summaries.values() if key in s]
            aggregate = sum(values) if key in _ROLLUP_SUMS else max(values)
            rollup[key] = float(aggregate)
        sections.append("## Cluster rollup")
        sections.append(summary_table(rollup, precision=precision))
    return "\n\n".join(sections)
