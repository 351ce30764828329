"""Per-pass telemetry export as JSON lines.

Each scheduling pass the daemon emits one structured record describing
the pass: queue depths, cluster overload degree, scheduling actions
(placements / migrations / evictions), completions, and running JCT
percentiles.  The format is append-only JSONL so a crash loses at most
the current line, and the records feed directly into the existing
:mod:`repro.analysis` tooling (:func:`repro.analysis.cdf.percentile`,
:func:`repro.analysis.tables.format_table`).
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional, TextIO

from repro.analysis.cdf import percentile_sorted
from repro.sim.engine import PassResult
from repro.sim.metrics import SimulationMetrics

#: Telemetry format revision (stamped into every record).  Revision 1
#: keyed records by ``round``; readers still accept it.
RECORD_VERSION = 2

#: JCT percentiles reported each pass.
JCT_PERCENTILES = (50.0, 95.0, 99.0)


class RunningJctStats:
    """Incrementally sorted JCT sample for per-round percentile queries.

    ``metrics.job_records`` is append-only, so instead of re-sorting the
    whole JCT list every round (O(n log n) per round, O(n² log n) over a
    run), this keeps a sorted copy and folds in only the records that
    arrived since the last sync (``bisect.insort``, O(completions · n)
    moves but zero re-sorts).  Percentile math is shared with
    :func:`repro.analysis.cdf.percentile` via
    :func:`~repro.analysis.cdf.percentile_sorted`, so the reported
    values are bit-identical to the old implementation.

    The tracker is plain data and pickles with daemon snapshots; after a
    restore it resynchronizes from wherever the record list stands.
    """

    def __init__(self) -> None:
        self._sorted: list[float] = []
        self._seen = 0

    def sync(self, metrics: SimulationMetrics) -> None:
        """Fold in job records appended since the last call."""
        records = metrics.job_records
        if self._seen > len(records):
            # The metrics object was replaced/rewound; rebuild.
            self._sorted = []
            self._seen = 0
        for record in records[self._seen :]:
            insort(self._sorted, record.jct)
        self._seen = len(records)

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile of the tracked sample."""
        return percentile_sorted(self._sorted, q)

    def __len__(self) -> int:
        return len(self._sorted)


def pass_record(
    result: PassResult,
    metrics: SimulationMetrics,
    admission_queue_depth: int = 0,
    overload_smoothed: Optional[float] = None,
    jct_stats: Optional[RunningJctStats] = None,
) -> dict[str, Any]:
    """Build one telemetry record from a pass result and the metrics.

    ``v`` is :data:`RECORD_VERSION`; the pass counter lives under
    ``pass_index`` and ``events_processed`` reports how many simulator
    events the pass consumed.  Readers (:func:`summarize_telemetry`,
    :mod:`repro.analysis.telemetry`) also accept the retired v1 records,
    which carried the counter as ``round``.

    ``jct_stats`` is the hot-path option: a caller-owned
    :class:`RunningJctStats` makes the percentile block incremental
    instead of sorting every completed job's JCT again each pass.
    """
    if jct_stats is None:
        jct_stats = RunningJctStats()
    jct_stats.sync(metrics)
    record: dict[str, Any] = {
        "v": RECORD_VERSION,
        "pass_index": result.pass_index,
        "events_processed": result.events_processed,
        "sim_time": result.sim_time,
        "queue_depth": result.queue_depth,
        "admission_queue_depth": admission_queue_depth,
        "active_jobs": result.active_jobs,
        "running_jobs": result.running_jobs,
        "overload_degree": result.overload_degree,
        "arrivals": result.arrivals,
        "placements": result.placements,
        "migrations": result.migrations,
        "evictions": result.evictions,
        "completions": result.completions,
        "stops": result.stops,
        "faults": result.faults,
        "tasks_killed": result.tasks_killed,
        "failed_servers": result.failed_servers,
        "completed_total": len(metrics.job_records),
        "deadline_ratio": metrics.deadline_guarantee_ratio(),
        "bandwidth_mb": metrics.total_bandwidth_mb(),
    }
    if overload_smoothed is not None:
        record["overload_smoothed"] = overload_smoothed
    for q in JCT_PERCENTILES:
        record[f"jct_p{int(q)}"] = jct_stats.percentile(q) if len(jct_stats) else 0.0
    return record


@dataclass
class TelemetryExporter:
    """Appends telemetry records to a JSONL file (or swallows them).

    ``path=None`` keeps the exporter as an in-memory ring useful for
    tests and the in-process demo; otherwise every record is written and
    flushed immediately (crash-safety: a record is durable as soon as
    :meth:`emit` returns).
    """

    path: Optional[Path] = None
    keep_in_memory: int = 4096
    records: list[dict[str, Any]] = field(default_factory=list)
    _handle: Optional[TextIO] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.path is not None:
            self.path = Path(self.path)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")

    def emit(self, record: dict[str, Any]) -> None:
        """Append one record."""
        self.records.append(record)
        if len(self.records) > self.keep_in_memory:
            del self.records[: -self.keep_in_memory]
        if self._handle is not None:
            self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            self._handle.flush()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # Exporters are often owned by a daemon that pickles itself for
    # snapshots; the open file handle must not travel along.
    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state["_handle"] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        if self.path is not None:
            self.path = Path(self.path)
            self._handle = self.path.open("a", encoding="utf-8")


def read_telemetry(path: str | Path) -> list[dict[str, Any]]:
    """Load every record of a telemetry JSONL file.

    A trailing partial line (crash mid-write) is ignored rather than
    raised, matching the crash-safety contract of the exporter.
    """
    records: list[dict[str, Any]] = []
    with Path(path).open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


def summarize_telemetry(records: Iterable[dict[str, Any]]) -> dict[str, float]:
    """Headline aggregates over a telemetry stream."""
    records = list(records)
    if not records:
        return {"rounds": 0.0}
    last = records[-1]
    queue_depths = [r.get("queue_depth", 0) for r in records]
    overloads = [r.get("overload_degree", 0.0) for r in records]
    migrations = sum(r.get("migrations", 0) for r in records)
    evictions = sum(r.get("evictions", 0) for r in records)
    return {
        "rounds": float(len(records)),
        "sim_time_s": float(last.get("sim_time", 0.0)),
        "jobs_completed": float(last.get("completed_total", 0)),
        "placements": float(sum(r.get("placements", 0) for r in records)),
        "migrations": float(migrations),
        "evictions": float(evictions),
        "migrations_per_round": migrations / len(records),
        "evictions_per_round": evictions / len(records),
        "stops": float(sum(r.get("stops", 0) for r in records)),
        "max_queue_depth": float(max(queue_depths)),
        "mean_queue_depth": sum(queue_depths) / len(queue_depths),
        "max_overload_degree": max(overloads),
        "jct_p50_s": float(last.get("jct_p50", 0.0)),
        "jct_p95_s": float(last.get("jct_p95", 0.0)),
        "jct_p99_s": float(last.get("jct_p99", 0.0)),
        "deadline_ratio": float(last.get("deadline_ratio", 0.0)),
        "bandwidth_gb": float(last.get("bandwidth_mb", 0.0)) / 1024.0,
    }
