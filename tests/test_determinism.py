"""Determinism regression: two same-seed runs are bit-identical.

This is the contract the lint (no wall clock, no global RNG) and the
sanitizer (snapshot round-trips exactly) exist to protect.  Both runs
execute with the sanitizer enabled, so every round is also audited for
resource conservation, queue consistency and priority-ordered dequeue.
"""

from __future__ import annotations

import json

from repro.cluster import Cluster
from repro.core import make_mlf_h
from repro.service.telemetry import RunningJctStats, pass_record
from repro.sim import EngineConfig, SimulationEngine
from repro.workload import build_jobs, generate_trace


def run_once(seed: int) -> tuple[list[str], list, list]:
    """One sanitized MLF-H run; returns (telemetry lines, rounds, JCTs)."""
    records = generate_trace(8, duration_seconds=3600.0, seed=seed)
    jobs = build_jobs(records, seed=seed + 1)
    cluster = Cluster.build(4, 4)
    engine = SimulationEngine(
        make_mlf_h(),
        jobs,
        cluster,
        EngineConfig(seed=seed, max_time=14 * 24 * 3600.0),
        sanitize=True,
    )
    engine.start()
    stats = RunningJctStats()
    lines: list[str] = []
    rounds = []
    while True:
        result = engine.advance()
        rounds.append(result)
        record = pass_record(result, engine.metrics, jct_stats=stats)
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        if result.drained or result.events_processed == 0:
            break
    metrics = engine.finalize()
    jcts = [(r.job_id, r.jct, r.iterations_completed) for r in metrics.job_records]
    assert engine.sanitizer.rounds_checked > 0
    assert engine.sanitizer.violations_raised == 0
    return lines, rounds, jcts


class TestSameSeedBitIdentical:
    def test_telemetry_and_rounds_identical(self):
        lines_a, rounds_a, jcts_a = run_once(seed=17)
        lines_b, rounds_b, jcts_b = run_once(seed=17)
        # Bit-identical telemetry JSONL, round for round.
        assert lines_a == lines_b
        # PassResult dataclasses compare field-wise.
        assert rounds_a == rounds_b
        assert jcts_a == jcts_b

    def test_different_seeds_diverge(self):
        # Guards against the comparison being vacuous (e.g. both runs
        # producing empty telemetry).
        lines_a, _rounds_a, _ = run_once(seed=17)
        lines_c, _rounds_c, _ = run_once(seed=23)
        assert lines_a
        assert lines_a != lines_c
