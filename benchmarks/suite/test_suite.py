"""Smoke test of the benchmark suite: every workload at ``--smoke`` size.

Run with ``python -m pytest benchmarks/suite/test_suite.py`` (under a
minute on two cores).  It checks that

* the metric names a run prints are exactly those of ``BENCHMARK.json``,
  and each workload leaves unmeasured only the other tier's metrics;
* a traced episode ends exactly as the untraced one (same digest of
  every job's completion time), so the ledger's wrappers change nothing;
* the gateway returns every submitted id exactly once;
* without ``src/`` next to it the benchmark fails without a result;
* ``compare`` gives the expected verdicts and fails on a changed outcome.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from run import compare, verdict  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ENGINE = [w for w in WORKLOADS if w != "gateway-openloop"]
GATEWAY_ONLY = {
    m["name"] for m in SPEC["per_layer"] if m["name"].startswith(("gw.", "worker.", "loadgen."))
}
SHARED = {"trace.overhead_ratio", "workload.gen_s"}
ENGINE_ONLY = {m["name"] for m in SPEC["per_layer"]} - GATEWAY_ONLY - SHARED


def _run(out: Path, *args: str) -> tuple[subprocess.CompletedProcess, dict[str, dict]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    records = {}
    for path in out.glob("*.json"):
        record = json.loads(path.read_text())
        records[record["workload"]] = record
    return proc, records


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("traced"), "--trace")


def test_end_to_end_metrics_match_benchmark_json(untraced):
    proc, records = untraced
    assert proc.returncode == 0, proc.stderr
    assert sorted(records) == sorted(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"]]
    for name, record in records.items():
        assert list(record["metrics"]) == names, name
        assert record["not_exercised"] == [], name
        assert all(m["value"] > 0 for m in record["metrics"].values()), name
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert list(last["metrics"]) == names


def test_layer_metrics_match_benchmark_json(traced):
    proc, records = traced
    assert proc.returncode == 0, proc.stderr
    names = [m["name"] for m in SPEC["per_layer"]]
    for name, record in records.items():
        assert list(record["metrics"]) == names, name
        expected_gap = GATEWAY_ONLY if name in ENGINE else ENGINE_ONLY
        assert set(record["not_exercised"]) == expected_gap, name


def test_ledger_adds_up_and_changes_no_outcome(traced):
    _, records = traced
    for name in ENGINE:
        record = records[name]
        assert record["details"]["digests_equal"], name
        assert record["correct"] and record["failed"] == 0, name
        values = {k: v["value"] for k, v in record["metrics"].items()}
        shares = [v for k, v in values.items() if k.endswith(".share")]
        assert sum(shares) + values["unattributed_share"] == pytest.approx(1.0)
        assert 0.0 <= values["unattributed_share"] < 0.1, name


def test_gateway_returns_every_id_once(untraced, traced):
    for _, records in (untraced, traced):
        record = records["gateway-openloop"]
        details = record["details"]
        assert (details["lost"], details["duplicated"], details["errors"]) == (0, 0, 0)
        assert record["failed"] == 0 and record["attempted"] > 0
    assert traced[1]["gateway-openloop"]["metrics"]["gw.dropped_spans"]["value"] == 0


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", WORKLOADS[0]],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize(
    "base, change, higher, expected",
    [
        ([100, 101, 99], [100, 102, 98], True, "same"),
        ([100, 101, 99], [80, 81, 79], True, "worse"),
        ([100, 101, 99], [80, 81, 79], False, "better"),
        ([100, 140, 60], [100, 101, 99], True, "unresolved"),
        ([100, 140, 60], [200, 210, 190], True, "better"),
    ],
)
def test_compare_verdicts(base, change, higher, expected):
    assert verdict(base, change, 0.1, higher) == expected


def _write_run(directory: Path, seed: int, digest: str) -> None:
    directory.mkdir(exist_ok=True)
    record = {
        "workload": WORKLOADS[0],
        "trace": False,
        "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]},
        "details": {"episodes": [{"seed": seed, "digest": digest}]},
    }
    (directory / f"run-{seed}.json").write_text(json.dumps(record))


def test_compare_fails_when_an_episode_ends_differently(tmp_path):
    for seed in (1, 2, 3):
        _write_run(tmp_path / "base", seed, f"d{seed}")
        _write_run(tmp_path / "same", seed, f"d{seed}")
        _write_run(tmp_path / "changed", seed, "x" if seed == 2 else f"d{seed}")
    assert compare([str(tmp_path / "base"), str(tmp_path / "same")]) == 0
    assert compare([str(tmp_path / "base"), str(tmp_path / "changed")]) == 1


def test_refuses_another_run_length():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", str(SPEC["run_seconds"] + 1)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""
