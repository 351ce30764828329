"""One benchmark for the simulator and the online tier.

Run every workload, or some, each in a fresh subprocess::

    python3 benchmarks/suite/run.py [--workload NAME ...] [--seed S]
        [--trace [0|1]] [--smoke] [--out DIR]

Without ``--trace`` (or with ``--trace 0``) a run reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace`` it reports
the per-layer ledger instead.  Every metric is printed by name and unit;
the last line of standard output is one JSON object per the last
workload run: ``{"correct", "attempted", "failed", "metrics"}``.
``--out DIR`` also writes one JSON file per workload run into DIR.

The work of a run is fixed per workload and sized to ``run_seconds`` of
``BENCHMARK.json`` on the reference host.  ``--seconds`` is accepted
only with that value, so that a run can be started with the standard
benchmark command line; ``--smoke`` runs every workload at a small share
of its size.

Compare two directories of such files, N runs each::

    python3 benchmarks/suite/run.py compare BASE/ CHANGE/

The exit code is 0 when every workload checked out, 1 when any
operation failed or a comparison found a regression or an episode that
ended differently, and 2 when the benchmark cannot run here (no
``src/repro`` next to it, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


class SuiteError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # RL inference is numpy: keep BLAS from spreading over every core.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(name: str, seed: int, trace: bool, smoke: bool, timeout: float) -> dict[str, Any]:
    """Run one workload in a fresh interpreter; returns its JSON result."""
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", name, "--seed", str(seed), "--trace", str(int(trace)),
    ]
    if smoke:
        cmd.append("--smoke")
    # Its own process group, so a timeout also ends the gateway it started.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SuiteError(f"{name}: no result within {timeout:.0f}s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SuiteError(f"{name}: measurement exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise SuiteError(f"{name}: no JSON result on the last line") from None


def metrics_of(
    spec: dict[str, Any], result: dict[str, Any], trace: bool
) -> tuple[dict[str, dict[str, Any]], list[str]]:
    """Name every value with its unit; also return the metrics this
    workload does not exercise (reported as 0)."""
    declared = spec["per_layer" if trace else "end_to_end"]
    values = result["layers" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise SuiteError(f"metrics missing from BENCHMARK.json: {unknown}")
    absent = [n for n in names if n not in values]
    if absent and not trace:
        raise SuiteError(f"end-to-end metrics not measured: {absent}")
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared
    }
    return metrics, absent


def _out_path(directory: Path, name: str, seed: int, trace: bool) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}" + ("-trace" if trace else "")
    index = 1
    while (directory / f"{stem}-{index:03d}.json").exists():
        index += 1
    return directory / f"{stem}-{index:03d}.json"


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure_all(args: argparse.Namespace) -> int:
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    bad = [n for n in names if n not in known]
    if bad:
        print(f"unknown workload(s) {bad}; choose from {known}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        print(f"--seconds must be {spec['run_seconds']} (run_seconds): the work of a run"
              " is fixed; use --smoke for a short run", file=sys.stderr)
        return 2
    if (os.cpu_count() or 1) < 2:
        print("warning: one CPU; every other process competes with the measured one",
              file=sys.stderr)
    timeout = 3 * spec["run_seconds"] + 60
    trace = bool(args.trace)
    status = 0
    for name in names:
        try:
            result = run_child(name, args.seed, trace, args.smoke, timeout)
            metrics, absent = metrics_of(spec, result, trace)
        except SuiteError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        correct = result["failed"] == 0
        env = result["env"]
        print(f"# {name}  seed={args.seed} trace={int(trace)} smoke={int(args.smoke)}"
              f"  cpus={env['cpu_count']} load={env['loadavg'][0]:.2f}"
              f" python={env['python']} numpy={env['numpy']} sha={env['git_sha']}")
        print(f"  attempted={result['attempted']} failed={result['failed']}"
              f" correct={str(correct).lower()}")
        width = max(len(n) for n in metrics)
        for metric, entry in metrics.items():
            if metric not in absent:
                print(f"  {metric:<{width}}  {_format(entry['value']):>12}  {entry['unit']}")
        if absent:
            print(f"  not exercised by {name} (reported as 0): {', '.join(absent)}")
        line = {
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
        if args.out:
            record = {
                "workload": name,
                "seed": args.seed,
                "trace": trace,
                "smoke": args.smoke,
                **line,
                "not_exercised": absent,
                "details": result.get("details", {}),
                "env": env,
            }
            path = _out_path(Path(args.out), name, args.seed, trace)
            path.write_text(json.dumps(record, indent=1) + "\n")
        print(json.dumps(line), flush=True)
        if not correct:
            status = 1
    return status


# -- compare -------------------------------------------------------------


def _load_runs(directory: Path) -> dict[str, list[dict[str, Any]]]:
    runs: dict[str, list[dict[str, Any]]] = {}
    for path in sorted(directory.rglob("*.json")):
        record = json.loads(path.read_text())
        if isinstance(record, dict) and "workload" in record and not record.get("trace"):
            runs.setdefault(record["workload"], []).append(record)
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], change: list[float], bound: float, higher_is_better: bool) -> str:
    """better / same / worse against ``bound``, or unresolved when the
    run-to-run spread of either side is wider than the bound."""
    sign = -1.0 if higher_is_better else 1.0
    b_q1, b_med, b_q3 = _quartiles(base)
    c_q1, c_med, c_q3 = _quartiles(change)
    spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    if spread > bound:
        if all(sign * c < sign * b for c in change for b in base):
            return "better"
        if all(sign * c > sign * b for c in change for b in base):
            return "worse"
        return "unresolved"
    worse_by = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def _outcomes(records: list[dict[str, Any]]) -> dict[int, str]:
    return {
        episode["seed"]: episode["digest"]
        for record in records
        for episode in record.get("details", {}).get("episodes", [])
    }


def compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description="Compare two run sets.")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = load_spec()
    base, change = _load_runs(args.base), _load_runs(args.change)
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in change:
            continue
        a, b = base[workload], change[workload]
        print(f"# {workload}: {len(a)} base runs, {len(b)} change runs")
        print(f"  {'metric':<16} {'base q1/median/q3':>32} {'change q1/median/q3':>32}"
              f"  {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            result = verdict(va, vb, metric["bound"], metric["better"] == "higher")
            if result == "worse":
                status = 1
            cells = ["/".join(_format(q) for q in _quartiles(v)) for v in (va, vb)]
            print(f"  {name:<16} {cells[0]:>32} {cells[1]:>32}"
                  f"  {metric['bound']:>6g}  {result}")
        # Same seed, same outcome: a change meant only to be faster must
        # leave every simulated job's completion time as it was.
        outcomes_a, outcomes_b = _outcomes(a), _outcomes(b)
        shared = sorted(set(outcomes_a) & set(outcomes_b))
        if shared:
            differ = [s for s in shared if outcomes_a[s] != outcomes_b[s]]
            print(f"  outcomes: {len(shared) - len(differ)}/{len(shared)}"
                  f" shared episodes identical" + (f"; differ: {differ}" if differ else ""))
            if differ:
                status = 1
    return status


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", action="extend", help="default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted only as BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report the per-layer ledger instead of end-to-end metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--out", help="also write one JSON file per workload run here")
    return measure_all(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
