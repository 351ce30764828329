"""Run one workload in this process; print its result as one JSON line.

``run.py`` starts this script in a fresh interpreter for every
workload, with ``src`` on ``PYTHONPATH`` and single-threaded BLAS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

import engine_workloads
import gateway_workload

ROOT = Path(__file__).resolve().parents[2]
GATEWAY = "gateway-openloop"
#: Share of its full size that every workload runs under ``--smoke``.
SMOKE_SHARE = 0.15


def environment() -> dict[str, object]:
    """What a reader needs to judge the numbers: host, versions, commit."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    return {
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    env = environment()
    share = SMOKE_SHARE if args.smoke else 1.0
    if args.workload == GATEWAY:
        result = gateway_workload.run(ROOT, args.seed, share, bool(args.trace))
    elif args.workload in engine_workloads.WORKLOADS:
        workload = engine_workloads.WORKLOADS[args.workload]
        if args.trace:
            result = engine_workloads.measure_traced(workload, args.seed, share)
        else:
            result = engine_workloads.measure(workload, args.seed, share)
    else:
        parser.error(f"unknown workload {args.workload!r}")
    result["env"] = env
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
