"""Shared fixtures: small deterministic jobs, clusters and workloads.

Also the suite-wide plumbing:

* ``--update-golden`` regenerates ``tests/golden/*.jsonl`` (see
  :mod:`tests.test_golden_traces`) instead of diffing against them.
* Every test runs under a wall-clock ceiling (``signal.alarm``-based,
  so no extra dependency): a hung test raises ``TimeoutError`` where
  it is stuck instead of wedging the whole suite.  ``slow``-marked
  tests get a higher ceiling.
* ``HYPOTHESIS_PROFILE=ci`` selects derandomized hypothesis draws that
  print a reproduction blob on failure, so a failing CI draw replays
  anywhere without the local ``.hypothesis/`` example store.  Local
  runs keep the default profile's random exploration.
"""

from __future__ import annotations

import os
import random
import signal

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

#: Per-test wall-clock ceilings (seconds).
TEST_TIMEOUT_S = 120
SLOW_TEST_TIMEOUT_S = 900


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate tests/golden/*.jsonl instead of diffing against them",
    )


@pytest.fixture
def update_golden(request: pytest.FixtureRequest) -> bool:
    """Whether golden files should be rewritten rather than compared."""
    return bool(request.config.getoption("--update-golden"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item: pytest.Item):
    """Enforce the per-test wall-clock ceiling (POSIX main thread only)."""
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return
    limit = SLOW_TEST_TIMEOUT_S if item.get_closest_marker("slow") else TEST_TIMEOUT_S

    def _on_alarm(signum, frame):  # pragma: no cover - only fires on hang
        raise TimeoutError(f"test exceeded the {limit}s wall-clock ceiling")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(limit)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

from repro.cluster import Cluster, ResourceVector, Server
from repro.workload import (
    CommStructure,
    Job,
    StopOption,
    TraceRecord,
    WorkloadConfig,
    build_job,
    build_jobs,
    generate_trace,
)


def make_record(
    job_id: str = "j0",
    arrival: float = 0.0,
    gpus: int = 4,
    model: str = "alexnet",
    iterations: int = 10,
    accuracy_quantile: float = 0.8,
    urgency: int = 5,
    data_mb: float = 500.0,
) -> TraceRecord:
    """One hand-rolled trace record."""
    return TraceRecord(
        job_id=job_id,
        arrival_time=arrival,
        gpus_requested=gpus,
        model_name=model,
        max_iterations=iterations,
        accuracy_requirement=accuracy_quantile,
        urgency=urgency,
        training_data_mb=data_mb,
    )


def make_job(seed: int = 0, **record_kwargs) -> Job:
    """Build one deterministic job."""
    record = make_record(**record_kwargs)
    return build_job(record, random.Random(seed), WorkloadConfig())


@pytest.fixture
def rng() -> random.Random:
    """A seeded RNG."""
    return random.Random(1234)

@pytest.fixture
def small_cluster() -> Cluster:
    """Four p3.8xlarge-like servers (16 GPUs)."""
    return Cluster.build(4, 4)


@pytest.fixture
def single_server() -> Server:
    """One default server."""
    return Server(server_id=0)


@pytest.fixture
def simple_job() -> Job:
    """A 4-GPU AlexNet job (sequential partitions, PS structure)."""
    job = make_job(seed=7)
    if job.comm_structure is not CommStructure.PARAMETER_SERVER:
        # Re-roll until the structure is PS so tests relying on a PS
        # task are stable.  seed=7 yields PS; guard regardless.
        for seed in range(100):
            job = make_job(seed=seed)
            if job.comm_structure is CommStructure.PARAMETER_SERVER:
                break
    return job


@pytest.fixture
def svm_job() -> Job:
    """A data-parallel-only SVM job."""
    return make_job(seed=3, model="svm", gpus=4, job_id="jsvm")


@pytest.fixture
def small_workload() -> list[Job]:
    """Twenty small jobs over a one-hour window."""
    records = generate_trace(20, duration_seconds=3600.0, seed=11)
    return build_jobs(records, seed=12)


@pytest.fixture
def tight_capacity() -> ResourceVector:
    """A deliberately tiny server capacity for overload tests."""
    return ResourceVector(gpu=1.0, cpu=4.0, mem=16.0, bw=200.0)
