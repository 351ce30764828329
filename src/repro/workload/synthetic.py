"""Synthetic Philly-like trace generation.

The public Microsoft Philly trace is not redistributable inside this
offline environment, so we synthesize traces that match its published
statistics (Jeon et al., "Analysis of Large-Scale Multi-Tenant GPU
Clusters for DNN Training Workloads", ATC 2019), which are what shape
scheduler behaviour:

* GPU demand is dominated by small jobs — most request a single GPU,
  with a heavy tail up to 32;
* job durations are heavy-tailed (log-normal spanning minutes to days),
  which we express through heavy-tailed iteration counts;
* arrivals follow a diurnal pattern over the day.

The generator is fully deterministic given a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.workload.models import MODEL_NAMES
from repro.workload.trace import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster

#: Paper setting: GPUs per job drawn from this set (Section 4.1).
GPU_CHOICES: tuple[int, ...] = (1, 2, 4, 8, 16, 32)

#: Philly-like weights: single-GPU jobs dominate, big jobs are rare.
GPU_WEIGHTS: tuple[float, ...] = (0.52, 0.18, 0.14, 0.09, 0.05, 0.02)


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Knobs of the synthetic trace generator.

    Attributes
    ----------
    num_jobs:
        Number of jobs to emit.
    duration_seconds:
        Length of the arrival window.
    mean_iterations / sigma_iterations:
        Log-normal parameters (of the underlying normal) for iteration
        counts; the heavy tail reproduces Philly's duration skew.
    min_iterations / max_iterations:
        Clamp bounds on iteration counts.
    diurnal_strength:
        0 disables the day/night arrival modulation; 1 makes night-time
        arrival rates drop to near zero.
    urgency_levels:
        ``m`` — urgency coefficients are drawn from ``[1, m]``.
    accuracy_quantile_range:
        The accuracy requirement is set to this quantile range of the
        job's achievable accuracy.  The paper uses the Philly
        "completion status" — the accuracy the job historically
        reached — as the requirement, so the range sits close to 1.
    """

    num_jobs: int = 500
    duration_seconds: float = 7 * 24 * 3600.0
    mean_iterations: float = 3.2
    sigma_iterations: float = 0.9
    min_iterations: int = 5
    max_iterations: int = 400
    diurnal_strength: float = 0.6
    urgency_levels: int = 10
    accuracy_quantile_range: tuple[float, float] = (0.85, 0.99)
    gpu_choices: tuple[int, ...] = GPU_CHOICES
    gpu_weights: tuple[float, ...] = GPU_WEIGHTS
    model_names: tuple[str, ...] = MODEL_NAMES
    data_mb_range: tuple[float, float] = (100.0, 1000.0)


@dataclass
class PhillyLikeTraceGenerator:
    """Deterministic synthetic trace generator.

    Example
    -------
    >>> gen = PhillyLikeTraceGenerator(SyntheticTraceConfig(num_jobs=10), seed=1)
    >>> records = gen.generate()
    >>> len(records)
    10
    """

    config: SyntheticTraceConfig = field(default_factory=SyntheticTraceConfig)
    seed: int = 0

    def generate(self) -> list[TraceRecord]:
        """Produce the trace, sorted by arrival time."""
        rng = random.Random(self.seed)
        arrivals = self._arrival_times(rng)
        records = []
        for index, arrival in enumerate(arrivals):
            records.append(self._make_record(rng, index, arrival))
        records.sort(key=lambda r: r.arrival_time)
        return records

    # -- internals -------------------------------------------------------

    def _arrival_times(self, rng: random.Random) -> list[float]:
        """Draw arrival times with a diurnal intensity via thinning."""
        cfg = self.config
        times: list[float] = []
        while len(times) < cfg.num_jobs:
            t = rng.uniform(0.0, cfg.duration_seconds)
            if rng.random() <= self._diurnal_intensity(t):
                times.append(t)
        times.sort()
        return times

    def _diurnal_intensity(self, t: float) -> float:
        """Relative arrival intensity in (0, 1]; peak mid-day."""
        strength = self.config.diurnal_strength
        if strength <= 0:
            return 1.0
        day_fraction = (t % 86400.0) / 86400.0
        wave = 0.5 * (1.0 + math.sin(2.0 * math.pi * (day_fraction - 0.25)))
        return max(1e-3, 1.0 - strength + strength * wave)

    def _make_record(
        self, rng: random.Random, index: int, arrival: float
    ) -> TraceRecord:
        cfg = self.config
        model_name = rng.choice(cfg.model_names)
        gpus = rng.choices(cfg.gpu_choices, weights=cfg.gpu_weights, k=1)[0]
        iterations = int(
            round(rng.lognormvariate(cfg.mean_iterations, cfg.sigma_iterations))
        )
        iterations = max(cfg.min_iterations, min(cfg.max_iterations, iterations))
        lo_q, hi_q = cfg.accuracy_quantile_range
        accuracy_quantile = rng.uniform(lo_q, hi_q)
        urgency = rng.randint(1, cfg.urgency_levels)
        data_mb = rng.uniform(*cfg.data_mb_range)
        return TraceRecord(
            job_id=f"j{index}",
            arrival_time=arrival,
            gpus_requested=gpus,
            model_name=model_name,
            max_iterations=iterations,
            # Stored as a quantile in [0,1]; the workload builder converts
            # it to an absolute accuracy once the job's curve is known.
            accuracy_requirement=round(accuracy_quantile, 6),
            urgency=urgency,
            training_data_mb=round(data_mb, 3),
        )


def generate_trace(
    num_jobs: int,
    duration_seconds: float = 7 * 24 * 3600.0,
    seed: int = 0,
    **overrides,
) -> list[TraceRecord]:
    """Convenience wrapper: build a config and generate a trace."""
    config = SyntheticTraceConfig(
        num_jobs=num_jobs, duration_seconds=duration_seconds, **overrides
    )
    return PhillyLikeTraceGenerator(config=config, seed=seed).generate()


# -- published Philly shape (Jeon et al., ATC 2019 / the paper's §4) -------

#: Jobs in the public Philly trace slice the paper simulates against.
PHILLY_NUM_JOBS = 117_325
#: Servers in the Philly cluster.
PHILLY_NUM_SERVERS = 550
#: GPUs in the Philly cluster (not a multiple of the server count —
#: the fleet mixes 4- and 5-GPU hosts when flattened to our model).
PHILLY_NUM_GPUS = 2_474
#: Arrival window of the trace (~75 days in the original).
PHILLY_DURATION_SECONDS = 75 * 24 * 3600.0


def philly_scale_config(
    num_jobs: int = PHILLY_NUM_JOBS,
    duration_seconds: float = PHILLY_DURATION_SECONDS,
) -> SyntheticTraceConfig:
    """The full synthetic-Philly preset (117,325 jobs by default).

    Same statistical shape as the default generator, sized to the
    published trace.  ``num_jobs`` scales the preset down for smoke
    tests without changing the per-job distributions.
    """
    return SyntheticTraceConfig(
        num_jobs=num_jobs,
        duration_seconds=duration_seconds,
    )


def philly_cluster() -> "Cluster":
    """The Philly fleet: 550 servers totalling exactly 2,474 GPUs.

    2,474 is not a multiple of 550, so the build mixes 4- and 5-GPU
    servers (matching how the heterogeneous fleet flattens onto our
    homogeneous-server model) — 276 four-GPU and 274 five-GPU hosts.
    """
    from repro.cluster.cluster import Cluster
    from repro.cluster.resources import ResourceVector
    from repro.cluster.server import DEFAULT_SERVER_CAPACITY, Server

    base = DEFAULT_SERVER_CAPACITY
    per_gpu = base.gpu / 4.0
    servers = []
    five_gpu_hosts = PHILLY_NUM_GPUS - 4 * PHILLY_NUM_SERVERS
    for server_id in range(PHILLY_NUM_SERVERS):
        num_gpus = 5 if server_id < five_gpu_hosts else 4
        capacity = ResourceVector(
            gpu=per_gpu * num_gpus, cpu=base.cpu, mem=base.mem, bw=base.bw
        )
        servers.append(
            Server(server_id=server_id, capacity=capacity, num_gpus=num_gpus)
        )
    return Cluster(servers=servers)


def sparse_trace_config(
    num_jobs: int = 200,
    duration_seconds: float = 90 * 24 * 3600.0,
) -> SyntheticTraceConfig:
    """A sparse trace: few, long-running jobs over a wide window.

    The regime where event-driven passes shine — jobs spend most of
    their life in long iterations with nothing schedulable, so fixed
    60 s cadence burns passes that place nothing.  Used by the
    benchmark suite's ``sparse-long`` workload and the slow sparse leg
    of ``tests/test_event_equivalence.py``.
    """
    return SyntheticTraceConfig(
        num_jobs=num_jobs,
        duration_seconds=duration_seconds,
        # Long jobs: shift the iteration log-normal up and clamp high.
        mean_iterations=5.5,
        sigma_iterations=0.6,
        min_iterations=100,
        max_iterations=2400,
        diurnal_strength=0.3,
        # The heaviest model only (140 s base iterations) with large
        # gradient/activation volumes: each iteration spans several 60 s
        # ticks, which is precisely when fixed cadence wastes passes.
        model_names=("resnet",),
        data_mb_range=(1000.0, 4000.0),
    )
