"""The three simulator workloads: one episode, untraced or traced.

An *episode* generates a synthetic trace from one seed, builds the jobs
and the engine (the set-up), then drives ``engine.advance()`` until the
workload drains (the measured part).  A run is a fixed number of
episodes with consecutive seeds, so two commits measured with one seed
run the same inputs; :func:`measure` pools them.
:func:`measure_traced` runs one episode twice, without and with the
ledger, and checks both runs end the same way.

Engine timings use process CPU time, rescaled to the host's reference
speed by :mod:`speed`: a shared host slows the process down in ways its
own CPU accounting cannot see.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.analysis.cdf import percentile_sorted
from repro.cluster.cluster import Cluster
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.learncurve.accuracy import AccuracyPredictor
from repro.learncurve.runtime import RuntimePredictor
from repro.schedulers import build_scheduler
from repro.sim.engine import EngineConfig, SimulationEngine
from repro.workload.generator import build_jobs
from repro.workload.synthetic import (
    PHILLY_DURATION_SECONDS,
    PHILLY_NUM_JOBS,
    PhillyLikeTraceGenerator,
    SyntheticTraceConfig,
    philly_cluster,
    philly_scale_config,
    sparse_trace_config,
)

from ledger import Ledger, LedgerObserver
from speed import ScaledClock

DAY = 86400.0
#: Far enough out that every job of every episode completes.
MAX_TIME = 400 * DAY
#: Seeds of one run's episodes: ``seed + SEED_STRIDE * run_seed + k``.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class EngineWorkload:
    """One simulator workload: trace shape, cluster, policy, faults.

    A run is ``episodes`` episodes of ``jobs`` jobs each, sized so that
    it measures about ``run_seconds`` of ``BENCHMARK.json`` on the
    reference host.
    """

    name: str
    scheduler: str
    pass_policy: str
    seed: int
    episodes: int
    jobs: int
    trace: Callable[[int], SyntheticTraceConfig]
    cluster: Callable[[], Cluster]
    faults: Optional[Callable[[int], FaultPlan]] = None
    scheduler_config: Optional[dict[str, Any]] = None


def _philly_window(num_jobs: int) -> SyntheticTraceConfig:
    # The full trace's arrival density: 117,325 jobs over 75 days.
    return philly_scale_config(
        num_jobs=num_jobs,
        duration_seconds=PHILLY_DURATION_SECONDS * num_jobs / PHILLY_NUM_JOBS,
    )


def _sparse_long(num_jobs: int) -> SyntheticTraceConfig:
    # The density of sparse_trace_config(num_jobs=6000): 6,000 jobs in 90 days.
    return sparse_trace_config(num_jobs=num_jobs, duration_seconds=90 * DAY * num_jobs / 6000)


def _mlfs_overload(num_jobs: int) -> SyntheticTraceConfig:
    # 500 jobs per 4 hours on 64 GPUs: a standing queue.  MLFS's cost per
    # job follows its iteration count, because every few observations
    # refit the job's learning curve.  The Philly mix's long tails of
    # iteration counts and GPU demands are narrowed here: across seeds,
    # the coefficient of variation of one 100-job episode's jobs/s fell
    # from 17% to 8%.
    return SyntheticTraceConfig(
        num_jobs=num_jobs,
        duration_seconds=4 * 3600.0 * num_jobs / 500,
        mean_iterations=3.5,
        sigma_iterations=0.3,
        max_iterations=100,
        gpu_choices=(1, 2, 4, 8),
        gpu_weights=(0.4, 0.3, 0.2, 0.1),
    )


def _mlfs_faults(seed: int) -> FaultPlan:
    return FaultPlan.from_mtbf(
        num_servers=16,
        horizon_rounds=4000,
        mtbf_rounds=40,
        seed=seed,
        straggler_probability=0.3,
        checkpoint_period=5,
    )


WORKLOADS: dict[str, EngineWorkload] = {
    workload.name: workload
    for workload in (
        EngineWorkload(
            name="philly-window",
            scheduler="MLF-H",
            pass_policy="event",
            seed=7,
            episodes=2,
            jobs=1000,
            trace=_philly_window,
            cluster=philly_cluster,
        ),
        EngineWorkload(
            name="sparse-long",
            scheduler="MLF-H",
            pass_policy="event",
            seed=11,
            episodes=3,
            jobs=1500,
            trace=_sparse_long,
            cluster=lambda: Cluster.build(40, 4),
        ),
        EngineWorkload(
            name="mlfs-overload",
            scheduler="MLFS",
            pass_policy="fixed",
            seed=13,
            episodes=3,
            jobs=100,
            trace=_mlfs_overload,
            cluster=lambda: Cluster.build(16, 4),
            # Fault-plan seeds keep the original offset from the trace seed (3 vs 13).
            faults=lambda seed: _mlfs_faults(seed - 10),
            # Switch to MLF-RL about halfway through a 100-job episode.
            scheduler_config={"rl_switch_decisions": 500},
        ),
    )
}


@dataclass
class Episode:
    """What one episode measured."""

    seed: int
    jobs: int
    gen_s: float
    build_s: float
    cpu_s: float
    raw_cpu_s: float
    wall_s: float
    #: CPU of every advance() call whose pass changed the schedule.
    decision_cpu_s: list[float]
    digest: str
    completed: int
    jct_sum: float
    deadline_met: int
    counts: dict[str, int]
    faults: dict[str, int]
    ledger: Optional[Ledger]

    @property
    def setup_s(self) -> float:
        return self.gen_s + self.build_s

    @property
    def failed(self) -> int:
        """Jobs that did not complete with a valid JCT."""
        return self.jobs - self.completed

    def summary(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "jobs": self.jobs,
            "failed": self.failed,
            "cpu_s": self.cpu_s,
            "raw_cpu_s": self.raw_cpu_s,
            "setup_s": self.setup_s,
            "passes": self.counts["passes"],
            "avg_jct_s": self.jct_sum / self.jobs,
            "deadline_ratio": self.deadline_met / self.jobs,
            "digest": self.digest,
        }


def outcome_digest(records: list[Any]) -> str:
    """SHA-256 over every ``(job_id, jct)`` in completion order."""
    h = hashlib.sha256()
    for record in records:
        h.update(f"{record.job_id}:{record.jct!r}\n".encode())
    return h.hexdigest()


def _instrument_scheduler(ledger: Ledger, scheduler: Any) -> None:
    tally = ledger.tally

    def placement_attempt(candidates: Any) -> None:
        tally["placement.attempts"] += 1
        tally["placement.found"] += bool(candidates)

    def migration_selected(tasks: Any) -> None:
        tally["migration.selected"] += len(tasks)

    def load_control_stops(stops: Any) -> None:
        tally["load_control.stops"] += len(stops)

    ledger.patch(scheduler, ["on_schedule"], "scheduler")
    # MLFS composes an MLF-H and an MLF-RL scheduler; each owns its layers.
    parts = [scheduler] + [
        getattr(scheduler, name) for name in ("heuristic", "rl") if hasattr(scheduler, name)
    ]
    for part in parts:
        if hasattr(part, "calculator"):
            ledger.patch(part.calculator, ["priorities"], "priority")
        if hasattr(part, "placement"):
            ledger.patch(part.placement, ["candidate_servers"], "placement", placement_attempt)
            ledger.patch(part.placement, ["select_host"], "placement")
        if hasattr(part, "migration"):
            ledger.patch(part.migration, ["select"], "migration", migration_selected)
    if hasattr(scheduler, "load_control"):
        ledger.patch(scheduler.load_control, ["apply"], "load_control", load_control_stops)


def _instrument_predictors(
    ledger: Ledger, accuracy: AccuracyPredictor, runtime: RuntimePredictor
) -> None:
    ledger.patch(accuracy, ["observe"], "learncurve.observe")
    ledger.patch(runtime, ["observe_iteration"], "learncurve.observe")
    ledger.patch(accuracy, ["predict", "predict_final", "confidence_below"], "learncurve.predict")
    ledger.patch(runtime, ["remaining_time", "iteration_time", "total_time"], "learncurve.predict")


_CLUSTER_AGGREGATES = (
    "overloaded_servers",
    "underloaded_servers",
    "overload_degree",
    "is_overloaded",
    "failed_servers",
    "healthy_servers",
    "cluster_utilization",
    "total_load",
    "total_capacity",
    "running_tasks",
)

#: Observer spans that open a ledger frame; the others pass through.
OBSERVER_LAYERS = {"faults": "faults", "rl_inference": "rl"}
#: Injector counters that count applied fault events.
_FAULT_EVENT_COUNTERS = (
    "servers_failed",
    "servers_revived",
    "gpus_failed",
    "gpus_revived",
    "straggler_events",
)


@dataclass
class SetUp:
    """A built episode, ready to drive."""

    engine: SimulationEngine
    injector: Optional[FaultInjector]
    ledger: Optional[Ledger]
    gen_s: float
    build_s: float


def set_up(workload: EngineWorkload, seed: int, num_jobs: int, traced: bool = False) -> SetUp:
    """Generate the trace, build the jobs and the engine (CPU-timed)."""
    cpu = time.process_time
    started = cpu()
    records = PhillyLikeTraceGenerator(config=workload.trace(num_jobs), seed=seed).generate()
    generated = cpu()
    jobs = build_jobs(records, seed=seed)
    cluster = workload.cluster()
    scheduler = build_scheduler(workload.scheduler, workload.scheduler_config)
    injector = FaultInjector(workload.faults(seed)) if workload.faults else None
    accuracy = AccuracyPredictor(seed=seed)
    runtime = RuntimePredictor(seed=seed)
    ledger: Optional[Ledger] = None
    observer = None
    if traced:
        ledger = Ledger()
        _instrument_scheduler(ledger, scheduler)
        _instrument_predictors(ledger, accuracy, runtime)
        ledger.patch(cluster, _CLUSTER_AGGREGATES, "cluster")
        if injector is not None:
            ledger.patch(injector, ["take_events", "armed_after", "slowdown_for"], "faults")
        observer = LedgerObserver(ledger, OBSERVER_LAYERS)
    engine = SimulationEngine(
        scheduler=scheduler,
        jobs=jobs,
        cluster=cluster,
        config=EngineConfig(seed=seed, max_time=MAX_TIME, pass_policy=workload.pass_policy),
        accuracy_predictor=accuracy,
        runtime_predictor=runtime,
        observer=observer,
        faults=injector,
    )
    if ledger is not None:
        ledger.patch(engine.execution, ["iteration_duration"], "execution")
        ledger.patch(engine.metrics, ["record_job", "record_overhead"], "metrics")
        ledger.patch(engine, ["advance", "finalize"], "engine")
    return SetUp(engine, injector, ledger, generated - started, cpu() - generated)


def run_episode(
    workload: EngineWorkload, seed: int, num_jobs: int, traced: bool = False
) -> Episode:
    """Set up and run one episode until the workload drains."""
    clock = ScaledClock()
    built = set_up(workload, seed, num_jobs, traced)
    clock.add(built.gen_s)
    clock.add(built.build_s)
    engine = built.engine
    cpu = time.process_time
    counts = dict.fromkeys(("passes", "useful_passes", "grid_passes", "events"), 0)
    tick = engine.config.tick_seconds
    decided: list[bool] = []
    last_pass: Optional[float] = None
    busy_before = False
    raw_cpu = 0.0
    wall_started = time.perf_counter()
    while True:
        before = cpu()
        result = engine.advance()
        elapsed = cpu() - before
        clock.add(elapsed)
        raw_cpu += elapsed
        changed = result.placements + result.migrations + result.evictions + result.stops
        decided.append(result.ticked and changed > 0)
        counts["events"] += result.events_processed
        if result.ticked:
            counts["passes"] += 1
            # Passes the fixed cadence would have run since the last one:
            # every tick while jobs were active, a single one after idling.
            gap = 1
            if last_pass is not None and busy_before:
                gap = max(1, round((result.sim_time - last_pass) / tick))
            counts["grid_passes"] += gap
            last_pass = result.sim_time
            busy_before = result.active_jobs > 0
            counts["useful_passes"] += changed > 0
        if result.drained or result.events_processed == 0:
            break
    drained = engine.is_drained
    before = cpu()
    records = engine.finalize().job_records
    elapsed = cpu() - before
    wall = time.perf_counter() - wall_started
    clock.add(elapsed)
    raw_cpu += elapsed
    clock.settle()
    gen_s, build_s, *run_s = clock.scaled

    num_jobs = len(engine.jobs)
    valid = [r for r in records if 0.0 <= r.jct < MAX_TIME]
    return Episode(
        seed=seed,
        jobs=num_jobs,
        gen_s=gen_s,
        build_s=build_s,
        cpu_s=sum(run_s),
        raw_cpu_s=raw_cpu,
        wall_s=wall,
        decision_cpu_s=[s for s, is_decision in zip(run_s, decided) if is_decision],
        digest=outcome_digest(records),
        completed=len(valid) if drained and len(records) == num_jobs else 0,
        jct_sum=sum(r.jct for r in records),
        deadline_met=sum(r.met_deadline for r in records),
        counts=counts,
        faults=dict(built.injector.counters) if built.injector is not None else {},
        ledger=built.ledger,
    )


#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Ledger layers, each reported as ``<layer>.calls``, ``.busy_s`` and ``.share``.
LAYERS = (
    "engine",
    "scheduler",
    "priority",
    "placement",
    "migration",
    "load_control",
    "rl",
    "learncurve.observe",
    "learncurve.predict",
    "execution",
    "cluster",
    "faults",
    "metrics",
)


def episode_seed(workload: EngineWorkload, run_seed: int, index: int) -> int:
    return workload.seed + SEED_STRIDE * run_seed + index


def _setups(
    workload: EngineWorkload, run_seed: int, num_jobs: int, episodes: list[Episode]
) -> list[tuple[float, float]]:
    """(gen_s, build_s) of :data:`SETUP_SAMPLES` set-ups, topping up the
    episodes' own with set-ups of the seeds that follow them."""
    samples = [(e.gen_s, e.build_s) for e in episodes[:SETUP_SAMPLES]]
    index = len(episodes)
    while len(samples) < SETUP_SAMPLES:
        clock = ScaledClock()
        built = set_up(workload, episode_seed(workload, run_seed, index), num_jobs)
        clock.add(built.gen_s)
        clock.add(built.build_s)
        clock.settle()
        gen_s, build_s = clock.scaled
        samples.append((gen_s, build_s))
        index += 1
    return samples


def _percentile_ms(ordered: list[float], pct: float) -> float:
    return percentile_sorted(ordered, pct) * 1000.0


def sizes(workload: EngineWorkload, share: float) -> tuple[int, int]:
    """(episodes, jobs per episode) of a run at ``share`` of full size."""
    return max(1, round(workload.episodes * share)), max(1, round(workload.jobs * share))


def measure(workload: EngineWorkload, run_seed: int, share: float) -> dict[str, Any]:
    """The run's untraced episodes, pooled."""
    count, num_jobs = sizes(workload, share)
    episodes = [
        run_episode(workload, episode_seed(workload, run_seed, k), num_jobs) for k in range(count)
    ]
    setups = _setups(workload, run_seed, num_jobs, episodes)
    # Passes that placed, migrated, evicted or stopped a job.  The passes
    # that change nothing are mostly the fixed cadence's cheap ticks
    # while the last jobs of an episode run, and their number follows the
    # inputs.  Across seeds, the mean over all passes of one
    # mlfs-overload episode varied by 13% (coefficient of variation);
    # the mean over these varied by 7%.
    passes = sorted(t for e in episodes for t in e.decision_cpu_s)
    jobs = sum(e.jobs for e in episodes)
    return {
        "attempted": jobs,
        "failed": sum(e.failed for e in episodes),
        "end_to_end": {
            "jobs_per_s": jobs / sum(e.cpu_s for e in episodes),
            "latency_ms_mean": 1000.0 * statistics.fmean(passes),
            "latency_ms_p95": _percentile_ms(passes, 95.0),
            "setup_s": statistics.median(gen + build for gen, build in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "details": {
            "jobs_per_episode": num_jobs,
            "decision_passes": len(passes),
            "latency_ms_p50": _percentile_ms(passes, 50.0),
            "latency_ms_p99": _percentile_ms(passes, 99.0),
            "raw_cpu_s": sum(e.raw_cpu_s for e in episodes),
            "avg_jct_s": sum(e.jct_sum for e in episodes) / jobs,
            "deadline_ratio": sum(e.deadline_met for e in episodes) / jobs,
            "setups_s": [gen + build for gen, build in setups],
            "episodes": [e.summary() for e in episodes],
        },
    }


def measure_traced(workload: EngineWorkload, run_seed: int, share: float) -> dict[str, Any]:
    """One episode untraced, then the same episode traced: the ledger."""
    _, num_jobs = sizes(workload, share)
    seed = episode_seed(workload, run_seed, 0)
    plain = run_episode(workload, seed, num_jobs)
    traced = run_episode(workload, seed, num_jobs, traced=True)
    ledger = traced.ledger
    assert ledger is not None
    total = traced.wall_s
    layers: dict[str, float] = {}
    for layer in LAYERS:
        layers[f"{layer}.calls"] = ledger.calls(layer)
        layers[f"{layer}.busy_s"] = ledger.busy(layer)
        layers[f"{layer}.share"] = ledger.self_time(layer) / total
    tally = ledger.tally
    attempts = tally["placement.attempts"]
    layers["placement.calls"] = attempts
    layers["placement.found_ratio"] = tally["placement.found"] / attempts if attempts else 0.0
    layers["migration.selected"] = tally["migration.selected"]
    layers["load_control.stops"] = tally["load_control.stops"]
    counts = plain.counts
    layers["engine.events"] = counts["events"]
    layers["engine.park_ratio"] = counts["passes"] / counts["grid_passes"]
    layers["engine.useful_pass_ratio"] = counts["useful_passes"] / counts["passes"]
    faults = traced.faults
    layers["faults.events"] = sum(faults.get(k, 0) for k in _FAULT_EVENT_COUNTERS)
    layers["faults.kills"] = faults.get("tasks_killed", 0)
    layers["unattributed_share"] = 1.0 - sum(t[1] for t in ledger.totals.values()) / total
    layers["trace.overhead_ratio"] = plain.cpu_s / traced.cpu_s
    setups = _setups(workload, run_seed, num_jobs, [plain])
    layers["workload.gen_s"] = statistics.median(gen for gen, _ in setups)
    layers["workload.build_s"] = statistics.median(build for _, build in setups)
    layers["sim.avg_jct_s"] = plain.jct_sum / plain.jobs
    layers["sim.deadline_ratio"] = plain.deadline_met / plain.jobs
    # The wrappers must not change what the program does.
    identical = plain.digest == traced.digest
    return {
        "attempted": plain.jobs,
        "failed": plain.failed + traced.failed + (0 if identical else plain.jobs),
        "layers": layers,
        "details": {
            "digest_untraced": plain.digest,
            "digest_traced": traced.digest,
            "digests_equal": identical,
            "traced_wall_s": total,
            "episodes": [plain.summary(), traced.summary()],
        },
    }
