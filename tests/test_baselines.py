"""Behavioural tests for the seven comparison schedulers."""

import pytest

from repro.baselines import (
    FIFOScheduler,
    FairScheduler,
    GandivaScheduler,
    GrapheneScheduler,
    HyperSchedScheduler,
    RLScheduler,
    SLAQScheduler,
    TiresiasScheduler,
    pack_tasks,
    waiting_jobs,
)
from repro.cluster import Cluster
from repro.core import FEATURE_SIZE
from repro.learncurve import AccuracyPredictor, RuntimePredictor
from repro.rl import ScoringPolicy
from repro.sim import EngineConfig, SchedulingContext, SimulationEngine
from repro.sim.shadow import ShadowCluster
from repro.workload import build_jobs, generate_trace
from tests.conftest import make_job

ALL_BASELINES = [
    FIFOScheduler,
    FairScheduler,
    GandivaScheduler,
    GrapheneScheduler,
    HyperSchedScheduler,
    RLScheduler,
    SLAQScheduler,
    TiresiasScheduler,
]


def run_small(scheduler, num_jobs=12, seed=30, servers=4):
    """Run ``scheduler`` over a small trace on a fresh cluster; its metrics."""
    records = generate_trace(num_jobs, duration_seconds=1800.0, seed=seed)
    jobs = build_jobs(records, seed=seed + 1)
    engine = SimulationEngine(
        scheduler,
        jobs,
        Cluster.build(servers, 4),
        EngineConfig(max_time=3 * 24 * 3600.0),
    )
    return engine.run()


def make_ctx(jobs, cluster, now=0.0):
    return SchedulingContext(
        now=now,
        cluster=cluster,
        queue=[t for j in jobs for t in j.queued_tasks()],
        active_jobs=jobs,
        overload_threshold=0.9,
        system_overload_threshold=0.9,
        accuracy_predictor=AccuracyPredictor(noise_std=0.0),
        runtime_predictor=RuntimePredictor(cold_error_std=0.0, warm_error_std=0.0),
    )


class TestPackTasks:
    def test_pack_succeeds_on_empty_cluster(self, small_cluster):
        job = make_job(seed=31)
        shadow = ShadowCluster(small_cluster)
        assignments = pack_tasks(job.tasks, shadow, threshold=0.9)
        assert assignments is not None
        assert len(assignments) == len(job.tasks)

    def test_pack_rolls_back_on_failure(self):
        cluster = Cluster.build(1, 1)
        job = make_job(seed=32, gpus=8)
        shadow = ShadowCluster(cluster)
        before = shadow.snapshot()
        result = pack_tasks(job.tasks, shadow, threshold=0.9)
        if result is None:
            assert shadow.snapshot() == before

    def test_pack_prefers_preferred_servers(self, small_cluster):
        job = make_job(seed=33, gpus=1)
        shadow = ShadowCluster(small_cluster)
        assignments = pack_tasks(
            job.tasks, shadow, threshold=0.9, preferred_servers=[2]
        )
        assert assignments is not None
        assert assignments[0][1] == 2


class TestEachBaselineRuns:
    @pytest.mark.parametrize("scheduler_cls", ALL_BASELINES)
    def test_completes_workload(self, scheduler_cls):
        metrics = run_small(scheduler_cls())
        assert metrics.summary()["jobs"] == 12
        assert metrics.average_jct() > 0.0

    @pytest.mark.parametrize("scheduler_cls", ALL_BASELINES)
    def test_gang_placement_all_or_nothing(self, scheduler_cls):
        jobs = build_jobs(generate_trace(4, duration_seconds=10.0, seed=34), seed=35)
        for job in jobs:
            for task in job.tasks:
                task.mark_queued(0.0)
        cluster = Cluster.build(6, 4)
        decision = scheduler_cls().on_schedule(make_ctx(jobs, cluster))
        placed = {}
        for p in decision.placements:
            placed.setdefault(p.task.job_id, 0)
            placed[p.task.job_id] += 1
        for job in jobs:
            assert placed.get(job.job_id, 0) in (0, len(job.tasks))


class TestFIFO:
    def test_admission_respects_arrival_order(self):
        jobs = build_jobs(generate_trace(5, duration_seconds=100.0, seed=36), seed=37)
        ordered = FIFOScheduler().job_order(jobs, None)
        arrivals = [j.arrival_time for j in ordered]
        assert arrivals == sorted(arrivals)


class TestGandiva:
    def test_affinity_preference(self):
        cluster = Cluster.build(4, 4)
        resident = make_job(seed=38, gpus=4, job_id="resident")
        for task in resident.tasks:
            gpu = cluster.server(1).place_task(task)
            task.mark_placed(0.0, 1, gpu.gpu_id)
        incoming = make_job(seed=39, gpus=4, job_id="incoming")
        preferred = GandivaScheduler().preferred_servers(
            incoming, make_ctx([resident, incoming], cluster)
        )
        assert 1 in preferred

    def test_migrates_off_hot_gpu(self):
        cluster = Cluster.build(2, 4)
        jobs = []
        for seed in (40, 41, 42, 43):
            job = make_job(seed=seed, job_id=f"g{seed}")
            for task in job.tasks:
                gpu = cluster.server(0).place_task(task, cluster.server(0).gpus[0])
                task.mark_placed(0.0, 0, 0)
            jobs.append(job)
        gpu0 = cluster.server(0).gpus[0]
        if gpu0.utilization <= 0.9:
            pytest.skip("GPU not hot in this draw")
        decision = GandivaScheduler().on_schedule(make_ctx(jobs, cluster))
        assert decision.migrations


class TestTiresias:
    def test_attained_service_lowers_priority(self):
        scheduler = TiresiasScheduler()
        cluster = Cluster.build(4, 4)
        fresh = make_job(seed=44, job_id="fresh")
        served = make_job(seed=45, job_id="served")
        served.estimated_duration = 3600.0 * 100
        served.max_iterations = 100
        for task in served.tasks:
            gpu = cluster.server(0).place_task(task)
            task.mark_placed(0.0, 0, gpu.gpu_id)
        # A pass at t=0 opens the running job's service stint; 60 hours
        # later its attained GPU-time dominates the fresh job's zero.
        scheduler.begin_pass(make_ctx([fresh, served], cluster, now=0.0))
        later = make_ctx([fresh, served], cluster, now=60 * 3600.0)
        assert scheduler.attained_service(served, later.now) > 0.0
        assert scheduler.attained_service(fresh, later.now) == 0.0
        q_fresh = scheduler.queue_index(fresh, later)
        q_served = scheduler.queue_index(served, later)
        assert q_served >= q_fresh

    def test_preempts_long_served_when_waiting(self):
        scheduler = TiresiasScheduler()
        cluster = Cluster.build(2, 4)
        running = make_job(seed=46, job_id="running")
        for task in running.tasks:
            gpu = cluster.server(0).place_task(task)
            task.mark_placed(0.0, 0, gpu.gpu_id)
        running.estimated_duration = 3600.0 * 50
        scheduler.begin_pass(make_ctx([running], cluster, now=0.0))
        waiting = make_job(seed=47, job_id="waiting")
        for task in waiting.tasks:
            task.mark_queued(0.0)
        ctx = make_ctx([running, waiting], cluster, now=80 * 3600.0)
        victims = scheduler.preemptions(ctx)
        assert running in victims

    def test_stint_closes_on_eviction_and_completion(self):
        scheduler = TiresiasScheduler()
        cluster = Cluster.build(2, 4)
        job = make_job(seed=46, job_id="stint")
        for task in job.tasks:
            gpu = cluster.server(0).place_task(task)
            task.mark_placed(0.0, 0, gpu.gpu_id)
        scheduler.begin_pass(make_ctx([job], cluster, now=0.0))
        banked_at_close = 100.0 * job.gpus_requested
        scheduler._close_stint(job, 100.0)
        # Attained service freezes once the stint is closed.
        assert scheduler.attained_service(job, 500.0) == banked_at_close
        scheduler.on_job_complete(job, 600.0)
        assert scheduler.attained_service(job, 700.0) == 0.0


class TestSLAQ:
    def test_quality_score_decreases_with_progress(self):
        scheduler = SLAQScheduler()
        cluster = Cluster.build(2, 4)
        job = make_job(seed=48, iterations=50)
        ctx = make_ctx([job], cluster)
        early = scheduler.quality_score(job, ctx)
        job.iterations_completed = 40
        late = scheduler.quality_score(job, ctx)
        assert late < early

    def test_finished_job_scores_zero(self):
        scheduler = SLAQScheduler()
        cluster = Cluster.build(2, 4)
        job = make_job(seed=48, iterations=10)
        job.iterations_completed = 10
        assert scheduler.quality_score(job, make_ctx([job], cluster)) == 0.0


class TestFair:
    def test_fair_share(self):
        scheduler = FairScheduler()
        cluster = Cluster.build(4, 4)
        jobs = [make_job(seed=s, job_id=f"f{s}") for s in (49, 50)]
        ctx = make_ctx(jobs, cluster)
        assert scheduler.fair_share(ctx) == pytest.approx(16.0 / 2)

    def test_under_served_first(self):
        scheduler = FairScheduler()
        cluster = Cluster.build(4, 4)
        hog = make_job(seed=51, job_id="hog")
        for task in hog.tasks:
            gpu = cluster.server(0).place_task(task)
            task.mark_placed(0.0, 0, gpu.gpu_id)
        newcomer = make_job(seed=52, job_id="new")
        ordered = scheduler.job_order([hog, newcomer], make_ctx([hog, newcomer], cluster))
        assert ordered[0].job_id == "new"


class TestGraphene:
    def test_troublesome_tasks_first(self):
        scheduler = GrapheneScheduler()
        cluster = Cluster.build(4, 4)
        job = make_job(seed=53, model="alexnet", gpus=4)
        for task in job.tasks:
            task.mark_queued(0.0)
        scheduler.job_order([job], make_ctx([job], cluster))
        scores = [scheduler._troublesomeness(t) for t in job.tasks]
        assert scores == sorted(scores, reverse=True)

    def test_score_prefers_short_jobs(self):
        scheduler = GrapheneScheduler()
        cluster = Cluster.build(4, 4)
        short = make_job(seed=54, iterations=5, job_id="short")
        long = make_job(seed=54, iterations=200, job_id="long")
        ctx = make_ctx([short, long], cluster)
        assert scheduler.job_score(short, ctx) > scheduler.job_score(long, ctx)


class TestHyperSched:
    def test_gain_zero_past_deadline(self):
        scheduler = HyperSchedScheduler()
        cluster = Cluster.build(2, 4)
        job = make_job(seed=55)
        ctx = make_ctx([job], cluster, now=job.deadline + 1.0)
        assert scheduler.accuracy_gain_before_deadline(job, ctx) == 0.0

    def test_never_pauses_deadline_critical(self):
        scheduler = HyperSchedScheduler(pause_gain_threshold=1.0)  # pause-everything
        cluster = Cluster.build(2, 4)
        running = make_job(seed=56, iterations=100, job_id="crit")
        for task in running.tasks:
            gpu = cluster.server(0).place_task(task)
            task.mark_placed(0.0, 0, gpu.gpu_id)
        running.iterations_completed = 50
        waiting = make_job(seed=57, job_id="waiting")
        for task in waiting.tasks:
            task.mark_queued(0.0)
        # Critical: deadline imminent relative to remaining time.
        running.deadline = 1.0
        ctx = make_ctx([running, waiting], cluster)
        assert running not in scheduler.preemptions(ctx)


class TestRLBaseline:
    def test_accepts_trained_policy(self):
        policy = ScoringPolicy(feature_size=FEATURE_SIZE, seed=4)
        assert run_small(RLScheduler(policy), seed=58).summary()["jobs"] == 12

    def test_rejects_bad_feature_size(self):
        with pytest.raises(ValueError):
            RLScheduler(ScoringPolicy(feature_size=2, seed=4))

    def test_waiting_jobs_helper(self):
        cluster = Cluster.build(2, 4)
        job = make_job(seed=59)
        for task in job.tasks:
            task.mark_queued(0.0)
        ctx = make_ctx([job], cluster)
        assert waiting_jobs(ctx) == [job]
