"""Behavioural tests for MLF-H, MLF-RL, MLF-C, MLFS and the RL training
pipeline."""

import pytest

from repro.cluster import Cluster
from repro.core import (
    FEATURE_SIZE,
    MLFCController,
    MLFSConfig,
    MLFSScheduler,
    Phase,
    TrainingSetup,
    collect_imitation_data,
    make_mlf_h,
    make_mlf_rl,
    make_mlfs,
    pretrain_policy,
    reinforce_finetune,
)
from repro.core.mlf_h import completion_boosts, order_pool
from repro.rl import ScoringPolicy
from repro.sim import EngineConfig, SchedulingContext, SimulationEngine
from repro.learncurve import AccuracyPredictor, RuntimePredictor
from repro.workload import StopOption, build_jobs, generate_trace
from tests.conftest import make_job


SMALL_ENGINE = EngineConfig(max_time=3 * 24 * 3600.0)


def small_records(num_jobs=15, seed=1):
    return generate_trace(num_jobs, duration_seconds=1800.0, seed=seed)


def run_small(scheduler, num_jobs=15, seed=1, servers=4):
    """Run ``scheduler`` over a small trace on a fresh cluster; its metrics."""
    jobs = build_jobs(small_records(num_jobs, seed), seed=seed + 1)
    return SimulationEngine(scheduler, jobs, Cluster.build(servers, 4), SMALL_ENGINE).run()


def small_training(num_jobs, seed):
    """The MLF-H imitation recipe over the same small trace and cluster."""
    return TrainingSetup(
        records=small_records(num_jobs, seed),
        cluster_factory=lambda: Cluster.build(4, 4),
        config=MLFSConfig(enable_load_control=False),
        engine_config=SMALL_ENGINE,
        workload_seed=seed + 1,
    )


def make_ctx(jobs, cluster, now=0.0, queue=None):
    return SchedulingContext(
        now=now,
        cluster=cluster,
        queue=queue if queue is not None else [t for j in jobs for t in j.queued_tasks()],
        active_jobs=jobs,
        overload_threshold=0.9,
        system_overload_threshold=0.9,
        accuracy_predictor=AccuracyPredictor(noise_std=0.0),
        runtime_predictor=RuntimePredictor(cold_error_std=0.0, warm_error_std=0.0),
    )


class TestOrderingHelpers:
    def test_order_pool_groups_jobs(self):
        a = make_job(seed=1, job_id="a", gpus=4)
        b = make_job(seed=2, job_id="b", gpus=4)
        pool = a.tasks + b.tasks
        scores = {t.task_id: (2.0 if t.job_id == "b" else 1.0) for t in pool}
        ordered = order_pool(pool, scores)
        job_sequence = [t.job_id for t in ordered]
        # b's tasks first, contiguous; then a's tasks contiguous.
        switch = job_sequence.index("a")
        assert all(j == "b" for j in job_sequence[:switch])
        assert all(j == "a" for j in job_sequence[switch:])

    def test_completion_boost_only_partial(self):
        job = make_job(seed=3)
        assert completion_boosts([job]) == {}
        job.tasks[0].mark_placed(0.0, 0, 0)
        boosts = completion_boosts([job])
        assert job.job_id in boosts and boosts[job.job_id] > 1.0
        for task in job.tasks:
            if not task.is_placed:
                task.mark_placed(0.0, 0, 0)
        assert completion_boosts([job]) == {}


class TestMLFH:
    def test_simulation_completes_all_jobs(self):
        assert run_small(make_mlf_h()).summary()["jobs"] == 15

    def test_places_whole_jobs(self):
        jobs = build_jobs(generate_trace(3, duration_seconds=10.0, seed=4), seed=5)
        for job in jobs:
            for task in job.tasks:
                task.mark_queued(0.0)
        cluster = Cluster.build(6, 4)
        scheduler = make_mlf_h()
        ctx = make_ctx(jobs, cluster)
        decision = scheduler.on_schedule(ctx)
        placed_by_job = {}
        for p in decision.placements:
            placed_by_job.setdefault(p.task.job_id, 0)
            placed_by_job[p.task.job_id] += 1
        for job in jobs:
            count = placed_by_job.get(job.job_id, 0)
            assert count in (0, len(job.tasks))  # all-or-nothing

    def test_respects_overload_threshold(self):
        jobs = build_jobs(generate_trace(2, duration_seconds=10.0, seed=6), seed=7)
        for job in jobs:
            for task in job.tasks:
                task.mark_queued(0.0)
        cluster = Cluster.build(4, 4)
        scheduler = make_mlf_h()
        decision = scheduler.on_schedule(make_ctx(jobs, cluster))
        # Apply and verify no server exceeds the threshold on estimates.
        from repro.sim.shadow import ShadowCluster

        shadow = ShadowCluster(cluster)
        for p in decision.placements:
            shadow.commit_placement(p.task, p.server_id, p.gpu_id or 0)
        # Estimated (planning) load must respect h_r; the *actual* load
        # may exceed it, which is what triggers migration later.
        for server in cluster.servers:
            util = shadow.utilization(server)
            assert util.gpu <= 1.0 + 1e-6

    def test_decision_recorder_collects(self):
        buffer = collect_imitation_data(small_training(num_jobs=10, seed=8))
        assert len(buffer) > 0
        decision = next(iter(buffer))
        assert decision.features.shape[1] == FEATURE_SIZE

    def test_migration_disabled_by_config(self):
        config = MLFSConfig(enable_migration=False, enable_load_control=False)
        metrics = run_small(make_mlf_h(config), num_jobs=25, seed=9, servers=2)
        assert metrics.num_migrations == 0


class TestMLFRL:
    def test_without_policy_matches_heuristic_family(self):
        assert run_small(make_mlf_rl(), seed=10).summary()["jobs"] == 15

    def test_with_policy_runs(self):
        policy = ScoringPolicy(feature_size=FEATURE_SIZE, seed=1)
        assert run_small(make_mlf_rl(policy), seed=11).summary()["jobs"] == 15

    def test_feature_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_mlf_rl(ScoringPolicy(feature_size=3, seed=1))

    def test_explore_records_trajectory(self):
        policy = ScoringPolicy(feature_size=FEATURE_SIZE, seed=1)
        from repro.core.mlf_rl import MLFRLScheduler

        scheduler = MLFRLScheduler(
            config=MLFSConfig(enable_load_control=False),
            policy=policy,
            explore=True,
        )
        run_small(scheduler, seed=12)
        trajectory = scheduler.reset_trajectory()
        assert len(trajectory) > 0
        assert len(scheduler.trajectory) == 0


class TestMLFC:
    def test_effective_option_downgrade_ladder(self):
        controller = MLFCController(config=MLFSConfig())
        job = make_job(seed=13)
        job.allow_downgrade = True
        job.stop_option = StopOption.FIXED_ITERATIONS
        assert (
            controller.effective_option(job, overloaded=True)
            is StopOption.OPT_STOP
        )
        job.stop_option = StopOption.OPT_STOP
        assert (
            controller.effective_option(job, overloaded=True)
            is StopOption.ACCURACY_ONLY
        )
        job.stop_option = StopOption.ACCURACY_ONLY
        assert (
            controller.effective_option(job, overloaded=True)
            is StopOption.ACCURACY_ONLY
        )

    def test_no_downgrade_without_permission(self):
        controller = MLFCController(config=MLFSConfig())
        job = make_job(seed=13)
        job.allow_downgrade = False
        job.stop_option = StopOption.FIXED_ITERATIONS
        assert (
            controller.effective_option(job, overloaded=True)
            is StopOption.FIXED_ITERATIONS
        )

    def test_not_overloaded_keeps_user_choice(self):
        controller = MLFCController(config=MLFSConfig())
        job = make_job(seed=13)
        job.stop_option = StopOption.OPT_STOP
        assert (
            controller.effective_option(job, overloaded=False)
            is StopOption.OPT_STOP
        )

    def test_stops_job_that_met_requirement(self):
        controller = MLFCController(config=MLFSConfig())
        cluster = Cluster.build(2, 4)
        job = make_job(seed=14, iterations=50)
        job.stop_option = StopOption.ACCURACY_ONLY
        job.effective_stop_option = StopOption.ACCURACY_ONLY
        job.accuracy_requirement = job.accuracy_at(5)
        job.iterations_completed = 10
        ctx = make_ctx([job], cluster, queue=[])
        stops = controller.apply(ctx)
        assert [s.job.job_id for s in stops] == [job.job_id]

    def test_disabled_controller_never_stops(self):
        controller = MLFCController(
            config=MLFSConfig(enable_load_control=False)
        )
        cluster = Cluster.build(2, 4)
        job = make_job(seed=14, iterations=50)
        job.iterations_completed = 45
        ctx = make_ctx([job], cluster, queue=[])
        assert controller.apply(ctx) == []

    def test_backlog_predicate_ignores_fresh_tasks(self):
        controller = MLFCController(config=MLFSConfig(), queue_wait_threshold=300.0)
        cluster = Cluster.build(4, 4)
        job = make_job(seed=15)
        for task in job.tasks:
            task.mark_queued(0.0)
        # Fresh queue at t=0: not overloaded.
        assert not controller.system_overloaded(make_ctx([job], cluster, now=0.0))
        # Same queue after 10 minutes: genuine backlog.
        assert controller.system_overloaded(make_ctx([job], cluster, now=600.0))


class TestMLFS:
    def test_full_system_runs(self):
        assert run_small(make_mlfs(), seed=16).summary()["jobs"] == 15

    def test_starts_in_rl_phase_with_policy(self):
        policy = ScoringPolicy(feature_size=FEATURE_SIZE, seed=2)
        scheduler = make_mlfs(policy)
        assert scheduler.phase is Phase.RL

    def test_starts_heuristic_without_policy(self):
        scheduler = make_mlfs()
        assert scheduler.phase is Phase.HEURISTIC

    def test_auto_switch_after_enough_decisions(self):
        config = MLFSConfig(rl_switch_decisions=50)
        scheduler = MLFSScheduler(config=config)
        run_small(scheduler, num_jobs=30, seed=17, servers=3)
        assert len(scheduler.imitation_buffer) >= 50
        assert scheduler.phase is Phase.RL

    def test_mlfs_stops_jobs_early_under_overload(self):
        metrics = run_small(make_mlfs(), num_jobs=40, seed=18, servers=2)
        stopped = [r for r in metrics.job_records if r.stopped_early]
        assert stopped  # MLF-C fired


class TestTrainingPipeline:
    def test_pretrain_reaches_agreement(self):
        buffer = collect_imitation_data(small_training(num_jobs=20, seed=19))
        policy, stats = pretrain_policy(buffer, epochs=2)
        assert stats["agreement"] > 0.5
        assert policy.feature_size == FEATURE_SIZE

    def test_reinforce_finetune_runs(self):
        policy = ScoringPolicy(feature_size=FEATURE_SIZE, seed=3)
        history = reinforce_finetune(
            policy, small_training(num_jobs=8, seed=20), episodes=2
        )
        assert len(history) == 2
