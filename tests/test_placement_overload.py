"""Unit tests for RIAL placement and migration-task selection."""

import pytest

from repro.cluster import Cluster, ResourceVector
from repro.core import MLFSConfig, MigrationSelector, PlacementEngine, TaskCommIndex
from repro.core.priority import PriorityCalculator
from repro.sim.shadow import ShadowCluster
from tests.conftest import make_job


def fill_server(cluster, server_id, seeds):
    """Place whole jobs on one server; returns the placed jobs."""
    jobs = []
    for seed in seeds:
        job = make_job(seed=seed, job_id=f"fill{server_id}_{seed}")
        for task in job.tasks:
            gpu = cluster.server(server_id).place_task(task)
            task.mark_placed(0.0, server_id, gpu.gpu_id)
        jobs.append(job)
    return jobs


class TestPlacementEngine:
    def test_selects_some_underloaded_server(self, small_cluster):
        engine = PlacementEngine(config=MLFSConfig())
        shadow = ShadowCluster(small_cluster)
        task = make_job(seed=1).tasks[0]
        choice = engine.select_host(task, shadow)
        assert choice is not None
        assert 0 <= choice.server_id < 4

    def test_no_candidates_returns_none(self):
        cluster = Cluster.build(1, 1)
        engine = PlacementEngine(config=MLFSConfig())
        shadow = ShadowCluster(cluster)
        # Saturate the only GPU.
        shadow._add(0, 0, ResourceVector(gpu=0.89, cpu=0, mem=0, bw=0))
        task = make_job(seed=2).tasks[0]
        assert engine.select_host(task, shadow) is None

    def test_prefers_less_loaded_server(self, small_cluster):
        fill_server(small_cluster, 0, seeds=[3, 4])
        engine = PlacementEngine(
            config=MLFSConfig(use_bandwidth=False)
        )
        shadow = ShadowCluster(small_cluster)
        task = make_job(seed=5).tasks[0]
        choice = engine.select_host(task, shadow)
        assert choice is not None
        assert choice.server_id != 0

    def test_bandwidth_pulls_task_to_peers(self, small_cluster):
        # Place all of a job's tasks but one on server 2; with the BW
        # term on, the last task should co-locate despite the load.
        job = make_job(seed=6, gpus=4)
        tasks = job.tasks
        for task in tasks[:-1]:
            gpu = small_cluster.server(2).place_task(task)
            task.mark_placed(0.0, 2, gpu.gpu_id)
        engine = PlacementEngine(config=MLFSConfig(use_bandwidth=True))
        shadow = ShadowCluster(small_cluster)
        choice = engine.select_host(tasks[-1], shadow)
        assert choice is not None and choice.server_id == 2

    def test_bandwidth_ablation_changes_behaviour(self, small_cluster):
        job = make_job(seed=6, gpus=4)
        for task in job.tasks[:-1]:
            gpu = small_cluster.server(2).place_task(task)
            task.mark_placed(0.0, 2, gpu.gpu_id)
        engine = PlacementEngine(config=MLFSConfig(use_bandwidth=False))
        shadow = ShadowCluster(small_cluster)
        choice = engine.select_host(job.tasks[-1], shadow)
        # Without the BW term the loaded server 2 is no longer closest
        # to the ideal (its utilizations exceed the min).
        assert choice is not None and choice.server_id != 2

    def test_gpu_is_least_loaded(self, small_cluster):
        engine = PlacementEngine(config=MLFSConfig())
        shadow = ShadowCluster(small_cluster)
        shadow._add(0, 0, ResourceVector(gpu=0.5, cpu=0, mem=0, bw=0))
        task = make_job(seed=7).tasks[0]
        choice = engine.select_host(task, shadow)
        if choice is not None and choice.server_id == 0:
            assert choice.gpu_id != 0


class TestTaskCommIndex:
    def test_volumes_by_server(self, small_cluster):
        index = TaskCommIndex()
        job = make_job(seed=8, gpus=4)
        shadow = ShadowCluster(small_cluster)
        for task in job.tasks[1:]:
            gpu = small_cluster.server(1).place_task(task)
            task.mark_placed(0.0, 1, gpu.gpu_id)
        volumes = index.volumes_by_server(job.tasks[0], shadow)
        # Only the peers' host appears; every other server has volume 0.
        assert set(volumes) == {1}
        assert volumes[1] > 0.0

    def test_forget(self, small_cluster):
        index = TaskCommIndex()
        job = make_job(seed=8)
        shadow = ShadowCluster(small_cluster)
        index.volumes_by_server(job.tasks[0], shadow)
        assert job.job_id in index._indexed_jobs
        index.forget(job)
        assert job.job_id not in index._indexed_jobs


class TestMigrationSelector:
    def overload_one_server(self):
        cluster = Cluster.build(2, 4)
        jobs = fill_server(cluster, 0, seeds=[11, 12, 13, 14])
        return cluster, jobs

    def test_selects_until_not_overloaded(self):
        cluster, jobs = self.overload_one_server()
        server = cluster.server(0)
        config = MLFSConfig()
        if server not in cluster.overloaded_servers(config.overload_threshold):
            pytest.skip("workload draw did not overload the server")
        selector = MigrationSelector(config=config)
        shadow = ShadowCluster(cluster)
        calc = PriorityCalculator(config=config)
        priorities = calc.priorities(jobs, now=0.0)
        selected = selector.select(server, shadow, priorities)
        assert selected
        assert not shadow.is_overloaded(server, config.overload_threshold)
        # Selected tasks are committed as removals in the shadow.
        assert all(shadow.task_location(t) is None for t in selected)

    def test_respects_max_tasks(self):
        cluster, jobs = self.overload_one_server()
        server = cluster.server(0)
        config = MLFSConfig()
        if server not in cluster.overloaded_servers(config.overload_threshold):
            pytest.skip("workload draw did not overload the server")
        selector = MigrationSelector(config=config)
        shadow = ShadowCluster(cluster)
        calc = PriorityCalculator(config=config)
        priorities = calc.priorities(jobs, now=0.0)
        selected = selector.select(server, shadow, priorities, max_tasks=1)
        assert len(selected) == 1

    def test_ps_rule_protects_high_priority(self):
        cluster, jobs = self.overload_one_server()
        server = cluster.server(0)
        config = MLFSConfig(migration_candidate_fraction=0.3)
        hot_gpus = [g for g in server.gpus if g.utilization > config.overload_threshold]
        if not hot_gpus:
            pytest.skip("no overloaded GPU in this draw")
        selector = MigrationSelector(config=config)
        shadow = ShadowCluster(cluster)
        calc = PriorityCalculator(config=config)
        priorities = calc.priorities(jobs, now=0.0)
        selected = selector.select(server, shadow, priorities, max_tasks=2)
        if selected:
            # Selected tasks come from the bottom of the priority order
            # among the hot GPUs' tasks.
            hot = {t.task_id for g in hot_gpus for t in g.tasks()}
            first = selected[0]
            if first.task_id in hot:
                hot_priorities = sorted(
                    priorities[tid] for tid in hot if tid in priorities
                )
                assert priorities[first.task_id] <= hot_priorities[
                    max(0, int(len(hot_priorities) * 0.5))
                ]

    def test_not_overloaded_selects_nothing(self, small_cluster):
        config = MLFSConfig()
        selector = MigrationSelector(config=config)
        shadow = ShadowCluster(small_cluster)
        selected = selector.select(small_cluster.server(0), shadow, {})
        assert selected == []
