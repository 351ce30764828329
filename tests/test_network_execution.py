"""Unit tests for the communication and iteration-execution models."""

import pytest

from repro.cluster import Cluster
from repro.sim import (
    ExecutionModel,
    iteration_comm,
    job_links,
    migration_volume_mb,
    pairwise_cross_volume,
)
from tests.conftest import make_job


def place_all(job, cluster, spread=False):
    """Place every task of a job on server 0, or round-robin if spread."""
    for i, task in enumerate(job.tasks):
        server = cluster.server(i % len(cluster.servers) if spread else 0)
        gpu = server.place_task(task)
        task.mark_placed(0.0, server.server_id, gpu.gpu_id)


class TestLinks:
    def test_links_cover_dag_and_sync(self, simple_job):
        links = job_links(simple_job)
        expected = len(simple_job.dag.edges) + len(simple_job.sync_links)
        assert len(links) == expected

    def test_link_volumes_positive(self, simple_job):
        assert all(l.volume_mb > 0 for l in job_links(simple_job))


class TestIterationComm:
    def test_colocated_job_has_zero_cost(self, small_cluster):
        job = make_job(seed=21)
        place_all(job, small_cluster, spread=False)
        comm = iteration_comm(job, small_cluster)
        assert comm.cross_server_mb == 0.0
        assert comm.seconds == 0.0

    def test_spread_job_pays_bandwidth(self, small_cluster):
        job = make_job(seed=21, gpus=8)
        place_all(job, small_cluster, spread=True)
        comm = iteration_comm(job, small_cluster)
        assert comm.cross_server_mb > 0.0
        assert comm.seconds > 0.0

    def test_comm_scales_with_rounds(self, small_cluster):
        job = make_job(seed=21, gpus=8)
        place_all(job, small_cluster, spread=True)
        comm = iteration_comm(job, small_cluster)
        raw = sum(
            l.volume_mb
            for l in job_links(job)
            if l.src.server_id != l.dst.server_id
        )
        assert comm.cross_server_mb == pytest.approx(
            raw * job.model.comm_rounds_per_iteration
        )

    def test_unplaced_task_raises(self, small_cluster):
        job = make_job(seed=21)
        with pytest.raises(ValueError):
            iteration_comm(job, small_cluster)

    def test_migration_volume_reflects_partition(self, simple_job):
        workers = [t for t in simple_job.tasks if not t.is_parameter_server]
        volume = migration_volume_mb(workers[0])
        assert volume == pytest.approx(workers[0].partition_params_m * 4.0 + 8.0)

    def test_pairwise_cross_volume(self, small_cluster):
        job = make_job(seed=22, gpus=4)
        place_all(job, small_cluster, spread=True)
        task = job.tasks[0]
        same = pairwise_cross_volume(job, task, task.server_id)
        other = pairwise_cross_volume(job, task, 99)
        assert other >= same


class TestExecutionModel:
    def test_iteration_duration_includes_compute(self, small_cluster):
        model = ExecutionModel()
        job = make_job(seed=23)
        place_all(job, small_cluster)
        duration, cross = model.iteration_duration(job, small_cluster)
        assert duration > 0.0
        assert cross == 0.0  # co-located

    def test_contention_slows_iterations(self):
        model = ExecutionModel()
        cluster_a, cluster_b = Cluster.build(4, 4), Cluster.build(4, 4)
        job_a = make_job(seed=24)
        place_all(job_a, cluster_a)
        alone, _ = model.iteration_duration(job_a, cluster_a)

        # Same job under co-located contention from two other jobs.
        model_b = ExecutionModel()
        job_b = make_job(seed=24)
        for seed in (31, 32, 33):
            other = make_job(seed=seed, job_id=f"noise{seed}")
            place_all(other, cluster_b)
        place_all(job_b, cluster_b)
        contended, _ = model_b.iteration_duration(job_b, cluster_b)
        assert contended >= alone

    def test_slowdown_at_least_one(self, small_cluster):
        model = ExecutionModel()
        job = make_job(seed=25)
        place_all(job, small_cluster)
        for task in job.tasks:
            assert model.task_slowdown(task, small_cluster) >= 1.0

    def test_unplaced_slowdown_raises(self, small_cluster):
        model = ExecutionModel()
        job = make_job(seed=25)
        with pytest.raises(ValueError):
            model.task_slowdown(job.tasks[0], small_cluster)

    def test_critical_path_at_least_max_task(self, small_cluster):
        model = ExecutionModel()
        job = make_job(seed=26)
        place_all(job, small_cluster)
        path = model.compute_critical_path(job, small_cluster)
        longest_task = max(t.compute_seconds for t in job.tasks)
        assert path >= longest_task - 1e-9

    def test_straggler_injection(self, small_cluster):
        model = ExecutionModel(straggler_probability=1.0, straggler_slowdown=3.0)
        clean = ExecutionModel()
        job = make_job(seed=27)
        place_all(job, small_cluster)
        slow, _ = model.iteration_duration(job, small_cluster, straggler_draw=0.5)
        fast, _ = clean.iteration_duration(job, small_cluster, straggler_draw=0.5)
        assert slow == pytest.approx(3.0 * fast)

    def test_caches_forgotten(self, small_cluster):
        model = ExecutionModel()
        job = make_job(seed=28)
        place_all(job, small_cluster)
        model.iteration_duration(job, small_cluster)
        assert job.job_id in model._links_cache
        assert job.job_id in model._duration_cache
        model.forget(job)
        assert job.job_id not in model._links_cache
        assert job.job_id not in model._duration_cache
