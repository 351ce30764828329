"""Unit tests for GPU, Server and Cluster accounting."""

import pytest

from repro.cluster import (
    DEFAULT_SERVER_CAPACITY,
    Cluster,
    GPU,
    ResourceVector,
    Server,
    mean_utilization,
)
from repro.cluster.cluster import capacity_bounds, demand_bounds, infeasible_reason
from repro.sim.shadow import ShadowCluster
from tests.conftest import make_job


def worker_task(job, index=0):
    """A non-PS task of a job."""
    workers = [t for t in job.tasks if not t.is_parameter_server]
    return workers[index]


class TestGPU:
    def test_empty_gpu_has_zero_load(self):
        gpu = GPU(gpu_id=0)
        assert gpu.load == 0.0
        assert gpu.utilization == 0.0
        assert gpu.task_count == 0

    def test_add_remove_task_roundtrip(self):
        gpu = GPU(gpu_id=0)
        job = make_job(seed=1)
        task = worker_task(job)
        gpu.add_task(task)
        assert gpu.load == pytest.approx(task.true_demand.gpu)
        assert gpu.task_count == 1
        gpu.remove_task(task)
        assert gpu.load == 0.0
        assert gpu.task_count == 0

    def test_double_add_raises(self):
        gpu = GPU(gpu_id=0)
        task = worker_task(make_job(seed=1))
        gpu.add_task(task)
        with pytest.raises(ValueError):
            gpu.add_task(task)

    def test_remove_missing_raises(self):
        gpu = GPU(gpu_id=0)
        with pytest.raises(KeyError):
            gpu.remove_task(worker_task(make_job(seed=1)))

    def test_would_overload(self):
        # Two whole devices: 0.95 fits the server (0.475) but not a device.
        capacity = ResourceVector(gpu=2.0, cpu=32.0, mem=244.0, bw=1250.0)
        server = Server(server_id=0, capacity=capacity, num_gpus=2)
        shadow = ShadowCluster(Cluster(servers=[server]))
        assert not shadow.would_overload(server, ResourceVector(gpu=0.5), 0.9, gpu_id=1)
        assert shadow.would_overload(server, ResourceVector(gpu=0.95), 0.9, gpu_id=1)

    def test_zero_capacity_gpu(self):
        gpu = GPU(gpu_id=0, capacity=0.0)
        assert gpu.utilization == 0.0
        server = Server(server_id=0, capacity=ResourceVector(0.0, 8, 8, 8), gpus=[gpu], num_gpus=1)
        shadow = ShadowCluster(Cluster(servers=[server]))
        assert shadow.would_overload(server, ResourceVector(gpu=0.01), threshold=0.9)


class TestServer:
    def test_default_has_four_gpus(self, single_server):
        assert single_server.num_gpus == 4
        assert len(single_server.gpus) == 4
        assert single_server.capacity == DEFAULT_SERVER_CAPACITY

    def test_place_updates_load_and_gpu(self, single_server):
        task = worker_task(make_job(seed=2))
        gpu = single_server.place_task(task)
        assert single_server.task_count == 1
        assert single_server.load.gpu == pytest.approx(task.true_demand.gpu)
        assert gpu.task_count == 1

    def test_place_prefers_least_loaded_gpu(self, single_server):
        job = make_job(seed=2, gpus=4)
        landed = [single_server.place_task(t).gpu_id for t in job.tasks[:4]]
        # Four similar tasks should spread over distinct GPUs.
        assert len(set(landed)) == 4

    def test_remove_restores_load(self, single_server):
        task = worker_task(make_job(seed=2))
        single_server.place_task(task)
        task.server_id = 0
        task.gpu_id = 0
        single_server.remove_task(task)
        assert single_server.task_count == 0
        assert single_server.load.norm() == pytest.approx(0.0, abs=1e-9)

    def test_remove_unknown_raises(self, single_server):
        with pytest.raises(KeyError):
            single_server.remove_task(worker_task(make_job(seed=2)))

    def test_double_place_raises(self, single_server):
        task = worker_task(make_job(seed=2))
        single_server.place_task(task)
        with pytest.raises(ValueError):
            single_server.place_task(task)

    def test_utilization_vector(self, single_server):
        task = worker_task(make_job(seed=2))
        single_server.place_task(task)
        util = single_server.utilization()
        expected = task.true_demand.divide_by(single_server.capacity)
        assert util.gpu == pytest.approx(expected.gpu)
        assert util.cpu == pytest.approx(expected.cpu)

    def test_overload_degree_is_norm(self, single_server):
        task = worker_task(make_job(seed=2))
        single_server.place_task(task)
        cluster = Cluster(servers=[single_server])
        assert cluster.overload_degree() == pytest.approx(
            single_server.utilization().norm()
        )

    def test_is_overloaded_small_capacity(self, tight_capacity):
        server = Server(server_id=0, capacity=tight_capacity, num_gpus=1)
        cluster = Cluster(servers=[server])
        job = make_job(seed=2)
        for task in job.tasks[:3]:
            server.place_task(task)
        assert cluster.overloaded_servers(0.9) == [server]

    def test_would_overload_checks_gpu_too(self):
        server = Server(server_id=0)
        shadow = ShadowCluster(Cluster(servers=[server]))
        heavy = ResourceVector(gpu=0.95, cpu=1, mem=1, bw=1)
        assert shadow.would_overload(server, heavy, threshold=0.9)
        light = ResourceVector(gpu=0.5, cpu=1, mem=1, bw=1)
        assert not shadow.would_overload(server, light, threshold=0.9)

    def test_least_loaded_gpu_no_gpus_raises(self):
        server = Server(server_id=0, num_gpus=0, capacity=ResourceVector(0, 8, 8, 8))
        with pytest.raises(RuntimeError):
            server.least_loaded_gpu()


class TestCluster:
    def test_build_shapes(self):
        cluster = Cluster.build(3, 2)
        assert len(cluster) == 3
        assert cluster.total_gpus == 6
        assert all(s.num_gpus == 2 for s in cluster)

    def test_total_capacity(self, small_cluster):
        total = small_cluster.total_capacity()
        assert total.gpu == pytest.approx(16.0)
        assert total.cpu == pytest.approx(4 * 32.0)

    def test_server_lookup(self, small_cluster):
        assert small_cluster.server(2).server_id == 2

    def test_overload_partition(self, small_cluster):
        over = small_cluster.overloaded_servers(0.9)
        under = small_cluster.underloaded_servers(0.9)
        assert len(over) + len(under) == len(small_cluster)

    def test_overload_degree_empty_cluster(self):
        assert Cluster(servers=[]).overload_degree() == 0.0

    def test_is_overloaded_queue_rule(self, small_cluster):
        # Empty cluster, but a non-empty queue flags overload (MLF-C).
        assert small_cluster.is_overloaded(0.9, queue_nonempty=True)
        assert not small_cluster.is_overloaded(0.9, queue_nonempty=False)

    def test_running_tasks_and_find(self, small_cluster):
        job = make_job(seed=4)
        task = worker_task(job)
        small_cluster.server(1).place_task(task)
        assert len(small_cluster.running_tasks()) == 1
        found = small_cluster.find_task_server(task.task_id)
        assert found is not None and found.server_id == 1
        assert small_cluster.find_task_server("nope") is None

    def test_mean_utilization(self, small_cluster):
        job = make_job(seed=4)
        small_cluster.server(0).place_task(worker_task(job))
        mean = mean_utilization(small_cluster.servers)
        assert 0.0 < mean.gpu < 1.0 or mean.cpu > 0.0

    def test_mean_utilization_empty(self):
        assert mean_utilization([]).norm() == 0.0

    def test_cluster_utilization_length(self, small_cluster):
        assert len(small_cluster.cluster_utilization()) == 4


def need(job):
    return demand_bounds(task.demand for task in job.tasks)


class TestFeasibility:
    def test_fitting_job_is_feasible(self):
        capacity = capacity_bounds(Cluster.build(4, 4))
        assert infeasible_reason(need(make_job(gpus=4)), capacity, 0.9) is None

    def test_summed_demand_over_total_capacity(self):
        capacity = capacity_bounds(Cluster.build(4, 4))
        job = make_job(gpus=32, model="svm")  # 32 tasks x 4 cores
        assert infeasible_reason(need(job), capacity, 0.9) == (
            "infeasible: cpu 128.0 > 115.2"
        )

    def test_one_task_over_the_largest_server(self):
        capacity = capacity_bounds(Cluster.build(4, 4))
        one_task = demand_bounds([ResourceVector(cpu=30.0)])
        assert infeasible_reason(one_task, capacity, 0.9) == (
            "infeasible: one task's cpu 30.0 > 28.8"
        )

    def test_failed_servers_still_count(self):
        cluster = Cluster.build(4, 4)
        healthy = capacity_bounds(cluster)
        for server in cluster.servers[1:]:
            server.failed = True
        assert capacity_bounds(cluster) == healthy
        # Needs more than the one live server: it must wait, not be rejected.
        job = make_job(gpus=16, model="svm")
        assert infeasible_reason(need(job), healthy, 0.9) is None
