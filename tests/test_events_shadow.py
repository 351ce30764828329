"""Unit tests for the event queue and shadow-cluster accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ResourceVector
from repro.sim import Event, EventKind, EventQueue
from repro.sim.shadow import ShadowCluster
from tests.conftest import make_job


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(Event(5.0, EventKind.SCHEDULE_TICK))
        queue.push(Event(1.0, EventKind.SCHEDULE_TICK))
        queue.push(Event(3.0, EventKind.SCHEDULE_TICK))
        times = [queue.pop().time for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_fifo_for_equal_times(self):
        queue = EventQueue()
        queue.push(Event(1.0, EventKind.JOB_ARRIVAL, "first"))
        queue.push(Event(1.0, EventKind.SCHEDULE_TICK, "second"))
        assert queue.pop().payload == "first"
        assert queue.pop().payload == "second"

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            EventQueue().push(Event(-1.0, EventKind.SCHEDULE_TICK))

    def test_peek_and_len(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        assert not queue
        queue.push(Event(2.0, EventKind.SCHEDULE_TICK))
        assert queue.peek_time() == 2.0
        assert len(queue) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_pops_sorted(self, times):
        queue = EventQueue()
        for t in times:
            queue.push(Event(t, EventKind.SCHEDULE_TICK))
        popped = [queue.pop().time for _ in range(len(times))]
        assert popped == sorted(times)


class TestShadowCluster:
    def placed_task(self, cluster, seed=1, server_id=0):
        job = make_job(seed=seed)
        task = next(t for t in job.tasks if not t.is_parameter_server)
        gpu = cluster.server(server_id).place_task(task)
        task.mark_placed(0.0, server_id, gpu.gpu_id)
        return task

    def test_reads_through_real_load(self, small_cluster):
        task = self.placed_task(small_cluster)
        shadow = ShadowCluster(small_cluster)
        server = small_cluster.server(0)
        assert shadow.server_load(server).gpu == pytest.approx(server.load.gpu)

    def test_commit_placement_adds_demand(self, small_cluster):
        job = make_job(seed=2)
        task = job.tasks[0]
        shadow = ShadowCluster(small_cluster)
        server = small_cluster.server(1)
        before = shadow.utilization(server).gpu
        shadow.commit_placement(task, 1, 0)
        assert shadow.utilization(server).gpu > before
        # The real cluster is untouched.
        assert server.load.gpu == 0.0

    def test_commit_removal_subtracts(self, small_cluster):
        task = self.placed_task(small_cluster, seed=3)
        shadow = ShadowCluster(small_cluster)
        server = small_cluster.server(0)
        shadow.commit_removal(task)
        assert shadow.server_load(server).gpu <= server.load.gpu
        assert shadow.task_location(task) is None

    def test_commit_removal_unplaced_raises(self, small_cluster):
        job = make_job(seed=4)
        shadow = ShadowCluster(small_cluster)
        with pytest.raises(ValueError):
            shadow.commit_removal(job.tasks[0])

    def test_commit_migration_moves_location(self, small_cluster):
        task = self.placed_task(small_cluster, seed=5)
        shadow = ShadowCluster(small_cluster)
        shadow.commit_migration(task, 2, 0)
        assert shadow.task_location(task) == 2
        # Real task placement unchanged until the engine applies it.
        assert task.server_id == 0

    def test_would_overload_includes_tentative(self, small_cluster):
        shadow = ShadowCluster(small_cluster)
        server = small_cluster.server(0)
        heavy = ResourceVector(gpu=0.5, cpu=1, mem=1, bw=1)
        job = make_job(seed=6)
        task = job.tasks[0]
        object.__setattr__(task, "demand", heavy) if False else None
        # Fill GPU 0..3 via commits until adding 0.5 would overload.
        for gpu_id in range(4):
            shadow._add(0, gpu_id, ResourceVector(gpu=0.6, cpu=0, mem=0, bw=0))
        assert shadow.would_overload(server, heavy, threshold=0.9)

    def test_least_loaded_gpu_shadow_aware(self, small_cluster):
        shadow = ShadowCluster(small_cluster)
        server = small_cluster.server(0)
        shadow._add(0, 0, ResourceVector(gpu=0.5, cpu=0, mem=0, bw=0))
        assert shadow.least_loaded_gpu(server) != 0

    def test_least_gpu_utilization_is_the_least_loaded_gpus(self, small_cluster):
        shadow = ShadowCluster(small_cluster)
        server = small_cluster.server(0)
        for gpu_id, load in enumerate((0.4, 0.2, 0.7, 0.2)):
            shadow._add(0, gpu_id, ResourceVector(gpu=load))

        def oracle():
            return shadow.gpu_utilization(server, shadow.least_loaded_gpu(server))

        assert shadow.least_gpu_utilization(server) == oracle() == 0.2
        server.gpus[1].failed = True
        server.gpus[3].failed = True
        assert shadow.least_gpu_utilization(server) == oracle() == 0.4
        for gpu in server.gpus:
            gpu.failed = True  # every device lost: the least of them all
        assert shadow.least_gpu_utilization(server) == oracle() == 0.2

    def test_is_overloaded_shadow_aware(self, small_cluster):
        shadow = ShadowCluster(small_cluster)
        for gpu_id in range(4):
            shadow._add(3, gpu_id, ResourceVector(gpu=0.95, cpu=0, mem=0, bw=0))
        overloaded = [s.server_id for s in small_cluster if shadow.is_overloaded(s, 0.9)]
        assert overloaded == [3]
        assert small_cluster.overloaded_servers(0.9) == []  # live view untouched

    def test_place_all_commits_each_choice_before_the_next(self, small_cluster):
        shadow = ShadowCluster(small_cluster)
        job = make_job(seed=7)
        seen = []

        def choose(task):
            seen.append(shadow.server_load(small_cluster.server(0)).gpu)
            return 0, 0

        placements = shadow.place_all(job.tasks, choose)
        assert [(p.task, p.server_id, p.gpu_id) for p in placements] == [
            (t, 0, 0) for t in job.tasks
        ]
        assert seen == sorted(seen) and seen[-1] > seen[0]
        assert all(shadow.task_location(t) == 0 for t in job.tasks)

    def test_place_all_rolls_back_on_first_miss(self, small_cluster):
        shadow = ShadowCluster(small_cluster)
        job = make_job(seed=7)
        earlier = make_job(seed=8, job_id="j1").tasks[0]
        shadow.commit_placement(earlier, 1, 0)
        before = (
            dict(shadow._server_delta),
            dict(shadow._gpu_delta),
            dict(shadow._locations),
        )
        calls = []

        def choose(task):
            calls.append(task)
            return (0, 0) if len(calls) == 1 else None

        assert shadow.place_all(job.tasks, choose) is None
        assert calls == job.tasks[:2]  # stops at the first miss
        assert (shadow._server_delta, shadow._gpu_delta, shadow._locations) == before
        assert shadow.task_location(job.tasks[0]) is None
        assert shadow.task_location(earlier) == 1
        server = small_cluster.server(0)
        assert shadow.server_load(server).gpu == pytest.approx(server.load.gpu)

    def test_overload_degree_matches_norm(self, small_cluster):
        shadow = ShadowCluster(small_cluster)
        server = small_cluster.server(0)
        assert shadow.overload_degree(server) == pytest.approx(
            shadow.utilization(server).norm()
        )


class TestShadowEdgeCases:
    """Corner cases of tentative accounting within one scheduler round."""

    def unplaced_task(self, seed=1):
        job = make_job(seed=seed)
        return next(t for t in job.tasks if not t.is_parameter_server)

    def test_migrate_task_placed_earlier_this_round(self, small_cluster):
        # A task tentatively placed this round is migrated before the
        # decision is ever applied: the removal must charge the shadow
        # location, not the (nonexistent) real one.
        shadow = ShadowCluster(small_cluster)
        task = self.unplaced_task()
        shadow.commit_placement(task, 0, 0)
        shadow.commit_migration(task, 1, 0)
        src, dst = small_cluster.server(0), small_cluster.server(1)
        assert shadow.task_location(task) == 1
        # Source deltas net to zero; destination carries the demand.
        assert shadow.server_load(src).gpu == pytest.approx(src.load.gpu)
        assert shadow.gpu_load(src, 0) == pytest.approx(src.gpus[0].load)
        assert shadow.server_load(dst).gpu == pytest.approx(
            dst.load.gpu + task.demand.gpu
        )

    def test_evict_then_replace_same_round(self, small_cluster):
        # Eviction and re-placement of the same task within one round:
        # the old server sheds the load, the new one gains it.
        job = make_job(seed=2)
        task = next(t for t in job.tasks if not t.is_parameter_server)
        gpu = small_cluster.server(0).place_task(task)
        task.mark_placed(0.0, 0, gpu.gpu_id)
        shadow = ShadowCluster(small_cluster)
        shadow.commit_removal(task)
        assert shadow.task_location(task) is None
        shadow.commit_placement(task, 1, 0)
        src, dst = small_cluster.server(0), small_cluster.server(1)
        assert shadow.task_location(task) == 1
        assert shadow.server_load(src).gpu == pytest.approx(
            src.load.gpu - task.demand.gpu
        )
        assert shadow.server_load(dst).gpu == pytest.approx(
            dst.load.gpu + task.demand.gpu
        )

    def test_gpu_delta_underflow_is_clamped(self, small_cluster):
        # Removing a task whose load never landed on the real cluster
        # (stale bookkeeping) drives the deltas negative; shadow reads
        # must clamp at zero rather than report negative load.
        task = self.unplaced_task(seed=3)
        task.mark_placed(0.0, 0, 0)
        shadow = ShadowCluster(small_cluster)
        shadow.commit_removal(task)
        server = small_cluster.server(0)
        load = shadow.server_load(server)
        assert min(load.gpu, load.cpu, load.mem, load.bw) >= 0.0
        assert shadow.utilization(server).norm() == pytest.approx(0.0)
        assert shadow.overload_degree(server) == pytest.approx(0.0)
        # Capacity checks keep working on the underflowed server.
        assert not shadow.would_overload(server, task.demand, threshold=1.0)
        assert shadow.least_loaded_gpu(server) == 0
