"""Unit tests for task-graph construction and the Job/Task model."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import (
    CommStructure,
    TaskState,
    build_task_graph,
    critical_path_seconds,
)
from repro.workload.dag import _jitter_demand
from repro.cluster import ResourceVector
from tests.conftest import make_job, make_record
from repro.workload.generator import WorkloadConfig, build_job


def job_with_structure(structure, seed=0, **kwargs):
    """Build a job then force a given communication structure."""
    for s in range(seed, seed + 200):
        job = make_job(seed=s, **kwargs)
        if job.comm_structure is structure:
            return job
    raise AssertionError(f"could not draw structure {structure}")


class TestTaskGraph:
    def test_order_is_topological(self, simple_job):
        graph = simple_job.dag
        assert sorted(graph.order) == sorted(t.task_id for t in simple_job.tasks)
        position = {node: i for i, node in enumerate(graph.order)}
        assert graph.edges
        for src, dst, _volume in graph.edges:
            assert position[src] < position[dst]

    def test_task_count_matches_grid(self, simple_job):
        expected = simple_job.num_replicas * simple_job.num_partitions
        workers = [t for t in simple_job.tasks if not t.is_parameter_server]
        assert len(workers) == expected

    def test_ps_task_exists_under_ps_structure(self):
        job = job_with_structure(CommStructure.PARAMETER_SERVER)
        ps = [t for t in job.tasks if t.is_parameter_server]
        assert len(ps) == 1
        # PS is a sink: no outgoing dependency edges.
        assert job.dag.successors[ps[0].task_id] == ()
        assert len(job.dag.predecessors[ps[0].task_id]) >= 1

    def test_ring_allreduce_has_sync_links_no_ps(self):
        job = job_with_structure(CommStructure.RING_ALLREDUCE, gpus=8)
        assert not any(t.is_parameter_server for t in job.tasks)
        assert job.sync_links
        # A ring over n reducers has exactly n links per final partition.
        srcs = [s for s, _d, _v in job.sync_links]
        assert len(srcs) == len(set(srcs))  # each reducer sends once per ring

    def test_torus_allreduce_links(self):
        job = job_with_structure(CommStructure.TORUS_ALLREDUCE, gpus=16)
        assert job.sync_links
        for src, dst, volume in job.sync_links:
            assert src != dst
            assert 50.0 <= volume <= 100.0

    def test_edge_volumes_in_paper_range(self, simple_job):
        for *_edge, volume in simple_job.dag.edges:
            assert 50.0 <= volume <= 100.0

    def test_rebuild_raises(self, simple_job):
        with pytest.raises(ValueError):
            build_task_graph(simple_job, random.Random(0))

    def test_sequential_model_forms_chains(self):
        record = make_record(model="alexnet", gpus=4)
        job = build_job(record, random.Random(13), WorkloadConfig())
        workers = [t for t in job.tasks if not t.is_parameter_server]
        per_replica = {}
        for t in workers:
            per_replica.setdefault(t.replica_index, []).append(t)
        for tasks in per_replica.values():
            # partitions chain: p0 -> p1 -> ...
            ids = {t.partition_index: t.task_id for t in tasks}
            for p in range(1, len(ids)):
                assert ids[p] in job.dag.successors[ids[p - 1]]
                assert ids[p - 1] in job.dag.predecessors[ids[p]]

    def test_descendant_counts(self, simple_job):
        # Sequential partitions chain p0 -> p1 -> ... and the last one
        # reports to the PS: partition p reaches the rest of its chain
        # and the PS.
        counts = simple_job.dag.descendant_counts
        partitions = simple_job.num_partitions
        for task in simple_job.tasks:
            if task.is_parameter_server:
                assert counts[task.task_id] == 0
            else:
                assert counts[task.task_id] == partitions - task.partition_index

    def test_pickled_job_names_no_networkx(self, simple_job):
        assert b"networkx" not in pickle.dumps(simple_job)

    def test_critical_path_positive(self, simple_job):
        assert critical_path_seconds(simple_job) > 0.0

    def test_critical_path_empty_job(self):
        job = make_job(seed=5)
        job.tasks = []
        assert critical_path_seconds(job) == 0.0

    def test_gpu_demand_capped(self, small_workload):
        for job in small_workload:
            for task in job.tasks:
                assert task.demand.gpu <= 0.85 + 1e-9
                assert task.true_demand.gpu <= 0.88 + 1e-9

    def test_jitter_demand_bounds(self):
        rng = random.Random(0)
        base = ResourceVector(gpu=0.8, cpu=2.0, mem=4.0, bw=50.0)
        for _ in range(200):
            actual = _jitter_demand(base, rng)
            assert actual.gpu <= 0.88
            assert 0.85 * base.cpu <= actual.cpu <= 1.4 * base.cpu


class TestTaskLifecycle:
    def test_initial_state_queued(self, simple_job):
        assert all(t.state is TaskState.QUEUED for t in simple_job.tasks)

    def test_mark_placed_tracks_wait(self, simple_job):
        task = simple_job.tasks[0]
        task.mark_queued(100.0)
        task.mark_placed(160.0, server_id=2, gpu_id=1)
        assert task.state is TaskState.RUNNING
        assert task.server_id == 2 and task.gpu_id == 1
        assert task.total_queue_wait == pytest.approx(60.0)
        assert task.is_placed

    def test_waiting_time_accumulates_stints(self, simple_job):
        task = simple_job.tasks[0]
        task.mark_queued(0.0)
        task.mark_placed(50.0, 0, 0)
        task.mark_queued(80.0)
        assert task.waiting_time(100.0) == pytest.approx(50.0 + 20.0)

    def test_mark_finished_clears_placement(self, simple_job):
        task = simple_job.tasks[0]
        task.mark_placed(0.0, 0, 0)
        task.mark_finished()
        assert task.state is TaskState.FINISHED
        assert task.server_id is None and not task.is_placed


class TestJobModel:
    def test_hash_and_eq_by_id(self):
        a = make_job(seed=1, job_id="same")
        b = make_job(seed=2, job_id="same")
        assert a == b and hash(a) == hash(b)

    def test_gpus_requested(self, simple_job):
        assert (
            simple_job.gpus_requested
            == simple_job.num_replicas * simple_job.num_partitions
        )

    def test_loss_monotone_and_delta_positive(self, simple_job):
        for i in range(1, 30):
            assert simple_job.loss_at(i) < simple_job.loss_at(i - 1)
            assert simple_job.delta_loss(i) > 0

    def test_delta_loss_iteration_zero(self, simple_job):
        assert simple_job.delta_loss(0) == 0.0

    def test_cumulative_delta_loss_telescopes(self, simple_job):
        total = sum(simple_job.delta_loss(i) for i in range(1, 11))
        assert simple_job.cumulative_delta_loss(10) == pytest.approx(total)

    def test_accuracy_monotone_saturating(self, simple_job):
        values = [simple_job.accuracy_at(i) for i in range(0, 100)]
        assert values[0] == 0.0
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] < simple_job.accuracy_ceiling

    def test_iterations_for_accuracy_inverse(self, simple_job):
        target = simple_job.accuracy_at(simple_job.max_iterations) * 0.9
        needed = simple_job.iterations_for_accuracy(target)
        assert needed is not None
        assert simple_job.accuracy_at(needed) >= target
        assert simple_job.accuracy_at(needed - 1) < target

    def test_iterations_for_accuracy_unreachable(self, simple_job):
        assert simple_job.iterations_for_accuracy(simple_job.accuracy_ceiling) is None

    def test_fully_placed_and_queues(self, simple_job):
        assert not simple_job.is_fully_placed
        for task in simple_job.tasks:
            task.mark_placed(0.0, 0, 0)
        assert simple_job.is_fully_placed
        assert simple_job.queued_tasks() == []
        assert len(simple_job.placed_tasks()) == len(simple_job.tasks)

    def test_jct_and_deadline(self, simple_job):
        assert simple_job.jct() is None
        simple_job.completion_time = simple_job.arrival_time + 100.0
        assert simple_job.jct() == pytest.approx(100.0)
        simple_job.deadline = simple_job.completion_time + 1.0
        assert simple_job.met_deadline()

    def test_met_accuracy_uses_deadline_accuracy(self, simple_job):
        simple_job.accuracy_requirement = 0.5
        simple_job.accuracy_at_deadline = 0.4
        assert not simple_job.met_accuracy()
        simple_job.accuracy_at_deadline = 0.6
        assert simple_job.met_accuracy()

    def test_task_by_id(self, simple_job):
        task = simple_job.tasks[0]
        assert simple_job.task_by_id(task.task_id) is task
        with pytest.raises(KeyError):
            simple_job.task_by_id("missing")

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_accuracy_bounded(self, iterations):
        job = make_job(seed=9)
        assert 0.0 <= job.accuracy_at(iterations) <= job.accuracy_ceiling
