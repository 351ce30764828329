"""Oracle test: every job graph the workload builds equals networkx's.

``JobGraph`` replaced a ``networkx.DiGraph``.  Priority propagation
(Eqs. 3 and 5), the critical-path sums and the per-server volume sums
all follow its orders, so each of its fields is pinned with ``==`` to
what networkx answers for a ``DiGraph`` rebuilt from the same nodes and
edges, in the order the builder inserted them.  networkx is a test-only
dependency: without it this module skips.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import (
    GPU_CHOICES,
    MODEL_NAMES,
    CommStructure,
    WorkloadConfig,
    build_job,
    critical_path_seconds,
)
from repro.workload.synthetic import (
    PHILLY_DURATION_SECONDS,
    PHILLY_NUM_JOBS,
    PhillyLikeTraceGenerator,
    philly_scale_config,
)
from tests import job_oracle
from tests.conftest import make_record

nx = pytest.importorskip("networkx")


def built_graphs(records, seed, config=None):
    """Build a job per record with :func:`build_job`; pair each with the
    nodes and ``(src, dst, volume_mb)`` edges the direct oracle builder
    inserted for the same record and draws."""
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    built = []
    for record in records:
        job = build_job(record, rng, config)
        _oracle_job, nodes, edges = job_oracle.build_job_and_inputs(
            record, oracle_rng, config
        )
        built.append((job, nodes, edges))
    return built


def as_digraph(nodes, edges):
    dag = nx.DiGraph()
    dag.add_nodes_from(nodes)
    for src, dst, volume in edges:
        dag.add_edge(src, dst, volume_mb=volume)
    return dag


def nx_critical_path(dag, weights):
    """The contention-aware walk ``ExecutionModel`` ran over the DiGraph."""
    longest = {}
    for node in nx.topological_sort(dag):
        best = 0.0
        for pred in dag.predecessors(node):
            if longest[pred] > best:
                best = longest[pred]
        longest[node] = best + weights.get(node, 0.0)
    return max(longest.values(), default=0.0)


def nx_critical_path_seconds(dag, compute):
    """The generator's estimate walk over the DiGraph."""
    longest = {}
    for node in nx.topological_sort(dag):
        base = max((longest[p] for p in dag.predecessors(node)), default=0.0)
        longest[node] = base + compute.get(node, 0.0)
    return max(longest.values(), default=0.0)


def assert_matches_networkx(job, nodes, edges):
    graph = job.dag
    dag = as_digraph(nodes, edges)
    assert nodes == [t.task_id for t in job.tasks]
    assert graph.order == tuple(nx.topological_sort(dag))
    assert graph.successors == {n: tuple(dag.successors(n)) for n in dag}
    assert graph.predecessors == {n: tuple(dag.predecessors(n)) for n in dag}
    assert graph.edges == tuple(
        (src, dst, data["volume_mb"]) for src, dst, data in dag.edges(data=True)
    )
    assert graph.descendant_counts == {n: len(nx.descendants(dag, n)) for n in dag}

    compute = {t.task_id: t.compute_seconds for t in job.tasks}
    assert critical_path_seconds(job) == nx_critical_path_seconds(dag, compute)
    rng = random.Random(job.job_id)
    slowed = {tid: c * rng.uniform(1.0, 3.0) for tid, c in compute.items()}
    assert graph.critical_path(slowed) == nx_critical_path(dag, slowed)


@given(
    model=st.sampled_from(MODEL_NAMES),
    gpus=st.sampled_from(GPU_CHOICES),
    structure=st.sampled_from(CommStructure),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_build_job_matches_networkx(model, gpus, structure, seed):
    config = WorkloadConfig(comm_structure_weights={structure: 1.0})
    record = make_record(job_id=f"j{seed}", model=model, gpus=gpus)
    [(job, nodes, edges)] = built_graphs([record], seed, config)
    assert_matches_networkx(job, nodes, edges)


def test_philly_jobs_match_networkx():
    jobs = 200
    config = philly_scale_config(
        num_jobs=jobs,
        duration_seconds=PHILLY_DURATION_SECONDS * jobs / PHILLY_NUM_JOBS,
    )
    records = PhillyLikeTraceGenerator(config=config, seed=29).generate()
    built = built_graphs(records, seed=30)
    assert len(built) == jobs
    assert {job.comm_structure for job, *_ in built} == set(CommStructure)
    for job, nodes, edges in built:
        assert_matches_networkx(job, nodes, edges)
