"""Jobs stamped from per-shape templates equal the direct build.

:func:`build_job` takes a job's tasks, graph and compute critical path
from the cached :class:`~repro.workload.dag.JobTemplate` of its shape
and draws only the per-job values.  Every test here pins that against
:mod:`tests.job_oracle`, the direct per-job build: every job field,
every task field and every :class:`JobGraph` field (dict orders
included) by ``repr``, so floats match to the bit, and ``rng.getstate()``
after both builds.  No networkx: this module runs in every CI job.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import demand_bounds, infeasible_reason
from repro.cluster.resources import ResourceKind, ResourceVector
from repro.workload import (
    MODEL_NAMES,
    CommStructure,
    Job,
    StopOption,
    Task,
    WorkloadConfig,
    build_job,
    build_task_graph,
    get_model,
)
from repro.workload import dag
from repro.workload.synthetic import (
    PHILLY_DURATION_SECONDS,
    PHILLY_NUM_JOBS,
    PhillyLikeTraceGenerator,
    philly_scale_config,
)
from tests import job_oracle
from tests.conftest import make_record

JOB_FIELDS = [
    f.name for f in dataclasses.fields(Job) if f.name not in ("tasks", "dag")
]
TASK_FIELDS = [f.name for f in dataclasses.fields(Task) if f.name != "job"]
GRAPH_FIELDS = ("order", "predecessors", "successors", "edges", "descendant_counts")


def assert_same_job(job, expected):
    for name in JOB_FIELDS:
        assert repr(getattr(job, name)) == repr(getattr(expected, name)), name
    assert len(job.tasks) == len(expected.tasks)
    for task, want in zip(job.tasks, expected.tasks):
        assert task.job is job
        for name in TASK_FIELDS:
            assert repr(getattr(task, name)) == repr(getattr(want, name)), (
                task.task_id,
                name,
            )
    for name in GRAPH_FIELDS:
        assert repr(getattr(job.dag, name)) == repr(getattr(expected.dag, name)), name


def build_both(records, seed, config=None):
    """Each record built by ``build_job`` and by the oracle, from two
    RNGs with one seed; the RNGs must end in the same state."""
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    pairs = [
        (build_job(record, rng, config), job_oracle.build_job(record, oracle_rng, config))
        for record in records
    ]
    assert rng.getstate() == oracle_rng.getstate()
    return pairs


def weights(members):
    """A weight table over ``members`` in a drawn order, some possibly 0."""
    return st.tuples(
        st.permutations(list(members)),
        st.lists(
            st.floats(0.0, 5.0), min_size=len(members), max_size=len(members)
        ).filter(lambda ws: sum(ws) > 0.0),
    ).map(lambda drawn: dict(zip(*drawn)))


configs = st.builds(
    WorkloadConfig,
    deadline_slack_factor=st.floats(1.0, 2.0),
    deadline_uniform_range_hours=st.tuples(st.floats(0.1, 2.0), st.floats(2.0, 48.0)),
    comm_volume_range=st.tuples(st.floats(1.0, 60.0), st.floats(60.0, 500.0)),
    comm_structure_weights=weights(CommStructure),
    stop_option_weights=weights(StopOption),
    allow_downgrade_probability=st.floats(0.0, 1.0),
    assumed_bandwidth_mbps=st.sampled_from([0.0, 125.0, 1250.0]),
    accuracy_ceiling_jitter=st.tuples(st.floats(0.5, 0.9), st.floats(0.9, 1.0)),
)

records = st.builds(
    make_record,
    arrival=st.floats(0.0, 1e6),
    gpus=st.integers(1, 64),
    model=st.sampled_from(MODEL_NAMES),
    iterations=st.integers(1, 5000),
    accuracy_quantile=st.floats(0.0, 1.0),
)


@given(
    drawn=st.lists(records, min_size=1, max_size=4),
    config=st.none() | configs,
    seed=st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_template_build_equals_direct_build(drawn, config, seed):
    drawn = [dataclasses.replace(r, job_id=f"j{i}") for i, r in enumerate(drawn)]
    for job, expected in build_both(drawn, seed, config):
        assert_same_job(job, expected)
        assert dag.job_template(job).demand_bounds == demand_bounds(
            task.demand for task in job.tasks
        )


def test_every_shape_of_the_zoo_matches():
    shapes = [
        make_record(job_id=f"{model}-{gpus}-{k}", model=model, gpus=gpus)
        for model in MODEL_NAMES
        for gpus in range(1, 65)
        for k in range(3)
    ]
    for structure in CommStructure:
        config = WorkloadConfig(comm_structure_weights={structure: 1.0})
        for job, expected in build_both(shapes, seed=5, config=config):
            assert_same_job(job, expected)


def test_philly_trace_matches():
    jobs = 3000
    config = philly_scale_config(
        num_jobs=jobs,
        duration_seconds=PHILLY_DURATION_SECONDS * jobs / PHILLY_NUM_JOBS,
    )
    trace = PhillyLikeTraceGenerator(config=config, seed=41).generate()
    pairs = build_both(trace, seed=42)
    assert {job.comm_structure for job, _ in pairs} == set(CommStructure)
    for job, expected in pairs:
        assert_same_job(job, expected)


def bare_job(model, job_id="j", replicas=2, partitions=4, structure=None):
    return Job(
        job_id=job_id,
        model=model,
        arrival_time=0.0,
        num_replicas=replicas,
        num_partitions=partitions,
        comm_structure=structure or CommStructure.PARAMETER_SERVER,
        max_iterations=10,
        urgency=1,
        deadline=1e6,
        accuracy_requirement=0.5,
    )


def test_same_name_other_layers_gets_its_own_template():
    zoo = get_model("resnet")
    other = dataclasses.replace(zoo, layers=zoo.layers[:-1])
    assert other.name == zoo.name and other != zoo
    stamped, direct = bare_job(other), bare_job(other)
    build_task_graph(bare_job(zoo), random.Random(3))
    build_task_graph(stamped, random.Random(3))
    job_oracle.build_task_graph(direct, random.Random(3))
    assert dag.job_template(stamped) is not dag.job_template(bare_job(zoo))
    assert_same_job(stamped, direct)
    ps = stamped.tasks[-1]
    assert ps.partition_params_m == sum(layer.params_m for layer in other.layers)


def test_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(dag, "_templates", {})
    monkeypatch.setattr(dag, "TEMPLATE_CACHE_SIZE", 8)
    svm = get_model("svm")
    for replicas in range(1, 21):
        build_task_graph(bare_job(svm, replicas=replicas, partitions=1), random.Random(0))
        assert len(dag._templates) == min(replicas, 8)
    held = sorted(replicas for (_id, replicas, *_rest) in dag._templates)
    assert held == list(range(13, 21))


def test_jobs_of_one_shape_share_no_mutable_state():
    record = make_record(model="resnet", gpus=8)
    config = WorkloadConfig(comm_structure_weights={CommStructure.TORUS_ALLREDUCE: 1.0})
    rng = random.Random(9)
    first = build_job(dataclasses.replace(record, job_id="a"), rng, config)
    second = build_job(dataclasses.replace(record, job_id="b"), rng, config)
    assert dag.job_template(first) is dag.job_template(second)
    assert first.tasks is not second.tasks
    assert first.sync_links is not second.sync_links
    for name in ("predecessors", "successors", "descendant_counts"):
        assert getattr(first.dag, name) is not getattr(second.dag, name)

    # Change everything mutable about the first job ...
    for task in first.tasks:
        task.mark_placed(1.0, server_id=0, gpu_id=0)
        task.demand = ResourceVector(gpu=9.0)
    first.tasks.reverse()
    first.sync_links.clear()
    first.dag.predecessors.clear()
    first.dag.descendant_counts[first.tasks[0].task_id] = -1

    # ... and the second job, and the next one stamped, are as built.
    oracle_rng = random.Random(9)
    job_oracle.build_job(dataclasses.replace(record, job_id="a"), oracle_rng, config)
    expected = job_oracle.build_job(
        dataclasses.replace(record, job_id="b"), oracle_rng, config
    )
    assert_same_job(second, expected)
    third = build_job(dataclasses.replace(record, job_id="c"), rng, config)
    expected = job_oracle.build_job(
        dataclasses.replace(record, job_id="c"), oracle_rng, config
    )
    assert_same_job(third, expected)


def rejects(amount, capacity, threshold):
    return amount > threshold * capacity + 1e-9


def boundary(amount, threshold):
    """The largest capacity that rejects ``amount`` and the next float up,
    the smallest that admits it."""
    capacity = (amount - 1e-9) / threshold
    while not rejects(amount, capacity, threshold):
        capacity = math.nextafter(capacity, -math.inf)
    while rejects(amount, math.nextafter(capacity, math.inf), threshold):
        capacity = math.nextafter(capacity, math.inf)
    return capacity, math.nextafter(capacity, math.inf)


@pytest.mark.parametrize(
    "model, structure, kind, widest",
    [
        ("alexnet", CommStructure.PARAMETER_SERVER, ResourceKind.CPU, False),
        ("alexnet", CommStructure.PARAMETER_SERVER, ResourceKind.MEM, True),
        ("resnet", CommStructure.RING_ALLREDUCE, ResourceKind.GPU, False),
        ("resnet", CommStructure.RING_ALLREDUCE, ResourceKind.BW, True),
    ],
)
def test_admission_check_at_the_boundary(model, structure, kind, widest):
    config = WorkloadConfig(comm_structure_weights={structure: 1.0})
    job = build_job(make_record(model=model, gpus=8), random.Random(2), config)
    assert job.comm_structure is structure
    need = dag.job_template(job).demand_bounds
    column = [task.demand[kind] for task in job.tasks]
    amount = max(column) if widest else sum(column)
    threshold = 0.9
    reject, admit = boundary(amount, threshold)
    ample = ResourceVector.uniform(1e9)
    for capacity, expect_reason in ((reject, True), (admit, False)):
        tight = ample.replace(kind, capacity)
        bounds = (ample, tight) if widest else (tight, ample)
        reason = infeasible_reason(need, bounds, threshold)
        per_task = infeasible_reason(
            demand_bounds(task.demand for task in job.tasks), bounds, threshold
        )
        assert reason == per_task
        if expect_reason:
            what = "one task's " if widest else ""
            limit = round(threshold * capacity, 3)
            assert reason == (
                f"infeasible: {what}{kind.name.lower()} {round(amount, 3)} > {limit}"
            )
        else:
            assert reason is None
