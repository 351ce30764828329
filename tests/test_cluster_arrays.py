"""The cluster's array view pinned to the per-server scalar oracle.

:class:`~repro.cluster.cluster.Cluster` answers ``overloaded_servers``,
``underloaded_servers``, ``failed_servers`` and ``overload_degree`` from
numpy rows that :meth:`Server.place_task`/``remove_task`` and every
server or GPU ``failed`` write keep in step, memoised on the cluster's
version.  The scalar per-server predicates below are the code those
aggregates replaced; the contract is exact equality — the same server
list in the same order and the same float, bit for bit — under any
interleaving of placements, removals, direct flag writes, negative
accounting noise and pickle round-trips, on clusters of mixed shapes
with zero-capacity columns.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ResourceVector, Server
from repro.cluster.server import DEFAULT_SERVER_CAPACITY
from repro.check.sanitize import InvariantViolation, check_cluster_arrays
from tests.conftest import make_job

# -- the scalar oracle ----------------------------------------------------------


def scalar_overload_degree(server: Server) -> float:
    """``O_s = ||U_s||``, one server at a time."""
    load = server.load
    cap = server.capacity
    ug = load.gpu / cap.gpu if cap.gpu else 0.0
    uc = load.cpu / cap.cpu if cap.cpu else 0.0
    um = load.mem / cap.mem if cap.mem else 0.0
    ub = load.bw / cap.bw if cap.bw else 0.0
    if ug < 0.0:
        ug = 0.0
    if uc < 0.0:
        uc = 0.0
    if um < 0.0:
        um = 0.0
    if ub < 0.0:
        ub = 0.0
    return math.sqrt(ug * ug + uc * uc + um * um + ub * ub)


def scalar_is_overloaded(server: Server, threshold: float) -> bool:
    """Failed, or any clamped utilization above ``threshold``."""
    if server.failed:
        return True
    load = server.load
    cap = server.capacity
    ug = load.gpu / cap.gpu if cap.gpu else 0.0
    uc = load.cpu / cap.cpu if cap.cpu else 0.0
    um = load.mem / cap.mem if cap.mem else 0.0
    ub = load.bw / cap.bw if cap.bw else 0.0
    return (
        (ug if ug > 0.0 else 0.0) > threshold
        or (uc if uc > 0.0 else 0.0) > threshold
        or (um if um > 0.0 else 0.0) > threshold
        or (ub if ub > 0.0 else 0.0) > threshold
    )


def scalar_cluster_degree(cluster: Cluster) -> float:
    """``O_c``: the left-to-right mean of the per-server degrees."""
    if not cluster.servers:
        return 0.0
    return sum(scalar_overload_degree(s) for s in cluster.servers) / len(cluster.servers)


def assert_matches_oracle(cluster: Cluster, thresholds) -> None:
    for threshold in thresholds:
        over = [s for s in cluster.servers if scalar_is_overloaded(s, threshold)]
        under = [s for s in cluster.servers if not scalar_is_overloaded(s, threshold)]
        # Twice: the second answer comes from the memo.
        for _ in range(2):
            assert [s.server_id for s in cluster.overloaded_servers(threshold)] == [
                s.server_id for s in over
            ]
            assert [s.server_id for s in cluster.underloaded_servers(threshold)] == [
                s.server_id for s in under
            ]
    expected = scalar_cluster_degree(cluster)
    assert cluster.overload_degree() == expected
    assert cluster.overload_degree() == expected
    assert cluster.failed_servers() == [s for s in cluster.servers if s.failed]
    assert cluster.healthy_servers() == [s for s in cluster.servers if not s.failed]
    check_cluster_arrays(cluster)


# -- clusters and operations ---------------------------------------------------

#: (GPU count, capacity): the default host, a double one, and hosts with
#: zero-capacity columns (one of them GPU-less, so it never hosts work).
SHAPES = (
    (4, DEFAULT_SERVER_CAPACITY),
    (8, DEFAULT_SERVER_CAPACITY * 2.0),
    (2, ResourceVector(gpu=2.0, cpu=0.0, mem=122.0, bw=0.0)),
    (0, ResourceVector(gpu=0.0, cpu=16.0, mem=0.0, bw=1250.0)),
)

OPS = ("place", "remove", "fail", "revive", "gpu_fail", "gpu_revive", "noise", "pickle")

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=60),
    ),
    max_size=40,
)

THRESHOLDS = (0.9, 0.0, 0.3, 1.5, -0.25)


def build(shapes) -> Cluster:
    return Cluster(
        servers=[
            Server(server_id=i, capacity=SHAPES[s][1], num_gpus=SHAPES[s][0])
            for i, s in enumerate(shapes)
        ]
    )


def apply(cluster: Cluster, op, placed: list, step: int) -> Cluster:
    """Apply one operation; returns the (possibly unpickled) cluster."""
    kind, sid, gid, seed = op
    server = cluster.servers[sid % len(cluster.servers)]
    if kind == "place":
        if not server.failed and server.healthy_gpus():
            job = make_job(seed=seed, gpus=1 + seed % 8, job_id=f"j{step}")
            task = job.tasks[seed % len(job.tasks)]
            gpu = server.place_task(task)
            task.mark_placed(0.0, server.server_id, gpu.gpu_id)
            placed.append((server.server_id, task))
    elif kind == "remove" and placed:
        server_id, task = placed.pop(seed % len(placed))
        cluster.servers[server_id].remove_task(task)
        task.mark_queued(0.0)
    elif kind in ("fail", "revive"):
        server.failed = kind == "fail"
    elif kind in ("gpu_fail", "gpu_revive") and server.gpus:
        server.gpus[gid % len(server.gpus)].failed = kind == "gpu_fail"
    elif kind == "noise":
        # Accounting noise below zero: the aggregates clamp it to 0.
        server._load = server.load + ResourceVector(-1e-3 * (seed % 3), 0.0, -1e-9, 0.0)
        server.sync()
    elif kind == "pickle":
        tasks = [task for _, task in placed]
        cluster, tasks = pickle.loads(pickle.dumps((cluster, tasks)))
        placed[:] = [(task.server_id, task) for task in tasks]
    return cluster


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(st.sampled_from((0, 0, 0, 1, 2, 3)), min_size=1, max_size=8),
    ops=ops_strategy,
)
def test_aggregates_match_scalar_scan(shapes, ops):
    cluster = build(shapes)
    placed: list = []
    assert_matches_oracle(cluster, THRESHOLDS)
    for step, op in enumerate(ops):
        cluster = apply(cluster, op, placed, step)
        assert_matches_oracle(cluster, THRESHOLDS)


def test_philly_fleet_matches_scalar_scan():
    from repro.workload.synthetic import philly_cluster

    cluster = philly_cluster()
    placed: list = []
    for step in range(300):
        op = ("place", (step * 37) % 550, 0, step % 61)
        if step % 7 == 3:
            op = ("remove", 0, 0, step)
        cluster = apply(cluster, op, placed, step)
    cluster.servers[5].failed = True
    assert_matches_oracle(cluster, (0.9, 0.2, 0.05))


# -- versions, dirty rows and the memo -----------------------------------------


class TestVersion:
    def test_every_change_bumps_version_and_stamps_its_row(self):
        cluster = Cluster.build(3, 4)
        seen = cluster.version
        assert cluster.changed_since(seen) == []
        job = make_job(seed=2, gpus=1, job_id="v")
        task = job.tasks[0]
        gpu = cluster.server(1).place_task(task)
        task.mark_placed(0.0, 1, gpu.gpu_id)
        assert cluster.changed_since(seen) == [1]
        seen = cluster.version
        cluster.server(2).gpus[0].failed = True
        cluster.server(0).failed = True
        assert cluster.changed_since(seen) == [0, 2]
        seen = cluster.version
        cluster.server(1).remove_task(task)
        assert cluster.changed_since(seen) == [1]

    @pytest.mark.parametrize("device", ["server", "gpu"])
    def test_flag_write_is_seen_but_not_a_load_change(self, device):
        cluster = Cluster.build(2, 4)
        server = cluster.server(1)
        load_version, version = server.load_version, cluster.version
        if device == "server":
            server.failed = True
        else:
            server.gpus[3].failed = True
        assert server.load_version == load_version
        assert cluster.version > version
        assert cluster.changed_since(version) == [1]
        expected = [server] if device == "server" else []
        assert cluster.overloaded_servers(0.9) == expected

    def test_memo_recomputes_only_after_a_change(self):
        cluster = Cluster.build(2, 4)
        util, rows = cluster._cache()["util"], cluster._overloaded_rows(0.9)
        cluster.overloaded_servers(0.9)
        cluster.overload_degree()
        assert cluster._cache()["util"] is util
        assert cluster._overloaded_rows(0.9) is rows
        cluster.server(0).failed = True
        assert cluster._cache()["util"] is not util
        assert cluster._overloaded_rows(0.9) == [0]

    def test_unpickled_cluster_rebuilds_arrays_and_back_references(self):
        cluster = Cluster.build(3, 4)
        job = make_job(seed=4, gpus=2, job_id="p")
        for sid, task in zip((0, 2), job.tasks):
            gpu = cluster.server(sid).place_task(task)
            task.mark_placed(0.0, sid, gpu.gpu_id)
        cluster.server(1).failed = True
        restored = pickle.loads(pickle.dumps(cluster))
        assert "_loads" not in cluster.__getstate__()
        assert restored.overload_degree() == cluster.overload_degree()
        restored.server(1).failed = False
        assert restored.failed_servers() == []
        assert cluster.failed_servers() == [cluster.server(1)]
        assert_matches_oracle(restored, THRESHOLDS)

    def test_empty_cluster(self):
        cluster = Cluster(servers=[])
        assert cluster.overload_degree() == 0.0
        assert cluster.overloaded_servers(0.9) == []
        assert cluster.changed_since(-1) == []


class TestSanitizerCheck:
    def test_stale_row_is_named(self):
        cluster = Cluster.build(3, 4)
        cluster.server(2)._load = ResourceVector(gpu=1.0)  # bypasses sync()
        with pytest.raises(InvariantViolation) as exc:
            check_cluster_arrays(cluster, round_index=4)
        assert exc.value.invariant == "cluster-arrays"
        assert exc.value.server_id == 2
        assert exc.value.round_index == 4

    def test_stale_failed_mask_is_named(self):
        cluster = Cluster.build(3, 4)
        cluster.server(1).__dict__["_failed"] = True  # bypasses the setter
        with pytest.raises(InvariantViolation) as exc:
            check_cluster_arrays(cluster)
        assert exc.value.server_id == 1
