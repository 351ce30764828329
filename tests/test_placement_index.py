"""Server-state-class placement pinned to the per-server scalar oracle.

:class:`PlacementEngine` evaluates the overload predicate and the RIAL
distance once per :class:`ServerClasses` class.  :class:`ScanPlacementEngine`
below is the reference it replaced: one ``would_overload`` call per
server, and one utilization tuple and one task↔server volume walk per
candidate.  The contract is strict equivalence — the same candidate
*list* (set and order) and the same :class:`HostChoice` — under
arbitrary interleavings of

* live mutations between passes: placements, evictions, server
  crashes/revivals, GPU failures/revivals (failure does not bump
  ``load_version``, so the classes must notice flag flips themselves);
* tentative shadow commits within a pass (an eviction can *free*
  capacity the live view lacks; those servers are singletons);
* peers of the queried job placed live or committed in the shadow, so
  the bandwidth term of the distance is live and peer hosts are
  singletons;
* clusters of mixed server shapes with many identical servers, where
  classes are large and distance ties are common.

One production engine persists across simulated passes so the
``load_version`` refresh path (not just fresh construction) is what
gets exercised.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ResourceVector, Server
from repro.cluster.server import DEFAULT_SERVER_CAPACITY
from repro.core import make_mlf_h
from repro.core import placement
from repro.core.config import MLFSConfig
from repro.core.placement import PlacementEngine, TaskCommIndex
from repro.sim import EngineConfig, SimulationEngine
from repro.sim.shadow import ShadowCluster
from repro.workload import build_jobs
from repro.workload.synthetic import (
    PHILLY_DURATION_SECONDS,
    PHILLY_NUM_JOBS,
    PhillyLikeTraceGenerator,
    philly_cluster,
    philly_scale_config,
)
from tests.conftest import make_job

# -- the scalar oracle --------------------------------------------------------


def volume_to_server(
    index: TaskCommIndex, task, server_id: int, shadow: ShadowCluster
) -> float:
    """Communication volume between ``task`` and tasks on one server."""
    index._index_job(task.job)
    total = 0.0
    for peer, volume in index._peers.get(task.task_id, []):
        if shadow.task_location(peer) == server_id:
            total += volume
    return total


class ScanPlacementEngine(PlacementEngine):
    """Per-server reference: every predicate evaluated on every server."""

    def candidate_servers(self, task, shadow):
        threshold = self.config.overload_threshold
        return [
            server
            for server in shadow.cluster.servers
            if not shadow.would_overload(server, task.demand, threshold)
        ]

    def _closest_to_ideal(self, task, candidates, shadow, movement_penalty):
        utils = {s.server_id: shadow.utilization_tuple(s) for s in candidates}
        ideal = list(utils[candidates[0].server_id])
        for util in utils.values():
            ideal = [min(i, u) for i, u in zip(ideal, util)]
        use_bw = self.config.use_bandwidth
        volumes = {}
        max_volume = 0.0
        if use_bw:
            for server in candidates:
                volume = volume_to_server(
                    self.comm_index, task, server.server_id, shadow
                )
                volumes[server.server_id] = volume
                max_volume = max(max_volume, volume)
        best_id = candidates[0].server_id
        best_distance = math.inf
        for server in candidates:
            d = [u - i for u, i in zip(utils[server.server_id], ideal)]
            distance_sq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + d[3] * d[3]
            if use_bw and max_volume > 0:
                normalized = volumes[server.server_id] / max_volume
                distance_sq += (normalized - 1.0) ** 2
            distance = math.sqrt(distance_sq + movement_penalty**2)
            if distance < best_distance - 1e-12:
                best_distance = distance
                best_id = server.server_id
        return best_id, best_distance


# -- clusters and mutations ---------------------------------------------------

GPUS = 4
#: Server shapes (GPU count, capacity); the first repeats most often.
SHAPES = (
    (4, DEFAULT_SERVER_CAPACITY),
    (8, DEFAULT_SERVER_CAPACITY * 2.0),
    (2, ResourceVector(gpu=2.0, cpu=16.0, mem=122.0, bw=1250.0)),
)
MAX_SERVERS = 8

shapes_strategy = st.lists(
    st.sampled_from((0, 0, 0, 1, 2)), min_size=3, max_size=MAX_SERVERS
)

#: (kind, server, gpu/slot, seed) — interpreted by :func:`apply_ops`.
OP_KINDS = ("place", "evict", "fail", "revive", "gpu_fail", "gpu_revive")

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(OP_KINDS),
        st.integers(min_value=0, max_value=MAX_SERVERS - 1),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=25,
)

#: Tentative in-pass commits: place a queued task or evict a live one.
shadow_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(("commit_place", "commit_evict")),
        st.integers(min_value=0, max_value=MAX_SERVERS - 1),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=6,
)

#: How many of the query job's tasks are placed live and committed in
#: the shadow before the rest are queried, and on which servers.
peers_strategy = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=0, max_value=MAX_SERVERS - 1), min_size=6, max_size=6),
)

#: Query demands spanning the real task shapes (PS ~0.05, workers up).
query_gpus = st.sampled_from((1, 2, 4, 8))


def build_cluster(shapes) -> Cluster:
    return Cluster(
        servers=[
            Server(server_id=i, capacity=SHAPES[s][1], num_gpus=SHAPES[s][0])
            for i, s in enumerate(shapes)
        ]
    )


def fresh_task(seed, gpus=1, tag="q"):
    job = make_job(seed=seed, gpus=gpus, job_id=f"{tag}{seed}g{gpus}")
    return job.tasks[seed % len(job.tasks)]


def place_live(cluster, sid, task, placed):
    server = cluster.server(sid)
    if server.failed or not server.healthy_gpus():
        return  # the cluster model rejects placement on lost hardware
    gpu = server.place_task(task)
    task.mark_placed(0.0, sid, gpu.gpu_id)
    placed.append((server, task))


def apply_ops(cluster, ops, placed, tag):
    """Mutate live cluster state; track placed tasks for later eviction."""
    n = len(cluster.servers)
    for i, (kind, sid, gid, seed) in enumerate(ops):
        server = cluster.server(sid % n)
        if kind == "place":
            task = fresh_task(seed, gpus=1 + seed % 4, tag=f"{tag}p{i}s")
            place_live(cluster, sid % n, task, placed)
        elif kind == "evict" and placed:
            server, task = placed.pop(seed % len(placed))
            server.remove_task(task)
            task.mark_queued(0.0)
        elif kind == "fail":
            server.failed = True
        elif kind == "revive":
            server.failed = False
        elif kind == "gpu_fail":
            server.gpus[gid % len(server.gpus)].failed = True
        elif kind == "gpu_revive":
            server.gpus[gid % len(server.gpus)].failed = False


def apply_shadow_ops(shadow, shadow_ops, placed, tag):
    n = len(shadow.cluster.servers)
    for i, (kind, sid, seed) in enumerate(shadow_ops):
        if kind == "commit_place":
            task = fresh_task(seed, gpus=1 + seed % 4, tag=f"{tag}c{i}s")
            shadow.commit_placement(task, sid % n, seed % GPUS)
        elif kind == "commit_evict" and placed:
            _, task = placed[seed % len(placed)]
            if shadow.task_location(task) is not None:
                shadow.commit_removal(task)


def assert_matches_oracle(engine, oracle, task, shadow, penalty=0.0):
    candidates = engine.candidate_servers(task, shadow)
    scanned = oracle.candidate_servers(task, shadow)
    assert candidates == scanned  # same servers, same order
    choice = engine.select_host(task, shadow, movement_penalty=penalty)
    assert choice == oracle.select_host(task, shadow, movement_penalty=penalty)
    if scanned:
        # The distance rule follows list order, whatever that order is.
        backwards = scanned[::-1]
        assert engine.select_host(
            task, shadow, penalty, candidates=backwards
        ) == oracle.select_host(task, shadow, penalty, candidates=backwards)
    return choice


class TestClassesMatchOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        shapes=shapes_strategy,
        rounds=st.lists(
            st.tuples(ops_strategy, shadow_ops_strategy, peers_strategy),
            min_size=1,
            max_size=4,
        ),
        gpus=query_gpus,
        query_seed=st.integers(min_value=0, max_value=20),
        penalty=st.sampled_from((0.0, 0.3)),
    )
    def test_candidates_and_choice_match_scan(
        self, shapes, rounds, gpus, query_seed, penalty
    ):
        cluster = build_cluster(shapes)
        n = len(cluster.servers)
        engine = PlacementEngine(MLFSConfig())
        oracle = ScanPlacementEngine(MLFSConfig())
        placed = []
        for round_no, (ops, shadow_ops, (live, tentative, sids)) in enumerate(rounds):
            apply_ops(cluster, ops, placed, tag=f"r{round_no}")
            job = make_job(seed=query_seed, gpus=gpus, job_id=f"r{round_no}query")
            tasks = list(job.tasks)
            # Peers hosted live: they change loads and feed the bandwidth term.
            for sid in sids[:live]:
                if len(tasks) > 1:
                    place_live(cluster, sid % n, tasks.pop(), placed)
            shadow = ShadowCluster(cluster)
            apply_shadow_ops(shadow, shadow_ops, placed, tag=f"r{round_no}")
            # Peers committed this pass: shadow-delta singletons.
            for sid in sids[live : live + tentative]:
                if len(tasks) > 1:
                    shadow.commit_placement(tasks.pop(), sid % n, 0)
            for task in tasks:
                choice = assert_matches_oracle(engine, oracle, task, shadow, penalty)
                if choice is not None:
                    shadow.commit_placement(task, choice.server_id, choice.gpu_id)

    @settings(max_examples=30, deadline=None)
    @given(shapes=shapes_strategy, ops=ops_strategy, gpus=query_gpus)
    def test_stale_classes_never_leak_across_passes(self, shapes, ops, gpus):
        """A second pass (new shadow token) must see post-mutation state."""
        cluster = build_cluster(shapes)
        engine = PlacementEngine(MLFSConfig())
        oracle = ScanPlacementEngine(MLFSConfig())
        task = make_job(seed=3, gpus=gpus, job_id="probe").tasks[0]
        # Pass 1 primes the cache on the empty cluster.
        engine.candidate_servers(task, ShadowCluster(cluster))
        # Mutations land between passes; pass 2 must rekey.
        apply_ops(cluster, ops, [], tag="late")
        assert_matches_oracle(engine, oracle, task, ShadowCluster(cluster))


def load_identically(cluster, sids, tag):
    """Give each server in ``sids`` one task of the same demand."""
    for sid in sids:
        task = make_job(seed=1, gpus=2, job_id=f"{tag}{sid}").tasks[0]
        place_live(cluster, sid, task, [])


class TestPeerHostsAreSingletons:
    """A class whose lowest-id member hosts a peer and whose others do not."""

    def query_job(self):
        job = make_job(seed=8, gpus=4, job_id="peers")
        assert len(job.tasks) > 2
        return job

    def test_live_peer_on_lowest_member(self):
        cluster = Cluster.build(6, GPUS)
        job = self.query_job()
        task = job.tasks[0]
        # Servers 0-2 carry identical loads; only server 0's task is a peer.
        place_live(cluster, 0, job.tasks[1], [])
        for sid in (1, 2):
            twin = make_job(seed=8, gpus=4, job_id=f"twin{sid}").tasks[1]
            place_live(cluster, sid, twin, [])
        engine = PlacementEngine(MLFSConfig())
        oracle = ScanPlacementEngine(MLFSConfig())
        choice = assert_matches_oracle(engine, oracle, task, ShadowCluster(cluster))
        class_of = engine._classes.class_of
        assert class_of[0] == class_of[1] == class_of[2] != class_of[3]
        assert choice is not None and choice.server_id == 0

    @pytest.mark.parametrize("filled", [False, True])
    def test_tentative_peer_on_lowest_member(self, filled):
        """Server 0 shares its live class with 1-3 but hosts shadow peers.

        The idle members behind server 0 set the ideal point, so skipping
        them moves the distance; when filler also makes server 0 unfit,
        the choice itself must come from them.
        """
        cluster = Cluster.build(4, GPUS)
        job = self.query_job()
        task = job.tasks[0]
        shadow = ShadowCluster(cluster)
        for peer in job.tasks[1:]:
            shadow.commit_placement(peer, 0, 0)
        if filled:
            for filler in make_job(seed=2, gpus=8, job_id="filler").tasks:
                shadow.commit_placement(filler, 0, 0)
        engine = PlacementEngine(MLFSConfig())
        oracle = ScanPlacementEngine(MLFSConfig())
        choice = assert_matches_oracle(engine, oracle, task, shadow)
        assert set(engine._classes.class_of) == {engine._classes.class_of[0]}
        fits = cluster.server(0) in engine.candidate_servers(task, shadow)
        assert fits is not filled
        assert choice is not None
        # Unfilled, server 0 wins on volume but sits off the ideal point.
        assert (choice.server_id, choice.distance > 0.0) == (
            (1, False) if filled else (0, True)
        )

    def test_volume_walk_matches_per_server_volume(self):
        cluster = Cluster.build(4, GPUS)
        job = self.query_job()
        shadow = ShadowCluster(cluster)
        place_live(cluster, 2, job.tasks[1], [])
        for peer in job.tasks[2:]:
            shadow.commit_placement(peer, 3, 0)
        index = TaskCommIndex()
        volumes = index.volumes_by_server(job.tasks[0], shadow)
        for server in cluster.servers:
            expected = volume_to_server(index, job.tasks[0], server.server_id, shadow)
            assert volumes.get(server.server_id, 0.0) == expected


class TestClassMechanics:
    def test_classes_built_lazily_on_first_query(self):
        cluster = Cluster.build(3, GPUS)
        engine = PlacementEngine(MLFSConfig())
        assert engine._classes is None
        task = make_job(seed=5, gpus=2, job_id="lazy").tasks[0]
        engine.candidate_servers(task, ShadowCluster(cluster))
        assert engine._classes is not None
        # Three idle identical servers form one class.
        assert list(engine._classes.members.values()) == [[0, 1, 2]]

    def test_pickled_engine_drops_class_cache_and_rebuilds(self):
        cluster = Cluster.build(3, GPUS)
        engine = PlacementEngine(MLFSConfig())
        task = make_job(seed=5, gpus=2, job_id="pkl").tasks[0]
        engine.candidate_servers(task, ShadowCluster(cluster))
        assert engine._classes is not None

        restored = pickle.loads(pickle.dumps(engine))
        assert restored._classes is None
        assert restored._classes_token == -1
        # Shadow tokens are process-local: a restored engine must not
        # trust them, only rebuild — and still match the oracle.
        cluster2 = Cluster.build(3, GPUS)
        load_identically(cluster2, (1,), tag="restored")
        assert_matches_oracle(
            restored, ScanPlacementEngine(MLFSConfig()), task, ShadowCluster(cluster2)
        )
        assert restored._classes.cluster is cluster2

    def test_threshold_change_is_honoured(self):
        """Classes hold no threshold: a new one reuses them, exactly."""
        cluster = Cluster.build(3, GPUS)
        load_identically(cluster, (0, 1), tag="thr")
        engine = PlacementEngine(MLFSConfig())
        task = make_job(seed=6, gpus=8, job_id="thr").tasks[0]
        engine.candidate_servers(task, ShadowCluster(cluster))
        first = engine._classes
        for threshold in (0.5, 0.3, 0.9):
            config = MLFSConfig(overload_threshold=threshold)
            engine.config = config
            assert_matches_oracle(
                engine, ScanPlacementEngine(config), task, ShadowCluster(cluster)
            )
        assert engine._classes is first

    @pytest.mark.parametrize("device", ["server", "gpu"])
    def test_failure_flag_flipped_between_passes_is_seen(self, device):
        cluster = Cluster.build(3, GPUS)
        engine = PlacementEngine(MLFSConfig())
        oracle = ScanPlacementEngine(MLFSConfig())
        task = make_job(seed=5, gpus=1, job_id="flip").tasks[0]
        assert_matches_oracle(engine, oracle, task, ShadowCluster(cluster))
        server = cluster.server(1)
        version = server.load_version

        def flip(flag: bool) -> None:
            if device == "server":
                server.failed = flag
            else:
                for gpu in server.gpus:
                    gpu.failed = flag

        flip(True)
        assert server.load_version == version  # no version bump to ride on
        shadow = ShadowCluster(cluster)
        assert server not in engine.candidate_servers(task, shadow)
        assert_matches_oracle(engine, oracle, task, shadow)
        flip(False)
        shadow = ShadowCluster(cluster)
        assert server in engine.candidate_servers(task, shadow)
        assert_matches_oracle(engine, oracle, task, shadow)

    def test_refresh_rekeys_only_moved_servers(self, monkeypatch):
        cluster = Cluster.build(5, GPUS)
        engine = PlacementEngine(MLFSConfig())
        task = make_job(seed=5, gpus=1, job_id="rekey").tasks[0]
        engine.candidate_servers(task, ShadowCluster(cluster))
        keyed = []
        real = placement.state_key
        monkeypatch.setattr(
            placement, "state_key", lambda server: keyed.append(server.server_id) or real(server)
        )
        engine.candidate_servers(task, ShadowCluster(cluster))
        assert keyed == []
        load_identically(cluster, (3,), tag="moved")
        engine.candidate_servers(task, ShadowCluster(cluster))
        assert keyed == [3]
        classes = engine._classes
        assert classes.class_of[3] != classes.class_of[0]
        assert sorted(classes.members.values()) == [[0, 1, 2, 4], [3]]


# -- Philly scale ----------------------------------------------------------------


def run_philly_window(placement_cls, num_jobs=1000, seed=7):
    """MLF-H, event passes, on the Philly fleet at full-trace density."""
    config = philly_scale_config(
        num_jobs=num_jobs,
        duration_seconds=PHILLY_DURATION_SECONDS * num_jobs / PHILLY_NUM_JOBS,
    )
    records = PhillyLikeTraceGenerator(config=config, seed=seed).generate()
    scheduler = make_mlf_h()
    scheduler.placement = placement_cls(
        config=scheduler.config, comm_index=scheduler.comm_index
    )
    engine = SimulationEngine(
        scheduler,
        build_jobs(records, seed=seed),
        philly_cluster(),
        EngineConfig(seed=seed, max_time=400 * 24 * 3600.0, pass_policy="event"),
    )
    placements = migrations = 0
    while True:
        result = engine.advance()
        placements += result.placements
        migrations += result.migrations
        if result.drained or result.events_processed == 0:
            break
    jobs = [(r.job_id, r.jct) for r in engine.finalize().job_records]
    return jobs, placements, migrations


@pytest.mark.slow
def test_philly_window_matches_scalar_oracle():
    classes = run_philly_window(PlacementEngine)
    scanned = run_philly_window(ScanPlacementEngine)
    assert len(classes[0]) == 1000
    assert classes[1] > 0 and classes[2] > 0  # both paths exercised
    assert classes == scanned
