"""The experiment engine (``repro.exp``) and the ``repro.api`` façade.

Covers the contracts the sweep engine advertises: spec JSON round-trip,
grid expansion order, bit-identical serial vs parallel merged results,
cache-based resume, per-shard failure isolation, the scheduler registry
and the ``repro sweep`` CLI verb.
"""

import dataclasses
import json

import pytest

from repro import api
from repro.baselines import RLScheduler, TiresiasScheduler
from repro.cli import main as cli_main
from repro.cluster import Cluster
from repro.core.config import MLFSConfig
from repro.exp.runner import error_record, run_shard
from repro.schedulers import build_scheduler, mlfs_config_from_mapping
from repro.sim import SimulationEngine
from repro.workload import build_jobs, generate_trace

#: A tiny, fast workload shared by the sweep tests.
SMALL = api.RunSpec(
    scheduler=api.SchedulerSpec("Tiresias"),
    workload=api.WorkloadSpec(
        num_jobs=6, duration_hours=0.5, trace_seed=1, deadline_hours=(0.5, 6.0)
    ),
    cluster=api.ClusterSpec(num_servers=2, gpus_per_server=2),
    seed=2,
)


def small_grid() -> api.Grid:
    return api.Grid(
        SMALL,
        axes={
            "scheduler": [
                api.SchedulerSpec("Tiresias"),
                api.SchedulerSpec("FIFO"),
            ],
            "seed": [2, 3],
        },
    )


class TestRunSpec:
    def test_json_round_trip_equality(self):
        spec = api.RunSpec(
            scheduler=api.SchedulerSpec(
                "MLFS",
                config={"use_urgency": False, "priority": {"alpha": 0.3}},
                pretrain=api.PretrainSpec(),
            ),
            workload=api.WorkloadSpec(num_jobs=12, deadline_hours=(1.0, 3.0)),
            cluster=api.ClusterSpec(num_servers=3),
            engine=api.EngineConfig(tick_seconds=30.0),
            seed=5,
        )
        rebuilt = api.RunSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert rebuilt == spec
        assert rebuilt.digest() == spec.digest()

    def test_digest_is_stable_and_discriminating(self):
        assert SMALL.digest() == SMALL.digest()
        other = dataclasses.replace(SMALL, seed=99)
        assert other.digest() != SMALL.digest()

    def test_unknown_engine_fields_rejected(self):
        payload = SMALL.to_json()
        payload["engine"]["warp_factor"] = 9
        with pytest.raises(ValueError, match="warp_factor"):
            api.RunSpec.from_json(payload)

    def test_replace_path(self):
        grown = api.replace_path(SMALL, "workload.num_jobs", 240)
        assert grown.workload.num_jobs == 240
        assert grown.cluster == SMALL.cluster
        with pytest.raises(ValueError, match="no spec field"):
            api.replace_path(SMALL, "workload.nope", 1)


class TestGrid:
    def test_expansion_order_last_axis_fastest(self):
        grid = small_grid()
        assert len(grid) == 4
        labels = [(s.scheduler.name, s.seed) for s in grid.specs()]
        assert labels == [
            ("Tiresias", 2),
            ("Tiresias", 3),
            ("FIFO", 2),
            ("FIFO", 3),
        ]

    def test_json_round_trip(self):
        grid = small_grid()
        rebuilt = api.Grid.from_json(json.loads(json.dumps(grid.to_json())))
        assert [s.digest() for s in rebuilt.specs()] == [
            s.digest() for s in grid.specs()
        ]

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            api.Grid(SMALL, axes={"seed": []})


class TestSweepDeterminism:
    def test_serial_and_parallel_bit_identical(self):
        grid = small_grid()
        serial = api.sweep(grid, workers=0)
        parallel = api.sweep(grid, workers=4)
        assert json.dumps(serial.merged(), sort_keys=True) == json.dumps(
            parallel.merged(), sort_keys=True
        )
        assert serial.stats["failed"] == 0
        # wall-clock observations live outside the deterministic merge
        assert all(
            "overhead_ms" not in r["summary"] for r in serial.ok()
        )
        assert serial.measured.keys() == parallel.measured.keys()

    def test_warm_pool_rerun_bit_identical(self):
        """A second run on the runner's live pool merges like the first."""
        grid = small_grid()
        serial = json.dumps(api.sweep(grid, workers=0).merged(), sort_keys=True)
        with api.SweepRunner(workers=2) as runner:
            cold, warm = runner.run(grid), runner.run(grid)
        assert json.dumps(cold.merged(), sort_keys=True) == serial
        assert json.dumps(warm.merged(), sort_keys=True) == serial

    def test_matches_direct_simulation(self):
        record = api.run(SMALL)
        records = generate_trace(6, duration_seconds=1800.0, seed=1)
        jobs = build_jobs(records, seed=2, config=SMALL.workload.workload_config())
        engine = SimulationEngine(TiresiasScheduler(), jobs, Cluster.build(2, 2))
        direct = engine.run().summary()
        direct.pop("overhead_ms")
        assert record["summary"] == direct


class TestSweepCache:
    def test_resume_skips_finished_shards(self, tmp_path):
        grid = small_grid()
        first = api.sweep(grid, workers=0, cache_dir=tmp_path)
        assert first.stats == {"shards": 4, "executed": 4, "cached": 0, "failed": 0}
        second = api.sweep(grid, workers=0, cache_dir=tmp_path)
        assert second.stats == {"shards": 4, "executed": 0, "cached": 4, "failed": 0}
        assert json.dumps(first.merged(), sort_keys=True) == json.dumps(
            second.merged(), sort_keys=True
        )

    def test_corrupt_cache_entry_reruns(self, tmp_path):
        api.sweep([SMALL], workers=0, cache_dir=tmp_path)
        victim = tmp_path / f"{SMALL.digest()}.json"
        victim.write_text("{not json")
        result = api.sweep([SMALL], workers=0, cache_dir=tmp_path)
        assert result.stats["executed"] == 1


class TestFailureIsolation:
    def test_crashed_shard_yields_structured_error(self):
        bad = dataclasses.replace(
            SMALL, scheduler=api.SchedulerSpec("NoSuchScheduler")
        )
        result = api.sweep([SMALL, bad], workers=0)
        assert result.stats == {"shards": 2, "executed": 2, "cached": 0, "failed": 1}
        (failure,) = result.failures()
        assert failure["status"] == "error"
        assert failure["error"]["type"] == "ValueError"
        assert "NoSuchScheduler" in failure["error"]["message"]
        assert len(result.ok()) == 1

    def test_failed_shards_never_cached(self, tmp_path):
        bad = dataclasses.replace(
            SMALL, scheduler=api.SchedulerSpec("NoSuchScheduler")
        )
        api.sweep([bad], workers=0, cache_dir=tmp_path)
        assert not list(tmp_path.glob("*.json"))

    def test_run_shard_never_raises(self):
        bad = dataclasses.replace(
            SMALL, scheduler=api.SchedulerSpec("NoSuchScheduler")
        )
        record = run_shard(bad.to_json())
        assert record["status"] == "error"

    def test_error_record_shape(self):
        record = error_record(SMALL, ValueError("boom"), tb="tb")
        assert record["summary"] is None
        assert record["error"] == {
            "type": "ValueError",
            "message": "boom",
            "traceback": "tb",
        }


class TestResultsIO:
    def test_save_load_round_trip(self, tmp_path):
        result = api.sweep([SMALL], workers=0)
        path = tmp_path / "results.json"
        api.save_results(result, path)
        loaded = api.load_results(path)
        assert loaded.records == result.records

    def test_format_validated(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "other/9", "results": []}))
        with pytest.raises(ValueError, match="other/9"):
            api.load_results(path)


class TestBuildScheduler:
    def test_every_registry_name_builds(self):
        for name in api.SCHEDULER_FACTORIES:
            assert build_scheduler(name).name == name

    def test_mlf_config_overrides_applied(self):
        scheduler = build_scheduler(
            "MLF-H", {"use_bandwidth": False, "priority": {"alpha": 0.25}}
        )
        assert scheduler.config.use_bandwidth is False
        assert scheduler.config.priority.alpha == 0.25
        # MLF-H keeps its factory default: no MLF-C load control
        assert scheduler.config.enable_load_control is False

    def test_mlfs_keeps_load_control_default(self):
        assert build_scheduler("MLFS", {"use_urgency": False}).config.enable_load_control

    def test_existing_config_passes_through(self):
        config = MLFSConfig(use_deadline=False)
        assert build_scheduler("MLF-H", config).config is config

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="NoSuch"):
            build_scheduler("NoSuch")

    def test_baseline_config_rejected(self):
        with pytest.raises(ValueError, match="no config"):
            build_scheduler("Tiresias", {"anything": 1})

    def test_policy_rejected_for_policy_free_baseline(self):
        policy = object()
        with pytest.raises(ValueError, match="policy"):
            build_scheduler("FIFO", policy=policy)

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="invalid MLFS config"):
            mlfs_config_from_mapping({"warp_factor": 9})


class TestCommIndexLifecycle:
    def test_rl_baseline_forgets_completed_jobs(self):
        records = generate_trace(8, duration_seconds=1800.0, seed=3)
        scheduler = RLScheduler()
        jobs = build_jobs(records, seed=4)
        metrics = SimulationEngine(scheduler, jobs, Cluster.build(2, 2)).run()
        assert metrics.summary()["jobs"] > 0
        # every completed job's peer cache must have been invalidated
        assert len(scheduler.comm_index) == 0


class TestSweepCLI:
    def test_sweep_verb_writes_results(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = cli_main(
            [
                "sweep",
                "--schedulers",
                "Tiresias,FIFO",
                "--seeds",
                "0",
                "--jobs",
                "5",
                "--servers",
                "2",
                "--gpus-per-server",
                "2",
                "--hours",
                "0.5",
                "--workers",
                "0",
                "--quiet",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert len(document["results"]) == 2
        assert {r["scheduler"] for r in document["results"]} == {"Tiresias", "FIFO"}

    def test_sweep_verb_exit_2_on_failure(self, tmp_path):
        code = cli_main(
            [
                "sweep",
                "--schedulers",
                "NoSuchScheduler",
                "--seeds",
                "0",
                "--jobs",
                "5",
                "--servers",
                "2",
                "--hours",
                "0.5",
                "--workers",
                "0",
                "--quiet",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
