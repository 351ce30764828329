"""End-to-end integration tests across the full stack."""

import dataclasses

import pytest

from repro import api


def spec_for(num_jobs, servers, seed=70, window=3600.0, deadline_hours=(0.5, 6.0)):
    return api.RunSpec(
        scheduler=api.SchedulerSpec("MLF-H"),
        workload=api.WorkloadSpec(
            num_jobs=num_jobs,
            duration_hours=window / 3600.0,
            trace_seed=seed,
            deadline_hours=deadline_hours,
        ),
        cluster=api.ClusterSpec(num_servers=servers, gpus_per_server=4),
        engine=api.EngineConfig(max_time=7 * 24 * 3600.0),
        seed=seed + 1,
    )


def scheduler_axis(*names):
    return {"scheduler": [api.SchedulerSpec(name) for name in names]}


class TestComparisons:
    def test_same_workload_across_schedulers(self):
        grid = api.Grid(spec_for(10, 4), axes=scheduler_axis("MLF-H", "FIFO"))
        records = api.sweep(grid, workers=0).ok()
        assert [r["scheduler"] for r in records] == ["MLF-H", "FIFO"]
        assert all(r["summary"]["jobs"] == 10 for r in records)

    def test_every_registered_scheduler_runs(self):
        spec = api.RunSpec(
            scheduler=api.SchedulerSpec("MLF-H"),
            workload=api.WorkloadSpec(num_jobs=10, duration_hours=0.5, trace_seed=72),
            cluster=api.ClusterSpec(num_servers=4, gpus_per_server=4),
            seed=73,
        )
        names = list(api.SCHEDULER_FACTORIES)
        records = api.sweep(api.Grid(spec, axes=scheduler_axis(*names)), workers=0).ok()
        assert [r["scheduler"] for r in records] == names
        assert all(r["summary"]["jobs"] == 10 for r in records)


class TestPaperShapes:
    """Coarse shape checks under contention (tolerant by design)."""

    @pytest.fixture(scope="class")
    def contended(self):
        grid = api.Grid(
            spec_for(60, 3, seed=73, window=1800.0),
            axes=scheduler_axis("MLFS", "MLF-H", "Graphene", "FIFO"),
        )
        return {r["scheduler"]: r["summary"] for r in api.sweep(grid, workers=0).ok()}

    def test_mlfs_beats_fifo_on_jct(self, contended):
        assert contended["MLFS"]["avg_jct_s"] < contended["FIFO"]["avg_jct_s"]

    def test_mlfs_bandwidth_below_gang_baselines(self, contended):
        assert contended["MLFS"]["bandwidth_gb"] < contended["Graphene"]["bandwidth_gb"]
        assert contended["MLF-H"]["bandwidth_gb"] < contended["FIFO"]["bandwidth_gb"]

    def test_mlfs_deadline_ratio_at_least_fifo(self, contended):
        assert (
            contended["MLFS"]["deadline_ratio"]
            >= contended["FIFO"]["deadline_ratio"] - 0.05
        )

    def test_every_scheduler_finished_everything(self, contended):
        assert all(v["jobs"] == 60 for v in contended.values())


@pytest.mark.slow
class TestAblations:
    def test_migration_reduces_overload_occurrences(self):
        spec = spec_for(50, 2, seed=74, window=1800.0)
        on, off = (
            api.run(
                dataclasses.replace(
                    spec,
                    scheduler=api.SchedulerSpec(
                        "MLF-H",
                        {"enable_migration": migrate, "enable_load_control": False},
                    ),
                )
            )["summary"]
            for migrate in (True, False)
        )
        assert on["migrations"] > 0
        assert off["migrations"] == 0
        assert on["overload_occurrences"] <= off["overload_occurrences"]

    def test_load_control_reduces_jct_under_overload(self):
        spec = spec_for(60, 2, seed=75, window=1800.0)
        with_c = api.run(dataclasses.replace(spec, scheduler=api.SchedulerSpec("MLFS")))
        without_c = api.run(
            dataclasses.replace(spec, scheduler=api.SchedulerSpec("MLF-RL"))
        )
        assert (
            with_c["summary"]["avg_jct_s"] <= without_c["summary"]["avg_jct_s"] * 1.05
        )


class TestStragglers:
    def test_straggler_injection_slows_jobs(self):
        clean = api.RunSpec(
            scheduler=api.SchedulerSpec("MLF-H"),
            workload=api.WorkloadSpec(
                num_jobs=10, duration_hours=600.0 / 3600.0, trace_seed=76
            ),
            cluster=api.ClusterSpec(num_servers=6, gpus_per_server=4),
            seed=77,
        )
        slow = dataclasses.replace(
            clean,
            engine=api.EngineConfig(straggler_probability=0.5, straggler_slowdown=4.0),
        )
        assert (
            api.run(slow)["summary"]["avg_jct_s"]
            > api.run(clean)["summary"]["avg_jct_s"]
        )
