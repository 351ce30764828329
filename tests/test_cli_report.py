"""Tests for the CLI and the Markdown report generator."""

import pytest

from repro import api
from repro.analysis import best_scheduler, improvement_over, render_report
from repro.analysis.cdf import percentile
from repro.baselines import TiresiasScheduler
from repro.cli import build_parser, main
from repro.cluster import Cluster
from repro.schedulers import scheduler_by_name
from repro.sim import EngineConfig, SimulationEngine
from repro.workload import build_jobs, generate_trace, read_trace, write_trace


@pytest.fixture(scope="module")
def comparison_results():
    spec = api.RunSpec(
        scheduler=api.SchedulerSpec("MLF-H"),
        workload=api.WorkloadSpec(num_jobs=8, duration_hours=0.25, trace_seed=100),
        cluster=api.ClusterSpec(num_servers=4, gpus_per_server=4),
        seed=101,
    )
    records = [
        api.run(api.replace_path(spec, "scheduler", api.SchedulerSpec(name)))
        for name in ("MLF-H", "FIFO")
    ]
    return {record["scheduler"]: record for record in records}


class TestReport:
    def test_render_contains_sections(self, comparison_results):
        report = render_report(comparison_results, title="Test run")
        assert "# Test run" in report
        assert "## Headline metrics" in report
        assert "## Winners" in report
        assert "## JCT distribution" in report
        assert "MLF-H" in report and "FIFO" in report

    def test_empty_results_raise(self):
        with pytest.raises(ValueError):
            render_report({})

    def test_unknown_reference_raises(self, comparison_results):
        with pytest.raises(KeyError):
            render_report(comparison_results, reference="nope")

    def test_best_scheduler_direction(self, comparison_results):
        name_jct, value_jct = best_scheduler(comparison_results, "avg_jct_s")
        for record in comparison_results.values():
            assert record["summary"]["avg_jct_s"] >= value_jct - 1e-9
        name_acc, value_acc = best_scheduler(comparison_results, "avg_accuracy")
        for record in comparison_results.values():
            assert record["summary"]["avg_accuracy"] <= value_acc + 1e-9
        name_oh, value_oh = best_scheduler(comparison_results, "overhead_ms")
        for record in comparison_results.values():
            assert record["measured"]["overhead_ms"] >= value_oh

    def test_improvement_sign_convention(self, comparison_results):
        winner, _ = best_scheduler(comparison_results, "avg_jct_s")
        other = next(n for n in comparison_results if n != winner)
        assert improvement_over(comparison_results, "avg_jct_s", winner, other) >= 0.0

    def test_jct_distribution_from_records(self, comparison_results):
        section = render_report(comparison_results).split("## JCT distribution")[1]
        for name, record in comparison_results.items():
            jcts = [jct for jct, _fraction in record["jct_cdf"]]
            assert len(jcts) == record["summary"]["jobs"]
            expected = [percentile(jcts, q) for q in (50.0, 90.0, 99.0)] + [max(jcts)]
            row = next(line for line in section.splitlines() if line.startswith(name))
            assert [float(cell) for cell in row.split()[1:]] == [
                round(value, 1) for value in expected
            ]

    def test_sweep_records_refused(self, comparison_results):
        spec = api.RunSpec.from_json(comparison_results["FIFO"]["spec"])
        (record,) = api.sweep([spec], workers=0).ok()
        assert "measured" not in record
        with pytest.raises(ValueError, match="takes api.run records"):
            render_report({"FIFO": record})


class TestCLI:
    def test_scheduler_by_name_exits_on_unknown(self):
        with pytest.raises(SystemExit, match="unknown scheduler 'nope'"):
            scheduler_by_name("nope")

    def test_unknown_scheduler_exits(self, tmp_path):
        trace_path = tmp_path / "t.csv"
        write_trace(generate_trace(2, duration_seconds=600.0, seed=5), trace_path)
        with pytest.raises(SystemExit, match="unknown scheduler 'nope'"):
            main(["run", "--trace", str(trace_path), "--scheduler", "nope"])

    def test_compare_checks_every_name_before_running(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        write_trace(generate_trace(2, duration_seconds=600.0, seed=5), trace_path)
        with pytest.raises(SystemExit, match="unknown scheduler 'nope'"):
            main(["compare", "--trace", str(trace_path), "--schedulers", "FIFO,nope"])
        assert capsys.readouterr().out == ""

    def test_run_matches_direct_engine(self, tmp_path, capsys):
        records = generate_trace(6, duration_seconds=900.0, seed=7)
        trace_path = tmp_path / "t.csv"
        write_trace(records, trace_path)
        argv = ["run", "--trace", str(trace_path), "--scheduler", "Tiresias"]
        assert main(argv + ["--servers", "3", "--seed", "4", "--tick-seconds", "30"]) == 0
        printed = dict(line.split() for line in capsys.readouterr().out.splitlines())
        engine = SimulationEngine(
            TiresiasScheduler(),
            build_jobs(read_trace(trace_path), seed=4),
            Cluster.build(3, 4),
            EngineConfig(tick_seconds=30.0),
        )
        summary = engine.run().summary()
        assert printed.keys() == summary.keys()
        for key in summary.keys() - {"overhead_ms"}:
            assert printed[key] == f"{summary[key]:.3f}", key

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_command(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(["trace", "--jobs", "5", "--hours", "0.2", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote 5 jobs" in capsys.readouterr().out

    def test_run_command(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        write_trace(generate_trace(4, duration_seconds=600.0, seed=5), trace_path)
        code = main(
            [
                "run",
                "--trace",
                str(trace_path),
                "--scheduler",
                "FIFO",
                "--servers",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "avg_jct_s" in out and "overhead_ms" in out

    def test_compare_command_writes_report(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        write_trace(generate_trace(4, duration_seconds=600.0, seed=6), trace_path)
        report_path = tmp_path / "report.md"
        code = main(
            [
                "compare",
                "--trace",
                str(trace_path),
                "--servers",
                "4",
                "--schedulers",
                "FIFO,Graphene",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        text = report_path.read_text()
        assert "## Headline metrics" in text
        assert "Graphene" in text
