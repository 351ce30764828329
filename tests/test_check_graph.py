"""Tests for the whole-program analyzer (``repro analyze``).

The seeded fixture package ``tests/fixtures/analyze_pkg`` plants at
least one true positive per rule family (REP100–REP103) plus
suppressed and legitimately-excluded variants; these tests pin the
exact findings, the baseline workflow, the SARIF 2.1.0 output, and —
as the regression gate for the daemon fixes this analyzer surfaced —
that the real tree carries no non-baselined findings.
"""

from pathlib import Path

import pytest

from repro.check.graph import (
    BASELINE_FILENAME,
    Finding,
    ModuleInfo,
    Project,
    analyze_paths,
    load_baseline,
    render_json,
    render_text,
    split_by_baseline,
    write_baseline,
)
from repro.check.rules import ANALYZE_RULES, LINT_RULES, REGISTRY, explain, rule_info
from repro.check.sarif import SARIF_VERSION, render_sarif, sarif_log

REPO = Path(__file__).resolve().parents[1]
FIXTURE = REPO / "tests" / "fixtures" / "analyze_pkg"


@pytest.fixture(scope="module")
def findings():
    return analyze_paths([FIXTURE])


def by_rule(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id]


class TestProgramGraph:
    def test_modules_named_from_package_root(self):
        project = Project.load([FIXTURE])
        assert "analyze_pkg.service.daemon" in project.modules
        assert "analyze_pkg.gateway.server" in project.modules

    def test_symbol_table_and_classes(self):
        project = Project.load([FIXTURE])
        assert "analyze_pkg.service.daemon.SchedulerService.flush" in project.functions
        assert "analyze_pkg.sim.engine.SimulationEngine" in project.classes

    def test_attr_type_inference(self):
        project = Project.load([FIXTURE])
        svc = project.classes["analyze_pkg.service.daemon.SchedulerService"]
        assert svc.attr_types["engine"] == "SimulationEngine"
        assert svc.attr_types["telemetry"] == "TelemetryExporter"
        # Annotated attribute (``self.guard: EngineGuard = EngineGuard()``).
        assert svc.attr_types["guard"] == "EngineGuard"
        daemon = project.classes["analyze_pkg.service.daemon.SchedulerDaemon"]
        # Inferred from the annotated constructor parameter.
        assert daemon.attr_types["core"] == "SchedulerService"

    def test_getstate_exclusions_collected(self):
        project = Project.load([FIXTURE])
        svc = project.classes["analyze_pkg.service.daemon.SchedulerService"]
        assert "_handle" in svc.pickle_excluded


class TestCanonicalNames:
    """The one resolver behind the lint and the analyzer."""

    @pytest.mark.parametrize(
        "source, call, canonical",
        [
            ("import numpy.random as npr\n", "npr.shuffle", "numpy.random.shuffle"),
            ("from numpy import random as npr\n", "npr.rand", "numpy.random.rand"),
            ("from numpy.random import rand\n", "rand", "numpy.random.rand"),
            ("from time import time as t\n", "t", "time.time"),
            ("def f():\n    pass\n\nimport time\n", "time.time", "time.time"),
            ("import os.path\n", "os.system", "os.system"),
            ("import numpy as np\n", "np.random.rand", "numpy.random.rand"),
            ("", "print", "print"),
        ],
    )
    def test_resolves_through_imports(self, source, call, canonical):
        module = ModuleInfo.parse(source, Path("m.py"), "m")
        assert module.canonical(call) == canonical


class TestRep100AsyncSafety:
    def test_direct_blocking_call_flags(self, findings):
        hits = by_rule(findings, "REP100")
        direct = [f for f in hits if "time.sleep" in f.message]
        assert len(direct) == 1
        assert direct[0].path.endswith("gateway/server.py")
        assert "poll_workers" in direct[0].message

    def test_transitive_blocking_flags_with_chain(self, findings):
        hits = by_rule(findings, "REP100")
        transitive = [f for f in hits if "flush" in f.message]
        # open() and pickle.dump() inside SchedulerService.flush, both
        # reached via the async handler.
        assert len(transitive) == 2
        for finding in transitive:
            assert "handle_snapshot" in finding.message
            assert "SchedulerService.flush" in finding.message

    def test_awaited_and_suppressed_do_not_flag(self, findings):
        messages = " ".join(f.message for f in by_rule(findings, "REP100"))
        assert "poll_workers_offloaded" not in messages
        assert "handle_pause" not in messages

    def test_fixture_count(self, findings):
        assert len(by_rule(findings, "REP100")) == 3

    def test_submodule_import_keeps_the_package_name(self, tmp_path):
        # ``import os.path`` binds ``os``: ``os.system`` stays ``os.system``.
        service = tmp_path / "pkg" / "service"
        service.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (service / "__init__.py").write_text("")
        (service / "handler.py").write_text(
            "import os.path\n\n\nasync def handle():\n    os.system('true')\n"
        )
        hits = by_rule(analyze_paths([tmp_path / "pkg"]), "REP100")
        assert [f.message for f in hits] == [
            "os.system() on the event loop, reachable from async handle()"
        ]


class TestRep101ProtocolDrift:
    def test_all_drift_classes_flag(self, findings):
        keys = {f.fingerprint_key for f in by_rule(findings, "REP101")}
        assert keys == {
            "unhandled:ghost",
            "unissued:unsent",
            "undeclared-handler:rogue",
            "undeclared-issuer:mystery",
            "param-drift:submit:priority",
        }

    def test_consistent_verbs_do_not_flag(self, findings):
        messages = " ".join(f.message for f in by_rule(findings, "REP101"))
        assert "'status'" not in messages

    def test_suppressed_issue_does_not_flag(self, findings):
        keys = {f.fingerprint_key for f in by_rule(findings, "REP101")}
        assert "undeclared-issuer:covert" not in keys


class TestRep102Picklability:
    def test_lock_and_executor_flag(self, findings):
        keys = {f.fingerprint_key for f in by_rule(findings, "REP102")}
        assert "SchedulerService._lock:a threading.Lock" in keys
        assert "SimulationEngine._pool:an executor" in keys

    def test_type_graph_reaches_held_classes(self, findings):
        # EngineGuard is only reachable via SchedulerService.guard.
        keys = {f.fingerprint_key for f in by_rule(findings, "REP102")}
        assert "EngineGuard._mutex:a threading.Lock" in keys

    def test_getstate_excluded_field_does_not_flag(self, findings):
        assert not any(
            "_handle" in f.fingerprint_key for f in by_rule(findings, "REP102")
        )

    def test_suppressed_field_does_not_flag(self, findings):
        assert not any(
            "_probe" in f.fingerprint_key for f in by_rule(findings, "REP102")
        )


class TestRep103DeterminismTaint:
    def test_taint_through_helper_return_into_digest(self, findings):
        hits = by_rule(findings, "REP103")
        digest = [f for f in hits if "sha256" in f.message]
        assert len(digest) == 1
        assert "time.time()" in digest[0].message
        assert "round_digest" in digest[0].message

    def test_taint_into_telemetry_emit(self, findings):
        hits = by_rule(findings, "REP103")
        telemetry = [f for f in hits if ".emit()" in f.message]
        assert len(telemetry) == 1
        assert "time.time_ns()" in telemetry[0].message

    def test_fixture_count(self, findings):
        assert len(by_rule(findings, "REP103")) == 2


class TestBaseline:
    def test_fingerprints_are_line_independent(self):
        a = Finding("p.py", 10, 0, "REP100", "m", "key")
        b = Finding("p.py", 99, 4, "REP100", "other message", "key")
        assert a.fingerprint == b.fingerprint
        c = Finding("p.py", 10, 0, "REP101", "m", "key")
        assert a.fingerprint != c.fingerprint

    def test_write_load_roundtrip(self, findings, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        count = write_baseline(baseline_path, findings)
        assert count == len(findings)
        accepted = load_baseline(baseline_path)
        new, old = split_by_baseline(findings, accepted)
        assert new == []
        assert len(old) == len(findings)

    def test_new_finding_stays_new(self, findings, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        fresh = Finding("x.py", 1, 0, "REP100", "new", "never-seen")
        new, _ = split_by_baseline([*findings, fresh], load_baseline(baseline_path))
        assert new == [fresh]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == set()


class TestReporters:
    def test_text_report_shape(self, findings):
        text = render_text(findings[:2], baselined=findings[2:3])
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[-1] == "2 new finding(s), 1 baselined"
        assert all(":" in line and "REP" in line for line in lines[:-1])

    def test_json_report_round_trips(self, findings):
        import json

        doc = json.loads(render_json(findings, baselined=[]))
        assert doc["count"] == len(findings)
        assert doc["baselined_count"] == 0
        for entry in doc["findings"]:
            assert set(entry) == {
                "path",
                "line",
                "col",
                "rule",
                "name",
                "message",
                "fingerprint",
            }


class TestSarif:
    def test_log_structure(self, findings):
        log = sarif_log(findings[:3], baselined=findings[3:4])
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"].endswith("sarif-schema-2.1.0.json")
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-analyze"
        assert {r["id"] for r in driver["rules"]} == set(ANALYZE_RULES)
        assert len(run["results"]) == 4

    def test_results_reference_rules_and_locations(self, findings):
        log = sarif_log(findings)
        rule_ids = {r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]}
        for result in log["runs"][0]["results"]:
            assert result["ruleId"] in rule_ids
            assert result["message"]["text"]
            (location,) = result["locations"]
            region = location["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1
            assert "reproAnalyzeFingerprint/v1" in result["partialFingerprints"]

    def test_baselined_results_are_suppressed(self, findings):
        log = sarif_log([], baselined=findings[:2])
        for result in log["runs"][0]["results"]:
            assert result["suppressions"][0]["kind"] == "external"

    def test_validates_against_schema_subset(self, findings):
        jsonschema = pytest.importorskip("jsonschema")
        import json

        # The required-properties core of the SARIF 2.1.0 schema
        # (sarifLog, run, tool, result) per the OASIS spec.
        schema = {
            "type": "object",
            "required": ["version", "runs"],
            "properties": {
                "version": {"const": "2.1.0"},
                "runs": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["tool", "results"],
                        "properties": {
                            "tool": {
                                "type": "object",
                                "required": ["driver"],
                                "properties": {
                                    "driver": {
                                        "type": "object",
                                        "required": ["name"],
                                    }
                                },
                            },
                            "results": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "required": ["message"],
                                    "properties": {
                                        "message": {
                                            "type": "object",
                                            "required": ["text"],
                                        },
                                        "level": {
                                            "enum": [
                                                "none",
                                                "note",
                                                "warning",
                                                "error",
                                            ]
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        }
        log = json.loads(render_sarif(findings, baselined=[]))
        jsonschema.validate(log, schema)


class TestRulesRegistry:
    def test_registry_covers_lint_and_analyze(self):
        assert set(ANALYZE_RULES) == {"REP100", "REP101", "REP102", "REP103"}
        assert set(LINT_RULES) == {f"REP00{i}" for i in range(8)}
        assert set(LINT_RULES) | set(ANALYZE_RULES) | {"TYP001"} == set(REGISTRY)

    def test_lint_rules_alias_registry(self):
        from repro.check.lint import RULES

        assert RULES is LINT_RULES

    def test_explain_renders_all_sections(self):
        text = explain("REP100")
        assert text.startswith("REP100 [async-blocking]")
        for section in ("rationale:", "scope:", "disable:"):
            assert section in text
        assert "repro analyze" in text

    def test_explain_is_case_insensitive(self):
        assert explain("rep103") == explain("REP103")
        assert rule_info("typ001") is not None

    def test_explain_unknown_rule_lists_known(self):
        text = explain("REP999")
        assert "unknown rule" in text
        assert "REP100" in text


class TestRealTreeGate:
    def test_src_has_no_new_findings(self):
        """Regression gate: the daemon fixes hold and nothing new crept in.

        Reverting the off-loop snapshot/restore in service/daemon.py (or
        introducing any new cross-module violation) produces a finding
        whose fingerprint is not in the checked-in baseline.
        """
        findings = analyze_paths([REPO / "src"])
        baseline = load_baseline(REPO / BASELINE_FILENAME)
        new, _ = split_by_baseline(findings, baseline)
        assert new == [], "\n" + render_text(new)

    def test_baseline_entries_still_fire(self):
        """Stale baseline entries should be pruned, not accumulate."""
        findings = analyze_paths([REPO / "src"])
        current = {f.fingerprint for f in findings}
        assert load_baseline(REPO / BASELINE_FILENAME) <= current


class TestCliEntry:
    def test_main_explain_exits_zero(self, capsys):
        from repro.check import graph

        assert graph.main(["--explain", "REP102"]) == 0
        out = capsys.readouterr().out
        assert "snapshot" in out

    def test_main_json_gate_on_fixture(self, capsys, tmp_path):
        from repro.check import graph

        code = graph.main(
            [str(FIXTURE), "--format", "json", "--no-baseline"]
        )
        assert code == 1
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] > 0

    def test_main_write_baseline_then_clean(self, capsys, tmp_path):
        from repro.check import graph

        baseline = tmp_path / "b.json"
        assert (
            graph.main([str(FIXTURE), "--write-baseline", "--baseline", str(baseline)])
            == 0
        )
        capsys.readouterr()
        assert (
            graph.main([str(FIXTURE), "--baseline", str(baseline)]) == 0
        )
        out = capsys.readouterr().out
        assert "0 new finding(s)" in out
