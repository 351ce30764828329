"""Unit tests for the repo-specific AST lint (``repro.check.lint``).

Each rule gets a positive case (the violation is reported) and a
suppressed case (the same code with an inline
``# repro-lint: disable=...`` escape hatch passes).  The seeded fixture
``tests/fixtures/lint_violations.py`` pins the full catalogue: linting
it must yield exactly one finding per rule.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check.lint import (
    FULL_SCOPE,
    SCRIPT_SCOPE,
    FileScope,
    RULES,
    lint_file,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    scope_for_path,
)

FIXTURE = Path(__file__).parent / "fixtures" / "lint_violations.py"
SRC = Path(__file__).parent.parent / "src"

LIBRARY_ONLY = FileScope(clocked=False, library=True)


def rule_ids(source: str, scope: FileScope = FULL_SCOPE) -> list[str]:
    return [v.rule_id for v in lint_source(source, scope=scope)]


class TestRep001WallClock:
    def test_time_time(self):
        assert rule_ids("import time\nt = time.time()\n") == ["REP001"]

    def test_time_time_ns_aliased(self):
        assert rule_ids("import time as _t\nt = _t.time_ns()\n") == ["REP001"]

    def test_from_import(self):
        assert rule_ids("from time import time\nt = time()\n") == ["REP001"]

    def test_datetime_now(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert rule_ids(src) == ["REP001"]

    def test_datetime_module_utcnow(self):
        src = "import datetime\nd = datetime.datetime.utcnow()\n"
        assert rule_ids(src) == ["REP001"]

    @pytest.mark.parametrize(
        "src",
        [
            # The alias maps cover the whole file, so a function defined
            # above a later module-level import still resolves.
            "def stamp():\n    return time.time()\n\nimport time\n",
            "from time import time as t\nx = t()\n",
        ],
    )
    def test_resolved_aliases(self, src):
        assert rule_ids(src) == ["REP001"]

    def test_monotonic_allowed(self):
        # Only wall-clock reads are rejected; perf counters are fine.
        assert rule_ids("import time\nt = time.perf_counter()\n") == []

    def test_not_clocked_scope(self):
        src = "import time\nt = time.time()\n"
        assert rule_ids(src, scope=LIBRARY_ONLY) == []

    def test_suppressed(self):
        src = "import time\nt = time.time()  # repro-lint: disable=REP001\n"
        assert rule_ids(src) == []


class TestRep002GlobalRng:
    def test_random_module(self):
        assert rule_ids("import random\nx = random.choice([1, 2])\n") == ["REP002"]

    def test_from_import(self):
        assert rule_ids("from random import randint\nx = randint(0, 9)\n") == [
            "REP002"
        ]

    def test_numpy_global(self):
        assert rule_ids("import numpy as np\nx = np.random.rand(3)\n") == ["REP002"]

    @pytest.mark.parametrize(
        "src",
        [
            "import numpy.random as npr\nnpr.shuffle(x)\n",
            "from numpy import random as npr\nx = npr.rand()\n",
            "from numpy.random import rand\nx = rand()\n",
        ],
    )
    def test_resolved_numpy_aliases(self, src):
        assert rule_ids(src) == ["REP002"]

    @pytest.mark.parametrize(
        "src",
        [
            "import numpy as np\nrng = np.random.default_rng()\n",
            "import numpy as np\nrng = np.random.RandomState(None)\n",
            "import random\nrng = random.Random()\n",
        ],
    )
    def test_unseeded_constructor_flagged(self, src):
        # Without a seed the generator seeds itself from OS entropy.
        assert rule_ids(src) == ["REP002"]

    @pytest.mark.parametrize(
        "src",
        [
            "import numpy as np\nrng = np.random.default_rng(5)\n",
            "import numpy as np\nss = np.random.SeedSequence(entropy=5)\n",
            "from numpy.random import RandomState\nrng = RandomState(7)\n",
        ],
    )
    def test_seeded_constructor_allowed(self, src):
        assert rule_ids(src) == []

    def test_injected_rng_allowed(self):
        src = "import random\nrng = random.Random(7)\nx = rng.random()\n"
        assert rule_ids(src) == []

    def test_not_clocked_scope(self):
        src = "import random\nx = random.random()\n"
        assert rule_ids(src, scope=LIBRARY_ONLY) == []

    def test_suppressed(self):
        src = "import random\nrandom.seed(1)  # repro-lint: disable=REP002\n"
        assert rule_ids(src) == []


class TestRep003MutableDefault:
    def test_list_literal(self):
        assert rule_ids("def f(x=[]):\n    return x\n") == ["REP003"]

    def test_dict_call(self):
        assert rule_ids("def f(x=dict()):\n    return x\n") == ["REP003"]

    def test_kwonly_default(self):
        assert rule_ids("def f(*, x={}):\n    return x\n") == ["REP003"]

    def test_none_default_allowed(self):
        assert rule_ids("def f(x=None):\n    return x\n") == []

    def test_tuple_default_allowed(self):
        assert rule_ids("def f(x=()):\n    return x\n") == []

    def test_suppressed(self):
        src = "def f(x=[]):  # repro-lint: disable=REP003\n    return x\n"
        assert rule_ids(src) == []


class TestRep004BareExcept:
    def test_bare(self):
        src = "try:\n    pass\nexcept:\n    pass\n"
        assert rule_ids(src) == ["REP004"]

    def test_typed_allowed(self):
        src = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert rule_ids(src) == []

    def test_suppressed(self):
        src = "try:\n    pass\nexcept:  # repro-lint: disable=REP004\n    pass\n"
        assert rule_ids(src) == []


class TestRep005FloatPriorityEq:
    def test_score_names(self):
        src = "def f(score, other_score):\n    return score == other_score\n"
        assert rule_ids(src) == ["REP005"]

    def test_priority_attribute(self):
        src = "def f(task, x):\n    return task.priority != x\n"
        assert rule_ids(src) == ["REP005"]

    def test_int_wrapped_allowed(self):
        src = "def f(scores, k):\n    return int(scores[0]) == k\n"
        assert rule_ids(src) == []

    def test_string_guard_allowed(self):
        src = "def f(score_kind):\n    return score_kind == 'exact'\n"
        assert rule_ids(src) == []

    def test_non_score_names_allowed(self):
        assert rule_ids("def f(a, b):\n    return a == b\n") == []

    def test_suppressed(self):
        src = (
            "def f(score, other_score):\n"
            "    return score == other_score  # repro-lint: disable=REP005\n"
        )
        assert rule_ids(src) == []


class TestRep006PrintInLibrary:
    def test_print(self):
        assert rule_ids("print('hello')\n") == ["REP006"]

    def test_entrypoint_exempt(self):
        scope = scope_for_path(SRC / "repro" / "cli.py")
        assert rule_ids("print('usage: ...')\n", scope=scope) == []

    def test_suppressed(self):
        assert rule_ids("print('x')  # repro-lint: disable=REP006\n") == []

    def test_disable_all(self):
        assert rule_ids("print('x')  # repro-lint: disable=all\n") == []


class TestRep007NondeterministicId:
    def test_uuid4(self):
        assert rule_ids("import uuid\nx = uuid.uuid4()\n") == ["REP007"]

    def test_from_import(self):
        assert rule_ids("from uuid import uuid4\nx = uuid4()\n") == ["REP007"]

    def test_secrets(self):
        assert rule_ids("import secrets\nx = secrets.token_hex(8)\n") == [
            "REP007"
        ]

    def test_os_urandom(self):
        assert rule_ids("import os\nx = os.urandom(8)\n") == ["REP007"]

    def test_untraced_scope_allowed(self):
        src = "import uuid\nx = uuid.uuid4()\n"
        assert rule_ids(src, scope=LIBRARY_ONLY) == []

    def test_deterministic_uuid5_still_flagged(self):
        # uuid5 is content-addressed but namespace-dependent; the repo
        # standard is repro.obs.tracectx, so it is rejected too.
        src = "import uuid\nx = uuid.uuid5(uuid.NAMESPACE_DNS, 'a')\n"
        assert rule_ids(src) == ["REP007"]

    def test_os_path_allowed(self):
        assert rule_ids("import os\nx = os.path.exists('/tmp')\n") == []

    def test_suppressed(self):
        src = "import uuid\nx = uuid.uuid4()  # repro-lint: disable=REP007\n"
        assert rule_ids(src) == []


class TestScoping:
    def test_sim_package_is_clocked(self):
        scope = scope_for_path(SRC / "repro" / "sim" / "engine.py")
        assert scope.clocked and scope.library

    def test_obs_package_is_traced(self):
        scope = scope_for_path(SRC / "repro" / "obs" / "tracectx.py")
        assert scope.traced and not scope.clocked

    def test_gateway_and_service_are_traced(self):
        assert scope_for_path(SRC / "repro" / "gateway" / "server.py").traced
        assert scope_for_path(SRC / "repro" / "service" / "daemon.py").traced

    def test_sim_package_not_traced(self):
        assert not scope_for_path(SRC / "repro" / "sim" / "engine.py").traced

    def test_analysis_package_not_clocked(self):
        scope = scope_for_path(SRC / "repro" / "analysis" / "cdf.py")
        assert not scope.clocked and scope.library

    def test_main_module_not_library(self):
        scope = scope_for_path(SRC / "repro" / "__main__.py")
        assert not scope.library

    def test_outside_repro_gets_full_scope(self):
        assert scope_for_path(FIXTURE) == FULL_SCOPE


class TestReportsAndCatalogue:
    def test_syntax_error_is_rep000(self):
        violations = lint_source("def broken(:\n")
        assert [v.rule_id for v in violations] == ["REP000"]

    def test_fixture_yields_exactly_the_catalogue(self):
        violations = lint_file(FIXTURE)
        assert sorted(v.rule_id for v in violations) == [
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
            "REP007",
        ]

    def test_render_text_shape(self):
        violations = lint_file(FIXTURE)
        text = render_text(violations)
        assert text.endswith("7 violation(s)")
        assert f"{FIXTURE}" in text.splitlines()[0]

    def test_render_json_round_trips(self):
        violations = lint_file(FIXTURE)
        payload = json.loads(render_json(violations))
        assert payload["count"] == 7
        assert {v["rule"] for v in payload["violations"]} == set(RULES) - {"REP000"}
        for entry in payload["violations"]:
            assert entry["name"] == RULES[entry["rule"]].name

    def test_source_tree_is_clean(self):
        # The acceptance gate: `repro lint src/` exits 0 on the final tree.
        assert lint_paths([SRC]) == []


class TestEntrypointDirScoping:
    """examples/ and benchmarks/ are entry-point scripts: hygiene only."""

    REPO = Path(__file__).resolve().parents[1]

    def test_examples_get_script_scope(self):
        scope = scope_for_path(self.REPO / "examples" / "online_service_demo.py")
        assert scope == SCRIPT_SCOPE
        assert not scope.library and not scope.clocked and not scope.traced

    def test_benchmarks_get_script_scope(self):
        path = self.REPO / "benchmarks" / "bench_fig4_overall.py"
        assert path.is_file()
        assert scope_for_path(path) == SCRIPT_SCOPE

    def test_tests_keep_full_scope(self):
        assert scope_for_path(self.REPO / "tests" / "conftest.py") == FULL_SCOPE

    def test_extended_tree_is_clean(self):
        # The extended-lint CI gate: every rule but REP005 (tests assert
        # exact float equality on purpose) over tests/, benchmarks/ and
        # examples/, skipping the seeded fixtures.
        violations = lint_paths(
            [self.REPO / "tests", self.REPO / "benchmarks", self.REPO / "examples"],
            exclude=("tests/fixtures",),
            select={"REP001", "REP002", "REP003", "REP004", "REP006", "REP007"},
        )
        assert violations == []


class TestMainFlags:
    """--select / --exclude / --explain on the lint entry point."""

    def test_exclude_skips_fixture_catalogue(self):
        fixture_dir = Path(__file__).parent / "fixtures"
        assert lint_paths([fixture_dir], exclude=("fixtures",)) == []
        assert lint_paths([FIXTURE]) != []

    def test_select_filters_rules(self, capsys):
        from repro.check import lint as lint_mod

        code = lint_mod.main([str(FIXTURE), "--select", "REP004", "--format", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert {v["rule"] for v in doc["violations"]} == {"REP004"}

    def test_select_unknown_rule_errors(self):
        from repro.check import lint as lint_mod

        with pytest.raises(SystemExit):
            lint_mod.main([str(FIXTURE), "--select", "REP999"])

    def test_explain_prints_rule_doc(self, capsys):
        from repro.check import lint as lint_mod

        assert lint_mod.main(["--explain", "REP006"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("REP006 [print-in-library]")
        assert "rationale:" in out and "disable:" in out

    def test_cli_forwards_argv_to_the_tool(self, capsys):
        from repro.cli import main

        assert main(["lint", str(FIXTURE), "--select", "REP004", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [v["rule"] for v in doc["violations"]] == ["REP004"]

    def test_cli_help_is_the_tools_own(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["lint", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: repro lint")
        assert "--select" in out and "--explain" in out
