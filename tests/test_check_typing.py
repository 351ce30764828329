"""Tests for the TYP001 annotation gate (``repro typecheck`` without mypy).

TYP001 is a rule of the per-file lint, run over the same parse; these
tests call it directly through ``lint_source(..., select=...)`` and
drive ``repro typecheck``'s fallback path with mypy reported missing.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.check import typing_gate
from repro.check.lint import lint_source

SRC = Path(__file__).resolve().parents[1] / "src"


def typ001(source: str) -> list[str]:
    return [f.message for f in lint_source(source, select={"TYP001"})]


class TestTyp001:
    def test_missing_parameter_annotation(self):
        assert typ001("def f(x, y: int) -> int:\n    return y\n") == [
            "f() missing annotation for 'x'"
        ]

    def test_missing_return_annotation(self):
        assert typ001("async def f(x: int):\n    return x\n") == [
            "f() missing return annotation"
        ]

    def test_star_args_and_kwargs(self):
        assert typ001("def f(*args, **kwargs) -> None:\n    pass\n") == [
            "f() missing annotation for '*args', annotation for '**kwargs'"
        ]

    def test_keyword_only_parameter(self):
        assert typ001("def f(*, k) -> None:\n    pass\n") == [
            "f() missing annotation for 'k'"
        ]

    def test_nested_function_checked(self):
        src = "def outer() -> None:\n    def inner(x):\n        pass\n"
        assert typ001(src) == [
            "inner() missing annotation for 'x', return annotation"
        ]

    def test_self_and_cls_exempt(self):
        src = (
            "class C:\n"
            "    def m(self, x: int) -> None:\n"
            "        pass\n"
            "\n"
            "    @classmethod\n"
            "    def k(cls) -> None:\n"
            "        pass\n"
        )
        assert typ001(src) == []

    def test_self_exempt_only_in_first_position(self):
        src = "def f(x: int, self) -> None:\n    pass\n"
        assert typ001(src) == ["f() missing annotation for 'self'"]

    def test_waiver(self):
        src = "def f(x):  # repro-lint: disable=TYP001\n    return x\n"
        assert typ001(src) == []

    def test_waiver_names_the_rule(self):
        src = "def f(x):  # repro-lint: disable=REP003\n    return x\n"
        assert len(typ001(src)) == 1

    def test_not_part_of_the_lint(self):
        # `repro lint` runs REP000-REP007 only; TYP001 is typecheck's.
        assert lint_source("def f(x):\n    return x\n") == []

    def test_strict_packages_are_clean(self):
        assert typing_gate.check_annotations(typing_gate.strict_paths(SRC)) == []


class TestFallbackGate:
    @pytest.fixture()
    def src_root(self, tmp_path, monkeypatch):
        monkeypatch.setattr(typing_gate, "mypy_available", lambda: False)
        (tmp_path / "repro" / "core").mkdir(parents=True)
        (tmp_path / "repro" / "api.py").write_text("")
        return tmp_path

    def test_reports_gaps_and_exits_one(self, src_root, capsys):
        module = src_root / "repro" / "core" / "m.py"
        module.write_text("def f(x):\n    return x\n")
        assert typing_gate.main(["--src", str(src_root)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [
            f"{module}:1: TYP001 f() missing annotation for 'x', return annotation",
            "1 annotation gap(s) (mypy not installed; AST annotation gate)",
        ]

    def test_syntax_error_fails_the_gate(self, src_root, capsys):
        (src_root / "repro" / "core" / "bad.py").write_text("def broken(:\n")
        assert typing_gate.main(["--src", str(src_root)]) == 1
        assert ": REP000 syntax error" in capsys.readouterr().out

    def test_clean_tree_exits_zero(self, src_root, capsys):
        ok = src_root / "repro" / "core" / "ok.py"
        ok.write_text("def f(x: int) -> int:\n    return x\n")
        assert typing_gate.main(["--src", str(src_root)]) == 0
        assert capsys.readouterr().out.startswith("0 annotation gap(s)")
