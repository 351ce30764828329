"""The strict-typing gate (``repro typecheck``).

Two layers, so the gate is enforceable everywhere:

* **mypy** (when installed): runs ``mypy`` with the ``[tool.mypy]``
  configuration in ``pyproject.toml`` -- strict on ``repro.core``,
  ``repro.cluster`` and ``repro.check``, permissive elsewhere.  This is
  what CI runs; lint/type failures block the build.
* **AST annotation gate** (when mypy is not installed): TYP001, a
  dependency-free rule that every function in the strict packages
  carries complete parameter and return annotations.  It covers the
  load-bearing half of mypy's ``disallow_untyped_defs``/
  ``disallow_incomplete_defs`` so local environments without mypy still
  enforce the contract.  It is one more rule of :mod:`repro.check.lint`,
  run over the same parse.

Waive a single definition with the same escape hatch the lint uses::

    def legacy(cb):  # repro-lint: disable=TYP001
        ...
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.check.graph import Finding, require_paths
from repro.check.lint import lint_paths

__all__ = [
    "STRICT_PACKAGES",
    "check_annotations",
    "main",
    "mypy_available",
    "run_mypy",
]

#: Packages held to the strict standard (mirrors ``pyproject.toml``).
#: Entries may name a package directory or a single module file.
STRICT_PACKAGES = ("core", "cluster", "check", "exp", "api.py")


def check_annotations(paths: Sequence[str | Path]) -> list[Finding]:
    """TYP001 findings under ``paths`` (REP000 for files that do not parse)."""
    return lint_paths(paths, select=("REP000", "TYP001"))


def strict_paths(src_root: str | Path = "src") -> list[Path]:
    """The strict packages and modules present under ``src_root``."""
    root = Path(src_root) / "repro"
    return [root / package for package in STRICT_PACKAGES if (root / package).exists()]


def mypy_available() -> bool:
    """Whether the real mypy is importable in this environment."""
    try:
        import mypy  # noqa: F401
    except ImportError:
        return False
    return True


def run_mypy(src_root: str | Path = "src") -> int:
    """Run mypy over the strict packages with the pyproject config."""
    cmd = [
        sys.executable,
        "-m",
        "mypy",
        *(str(p) for p in strict_paths(src_root)),
    ]
    return subprocess.run(cmd, check=False).returncode


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro typecheck``.

    Runs real mypy when installed, else the TYP001 annotation gate.
    Exit status 1 on findings.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro typecheck", description="strict-typing gate"
    )
    parser.add_argument(
        "--src", default="src", help="source root containing the repro package"
    )
    args = parser.parse_args(argv)
    require_paths(parser.prog, [args.src])
    if mypy_available():
        return run_mypy(args.src)
    gaps = check_annotations(strict_paths(args.src))
    for gap in gaps:
        line = f"{gap.path}:{gap.line}: {gap.rule_id} {gap.message}"
        print(line)  # repro-lint: disable=REP006
    print(  # repro-lint: disable=REP006
        f"{len(gaps)} annotation gap(s) (mypy not installed; AST annotation gate)"
    )
    return 1 if gaps else 0


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    sys.exit(main())
