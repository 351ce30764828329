"""Repo-specific AST lint (``repro lint``).

The simulator's determinism contract (snapshot/resume replays the exact
schedule; two same-seed runs are bit-identical) survives only if
simulated code never reads the wall clock and never draws from a global
RNG -- every random draw must come from an injected
``random.Random(seed)`` and every timestamp from the simulation clock.
Generic linters cannot know that, so this one encodes the repo rules:

=======  =====================================================  ==================
Rule     What it rejects                                        Where
=======  =====================================================  ==================
REP001   ``time.time()`` / ``datetime.now()`` wall-clock reads  core, sim,
         in simulated code                                      workload,
                                                                learncurve
REP002   module-level RNG draws (``random.random()``,           core, sim,
         ``np.random.*``) instead of an injected                workload,
         ``random.Random``                                      learncurve
REP003   mutable default arguments                              all of ``src/``
REP004   bare ``except:``                                       all of ``src/``
REP005   float ``==``/``!=`` on priority/score values           all of ``src/``
REP006   ``print()`` in library code (route through             all but entry
         :mod:`repro.obs`)                                      points (``cli.py``,
                                                                ``__main__.py``,
                                                                ``examples/``,
                                                                ``benchmarks/``)
REP007   non-deterministic ID sources (``uuid.*``,              obs, service,
         ``os.urandom``, ``secrets.*``) -- trace/span ids       gateway
         must derive via :mod:`repro.obs.tracectx`
=======  =====================================================  ==================

The lint has no parser of its own: each rule runs over the analyzer's
pass-1 :class:`~repro.check.graph.ModuleInfo`, and every call is
resolved to its canonical dotted name through the module's import maps
(``import numpy.random as npr; npr.shuffle(x)`` is
``numpy.random.shuffle``), so REP001/REP002/REP007 are lookups in the
canonical-name tables below.  RNG constructors (``random.Random``,
``numpy.random.default_rng``/``RandomState``/``SeedSequence``) pass
when given a seed and are REP002 findings without one, because then
they seed from entropy.  TYP001, the annotation gate behind ``repro
typecheck``, is one more rule over the same parse.

Files outside the ``repro`` package (fixtures, scripts) are linted with
*every* rule active.  Any finding can be waived for one line with an
inline escape hatch::

    t = time.time()  # repro-lint: disable=REP001
    x = eval(s)      # repro-lint: disable=all

Run it as ``repro lint [paths...] --format text|json`` or
``python -m repro.check.lint``; exit status is 1 when violations remain.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

from repro.check.graph import (
    Finding,
    ModuleInfo,
    dotted_name,
    iter_python_files,
    render_json,
    render_text,
    require_paths,
)
from repro.check.rules import LINT_RULES, RuleInfo

__all__ = [
    "CHECKS",
    "RULES",
    "FileScope",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
    "render_json",
    "render_text",
    "scope_for_path",
]

#: The lint rule catalogue (REP000–REP007), filtered from the registry.
RULES: dict[str, RuleInfo] = LINT_RULES

#: Subpackages of ``repro`` whose code runs under the simulation clock.
CLOCKED_PACKAGES = frozenset({"core", "sim", "workload", "learncurve"})

#: Subpackages that stamp protocol-visible identifiers (trace/span/job
#: ids); REP007 keeps every ID in them a pure function of the seed.
TRACED_PACKAGES = frozenset({"obs", "service", "gateway"})

#: Top-level modules allowed to print (user-facing entry points).
ENTRYPOINT_MODULES = frozenset({"cli.py", "__main__.py"})

#: Repo directories holding runnable scripts: like ``cli.py``, their UI
#: *is* stdout and they run in real (wall-clock) time, so the library
#: and simulation-scoped rules do not apply.
ENTRYPOINT_DIRS = frozenset({"examples", "benchmarks"})

#: ``random`` module functions that draw from (or reseed) the global RNG.
_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "binomialvariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "getstate",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "setstate",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: REP001: wall-clock reads, by canonical name.
WALL_CLOCK = frozenset(
    {"time.time", "time.time_ns"}
    | {
        f"datetime.{cls}.{func}"
        for cls in ("datetime", "date")
        for func in ("now", "utcnow", "today")
    }
)

#: REP002: draws from the process-global RNGs.  Every callable directly
#: in ``numpy.random`` counts, so that module is listed whole.
GLOBAL_RNG = frozenset(f"random.{func}" for func in _RANDOM_FUNCS)
GLOBAL_RNG_MODULES = frozenset({"numpy.random"})

#: REP002: RNG constructors, clean with a seed and flagged without one.
SEEDED_RNG = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
    }
)

#: REP007: machine/time/entropy-bound ID sources (all of ``secrets``).
ID_SOURCES = frozenset(
    {f"uuid.{func}" for func in ("uuid1", "uuid3", "uuid4", "uuid5", "getnode")}
    | {"os.urandom"}
)
ID_SOURCE_MODULES = frozenset({"secrets"})

#: Identifier fragments that mark a value as a priority/score (REP005).
_PRIORITY_NAME = re.compile(r"prio|score", re.IGNORECASE)

#: Calls producing integral values; operands wrapped in these are
#: index/count comparisons, not float score comparisons (REP005).
_INTEGRAL_CALLS = frozenset({"int", "len", "round", "argmax", "argmin", "index", "count"})


@dataclass(frozen=True)
class FileScope:
    """Which scoped rule groups apply to one file."""

    clocked: bool
    library: bool
    traced: bool = False


#: Scope for files outside the repo package: everything applies.
FULL_SCOPE = FileScope(clocked=True, library=True, traced=True)

#: Scope for entry-point scripts (examples/, benchmarks/): hygiene rules
#: only — they print to stdout and run in real time by design.
SCRIPT_SCOPE = FileScope(clocked=False, library=False, traced=False)


def scope_for_path(path: Path) -> FileScope:
    """Determine the rule scope of a file from its location.

    Files under ``repro/<pkg>/`` get the clocked rules only when
    ``<pkg>`` simulates time; ``repro/cli.py`` and ``repro/__main__.py``
    are exempt from the print rule.  Files not under a ``repro`` package
    at all (fixtures, one-off scripts) are checked with every rule.
    """
    parts = path.resolve().parts
    if "repro" not in parts:
        if ENTRYPOINT_DIRS & set(parts):
            return SCRIPT_SCOPE
        return FULL_SCOPE
    rel = parts[len(parts) - 1 - parts[::-1].index("repro") + 1 :]
    if not rel:  # the package directory itself
        return FULL_SCOPE
    clocked = rel[0] in CLOCKED_PACKAGES
    library = not (len(rel) == 1 and rel[0] in ENTRYPOINT_MODULES)
    traced = rel[0] in TRACED_PACKAGES
    return FileScope(clocked=clocked, library=library, traced=traced)


#: What a rule yields for one module: the node to report and a message.
_Hits = Iterator[tuple[ast.AST, str]]


def _calls(module: ModuleInfo) -> Iterator[tuple[ast.Call, str, str]]:
    """Every call with a static callee: (node, name as written, canonical name)."""
    for node in module.nodes:
        if isinstance(node, ast.Call):
            text = dotted_name(node.func)
            if text is not None:
                yield node, text, module.canonical(text)


def _in_table(name: str, names: frozenset[str], modules: frozenset[str]) -> bool:
    return name in names or name.rpartition(".")[0] in modules


def _wall_clock(module: ModuleInfo, scope: FileScope) -> _Hits:
    if scope.clocked:
        for node, text, name in _calls(module):
            if name in WALL_CLOCK:
                yield node, f"wall-clock call {text}()"


def _global_rng(module: ModuleInfo, scope: FileScope) -> _Hits:
    if not scope.clocked:
        return
    for node, text, name in _calls(module):
        if name in SEEDED_RNG:
            seeds = [*node.args, *(kw.value for kw in node.keywords)]
            if all(isinstance(s, ast.Constant) and s.value is None for s in seeds):
                yield node, f"unseeded RNG {text}() seeds from entropy"
        elif _in_table(name, GLOBAL_RNG, GLOBAL_RNG_MODULES):
            kind = "NumPy RNG" if name.startswith("numpy.") else "RNG"
            yield node, f"global {kind} call {text}()"


def _mutable_default(module: ModuleInfo, scope: FileScope) -> _Hits:
    for node in module.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            for default in [*args.defaults, *args.kw_defaults]:
                if default is not None and _is_mutable_literal(default):
                    name = getattr(node, "name", "<lambda>")
                    yield default, f"mutable default argument in {name}()"


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "dict", "set", "bytearray")
    )


def _bare_except(module: ModuleInfo, scope: FileScope) -> _Hits:
    for node in module.nodes:
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield node, "bare except: catches SystemExit too"


def _float_priority_eq(module: ModuleInfo, scope: FileScope) -> _Hits:
    for node in module.nodes:
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        # String/None comparisons are identity-ish, not float equality.
        if any(
            isinstance(op, ast.Constant) and (op.value is None or isinstance(op.value, str))
            for op in operands
        ):
            continue
        for operand in operands:
            name = _priority_identifier(operand)
            if name is not None:
                yield node, f"float equality on priority/score value {name!r}"
                break


def _priority_identifier(operand: ast.expr) -> Optional[str]:
    if isinstance(operand, ast.Call):
        func = operand.func
        func_name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if func_name in _INTEGRAL_CALLS:
            return None
    for sub in ast.walk(operand):
        if isinstance(sub, ast.Name) and _PRIORITY_NAME.search(sub.id):
            return sub.id
        if isinstance(sub, ast.Attribute) and _PRIORITY_NAME.search(sub.attr):
            return sub.attr
    return None


def _print_in_library(module: ModuleInfo, scope: FileScope) -> _Hits:
    if scope.library:
        for node in module.nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield node, "print() call in library code"


def _nondeterministic_id(module: ModuleInfo, scope: FileScope) -> _Hits:
    if scope.traced:
        for node, text, name in _calls(module):
            if _in_table(name, ID_SOURCES, ID_SOURCE_MODULES):
                yield node, f"non-deterministic ID source {text}()"


def _missing_annotations(module: ModuleInfo, scope: FileScope) -> _Hits:
    """TYP001: every parameter and the return value annotated."""
    for node in module.nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        # ``self``/``cls`` never need annotations (mypy infers them).
        if positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        missing = [
            f"annotation for {arg.arg!r}"
            for arg in [*positional, *args.kwonlyargs]
            if arg.annotation is None
        ]
        missing += [
            f"annotation for {stars + star.arg!r}"
            for stars, star in (("*", args.vararg), ("**", args.kwarg))
            if star is not None and star.annotation is None
        ]
        if node.returns is None:
            missing.append("return annotation")
        if missing:
            yield node, f"{node.name}() missing {', '.join(missing)}"


#: Rule id -> the check that runs it over one parsed module.  REP000 is
#: the parse itself (see :func:`lint_source`).
CHECKS: dict[str, Callable[[ModuleInfo, FileScope], _Hits]] = {
    "REP001": _wall_clock,
    "REP002": _global_rng,
    "REP003": _mutable_default,
    "REP004": _bare_except,
    "REP005": _float_priority_eq,
    "REP006": _print_in_library,
    "REP007": _nondeterministic_id,
    "TYP001": _missing_annotations,
}


def lint_source(
    source: str,
    path: str | Path = "<string>",
    scope: Optional[FileScope] = None,
    select: Collection[str] = RULES,
) -> list[Finding]:
    """Lint one source string; ``scope`` defaults from ``path``."""
    if scope is None:
        scope = scope_for_path(Path(path)) if path != "<string>" else FULL_SCOPE
    try:
        module = ModuleInfo.parse(source, Path(path), Path(path).stem)
    except SyntaxError as exc:
        if "REP000" not in select:
            return []
        return [
            Finding(
                path=str(path),
                line=exc.lineno or 1,
                col=exc.offset or 0,
                rule_id="REP000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    findings = [
        Finding(
            path=str(path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=rule_id,
            message=message,
        )
        for rule_id, check in CHECKS.items()
        if rule_id in select
        for node, message in check(module, scope)
    ]
    return sorted(
        (f for f in findings if not module.suppressed(f.line, f.rule_id, "repro-lint")),
        key=lambda f: (f.line, f.col, f.rule_id),
    )


def lint_file(path: str | Path, select: Collection[str] = RULES) -> list[Finding]:
    """Lint one file on disk."""
    file_path = Path(path)
    return lint_source(file_path.read_text(encoding="utf-8"), file_path, select=select)


def lint_paths(
    paths: Iterable[str | Path],
    exclude: Sequence[str] = (),
    select: Collection[str] = RULES,
) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories.

    ``exclude`` drops files whose POSIX path contains any fragment
    (e.g. ``("tests/fixtures",)`` skips the intentionally-violating
    fixture catalogues); ``select`` restricts the rules that run.
    """
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        posix = file_path.as_posix()
        if any(fragment and fragment in posix for fragment in exclude):
            continue
        findings.extend(lint_file(file_path, select))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point shared by ``repro lint`` and ``python -m repro.check.lint``."""
    import argparse

    from repro.check.rules import explain

    parser = argparse.ArgumentParser(
        prog="repro lint", description="repo-specific determinism/hygiene lint"
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument(
        "--select",
        default=None,
        metavar="REPxxx,...",
        help="comma-separated rule ids to enforce (default: all)",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="FRAGMENT",
        help="skip files whose path contains FRAGMENT (repeatable,"
        " comma-separable)",
    )
    parser.add_argument(
        "--explain",
        metavar="REPxxx",
        default=None,
        help="print one rule's rationale/scope/disable syntax and exit",
    )
    args = parser.parse_args(argv)
    if args.explain:
        print(explain(args.explain))  # repro-lint: disable=REP006
        return 0
    exclude = [
        fragment.strip()
        for entry in args.exclude
        for fragment in entry.split(",")
        if fragment.strip()
    ]
    selected: Collection[str] = RULES
    if args.select:
        selected = {
            tok.strip().upper() for tok in args.select.split(",") if tok.strip()
        }
        unknown = selected - set(RULES)
        if unknown:
            parser.error(f"unknown rule id(s) in --select: {sorted(unknown)}")
    require_paths(parser.prog, args.paths)
    violations = lint_paths(args.paths, exclude=exclude, select=selected)
    renderer = render_json if args.format == "json" else render_text
    print(renderer(violations))  # repro-lint: disable=REP006
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    sys.exit(main())
