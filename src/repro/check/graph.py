"""Whole-program analyzer (``repro analyze``) and the one front end of
``repro.check``.

Pass 1 below is the only parse in the package: :mod:`repro.check.lint`
and the TYP001 gate run their per-file rules over the same
:class:`ModuleInfo`, with the same import resolver
(:meth:`ModuleInfo.canonical`), suppression parser
(:meth:`ModuleInfo.suppressed`), :class:`Finding` type and text/JSON
renderers.  On top of it this module builds a project-wide view of the
package and checks the cross-module invariants the three-process
deployment (client → gateway → N worker daemons) actually rests on:

Pass 1 — the program graph
    Every ``.py`` file is parsed once into a :class:`ModuleInfo`, which
    records its import aliases; ``canonical()`` turns any call target
    into its canonical dotted name (``np.random.rand`` →
    ``numpy.random.rand``), so every rule that names a library callable
    is a lookup in a canonical-name table.  From the modules the
    :class:`Project` derives a symbol table (every function,
    method and class by dotted qualname), an import graph, per-class
    attribute types (inferred from constructor calls and parameter
    annotations), a subclass index, and a resolved call graph.  Method
    calls resolve through inferred receiver types, and an inferred
    interface type (e.g. ``Scheduler``) fans out to every subclass
    override — which is how calls through the scheduler/baseline
    registries resolve to the concrete implementations.

Pass 2 — graph rule families
    =======  ==========================================================
    REP100   async-safety: blocking primitives (``time.sleep``, sync
             socket/file/subprocess ops, ``Future.result()``) reachable
             from any ``async def`` in ``service/``/``gateway/``,
             transitively through the call graph.
    REP102   snapshot picklability: the type graph reachable from the
             snapshot roots must not hold locks, sockets, open files,
             generators, executors or contextvar tokens, unless the
             owning class excludes the field in ``__getstate__`` /
             ``__reduce__``.
    REP103   determinism taint: wall-clock / ``os.urandom`` /
             unseeded-RNG values must not flow — through assignments,
             returns and calls — into digest computation, telemetry
             records or trace-id derivation.
    =======  ==========================================================

Findings can be waived inline (``# repro-analyze: disable=REP100``) or
recorded in a checked-in baseline file
(:data:`BASELINE_FILENAME`, maintained with ``repro analyze
--write-baseline``): baselined findings report but do not fail the
build, new ones do.  Reporters: text, JSON and SARIF 2.1.0 (CI uploads
the SARIF for inline annotations).

Run as ``repro analyze [paths...]`` or ``python -m repro.check.graph``.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.check.rules import REGISTRY

__all__ = [
    "AnalyzerConfig",
    "BASELINE_FILENAME",
    "Finding",
    "ModuleInfo",
    "Project",
    "analyze_paths",
    "analyze_project",
    "dotted_name",
    "iter_python_files",
    "load_baseline",
    "main",
    "require_paths",
    "render_json",
    "render_text",
    "write_baseline",
]

#: Default checked-in baseline-suppression file (repo root).
BASELINE_FILENAME = ".repro-analyze-baseline.json"

#: Format tag stamped into the baseline file.
BASELINE_FORMAT = "repro.check.graph/baseline/1"

#: Inline waivers, by comment tag: ``# repro-lint: disable=REP001`` for
#: the lint and TYP001, ``# repro-analyze: disable=REP100`` here.
_DISABLE_COMMENT = {
    tag: re.compile(rf"#\s*{tag}:\s*disable=([A-Za-z0-9_,\s]+)")
    for tag in ("repro-lint", "repro-analyze")
}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyzerConfig:
    """Where each rule family anchors, as dotted module-name suffixes.

    Suffix matching keeps the config portable: scanning ``src`` names
    modules ``repro.service.daemon`` while the test fixture package
    names them ``analyze_pkg.service.daemon``; both match the suffix
    ``service.daemon``.
    """

    #: Package path components whose ``async def``s are event-loop
    #: coroutines (REP100 roots).
    async_packages: tuple[str, ...] = ("service", "gateway")
    #: Class qualname suffixes whose instances are pickled whole for
    #: crash-safe snapshots (REP102 roots).
    snapshot_roots: tuple[str, ...] = (
        "service.daemon.SchedulerService",
        "sim.engine.SimulationEngine",
        "faults.injector.FaultInjector",
    )
    #: Call names whose arguments are determinism-sensitive sinks
    #: (trace-id derivation and telemetry records); hashlib digests are
    #: recognized via import tracking on top of these.
    taint_sink_calls: tuple[str, ...] = (
        "derive_trace_id",
        "derive_span_id",
        "pass_record",
    )
    #: Class names whose constructor arguments are taint sinks.
    taint_sink_constructors: tuple[str, ...] = ("TraceContext",)
    #: Method names that are taint sinks when called on an attribute
    #: (``self.telemetry.emit(record)``) — resolved by receiver type
    #: when known, by name otherwise.
    taint_sink_methods: tuple[str, ...] = ("emit",)
    #: Classes taint-sink methods must belong to when the receiver type
    #: is resolvable (limits the by-name fallback).
    taint_sink_method_classes: tuple[str, ...] = ("TelemetryExporter",)


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One finding of ``repro lint``, ``repro typecheck`` or ``repro analyze``.

    Only analyzer findings carry a ``fingerprint_key``: a
    line-number-free stable key (rule-specific: verb names, class.attr
    paths, call chains) so baselines survive unrelated edits that shift
    lines.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    fingerprint_key: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """Stable id used by the baseline file.

        Keyed on the file *name* (not the full path) plus the
        rule-specific key, so absolute and relative invocations of the
        analyzer agree and baselines survive checkouts at different
        roots; the key itself carries module-qualified context.
        """
        raw = f"{self.rule_id}|{Path(self.path).name}|{self.fingerprint_key}"
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation (stable keys; a fingerprint when keyed)."""
        doc: dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "name": REGISTRY[self.rule_id].name,
            "message": self.message,
        }
        if self.fingerprint_key is not None:
            doc["fingerprint"] = self.fingerprint
        return doc


def render_text(
    findings: Sequence[Finding], baselined: Optional[Sequence[Finding]] = None
) -> str:
    """GCC-style one-line-per-finding report.

    The summary line counts violations (the lint) or, when a baseline
    split is given, new and baselined findings (the analyzer).
    """
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule_id}"
        f" [{REGISTRY[f.rule_id].name}] {f.message}"
        for f in findings
    ]
    if baselined is None:
        lines.append(f"{len(findings)} violation(s)")
    else:
        lines.append(f"{len(findings)} new finding(s), {len(baselined)} baselined")
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding], baselined: Optional[Sequence[Finding]] = None
) -> str:
    """Machine-readable report (the CI input), shaped like :func:`render_text`."""
    doc: dict[str, object]
    if baselined is None:
        doc = {"violations": [f.as_dict() for f in findings], "count": len(findings)}
    else:
        doc = {
            "findings": [f.as_dict() for f in findings],
            "baselined": [f.as_dict() for f in baselined],
            "count": len(findings),
            "baselined_count": len(baselined),
        }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# Pass 1: program graph
# ---------------------------------------------------------------------------


def require_paths(prog: str, paths: Iterable[str | Path]) -> None:
    """Exit 2 with one line naming the first input path that does not exist."""
    for entry in paths:
        if not Path(entry).exists():
            sys.stderr.write(f"{prog}: error: no such file or directory: {entry}\n")
            raise SystemExit(2)


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            out.update(p.rglob("*.py"))
        elif p.suffix == ".py":
            out.add(p)
    return sorted(out)


def dotted_name(node: ast.expr) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c`` (None when dynamic)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _annotation_name(node: Optional[ast.expr]) -> Optional[str]:
    """The class name inside an annotation, unwrapping Optional/unions."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):  # Optional[X], list[X], ...
        base = dotted_name(node.value)
        if base and base.split(".")[-1] in ("Optional", "Final", "ClassVar"):
            return _annotation_name(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):  # X | None
        for side in (node.left, node.right):
            name = _annotation_name(side)
            if name is not None and name != "None":
                return name
        return None
    dotted = dotted_name(node)
    if dotted in (None, "None"):
        return None
    return dotted.split(".")[-1]


@dataclass
class CallSite:
    """One ``ast.Call`` inside a function body."""

    target: str  # dotted textual callee, e.g. "self.engine.step"
    node: ast.Call
    awaited: bool


@dataclass
class FunctionInfo:
    """One function or method in the project symbol table."""

    qualname: str
    module: "ModuleInfo"
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: Optional[str] = None
    calls: list[CallSite] = field(default_factory=list)
    #: local name -> class-name inferred from annotations/constructors.
    local_types: dict[str, str] = field(default_factory=dict)
    #: The function this one is nested in (``None`` at module/class level).
    parent: Optional["FunctionInfo"] = None
    #: ``def``s nested directly in this function, by name.
    nested: dict[str, "FunctionInfo"] = field(default_factory=dict)

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)

    @property
    def display(self) -> str:
        owner = self.parent.display if self.parent else self.class_name
        return f"{owner}.{self.name}" if owner else self.name

    def local_def(self, name: str) -> Optional["FunctionInfo"]:
        """The nested ``def`` a bare call ``name()`` here binds to."""
        scope: Optional[FunctionInfo] = self
        while scope is not None:
            if name in scope.nested:
                return scope.nested[name]
            scope = scope.parent
        return None


@dataclass
class AttrAssign:
    """One ``self.x = <expr>`` site inside a class."""

    attr: str
    value: ast.expr
    node: ast.stmt
    function: FunctionInfo


@dataclass
class ClassInfo:
    """One class: methods, bases, inferred attribute types."""

    qualname: str
    module: "ModuleInfo"
    name: str
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    attr_assigns: list[AttrAssign] = field(default_factory=list)
    #: attr name -> class-name inferred from ``self.x = Cls(...)`` or
    #: annotated parameters assigned to attributes.
    attr_types: dict[str, str] = field(default_factory=dict)
    #: Attribute names the class's ``__getstate__``/``__reduce__``/
    #: ``__setstate__`` mention (treated as handled for REP102).
    pickle_excluded: set[str] = field(default_factory=set)
    has_getstate: bool = False


@dataclass
class ModuleInfo:
    """One parsed module."""

    name: str  # dotted, e.g. "repro.service.daemon"
    path: Path
    tree: ast.Module
    source_lines: list[str]
    #: local alias -> imported module ("np" -> "numpy").
    imports: dict[str, str] = field(default_factory=dict)
    #: local name -> "module.attr" for ``from x import y [as z]``.
    from_imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    @classmethod
    def parse(cls, source: str, path: Path, name: str) -> "ModuleInfo":
        """Parse one module and record its import aliases.

        The alias maps cover every import in the file, wherever it
        sits, so a function defined above a module-level ``import time``
        still resolves ``time.time``.  Raises ``SyntaxError``.
        """
        module = cls(
            name=name,
            path=path,
            tree=ast.parse(source, filename=str(path)),
            source_lines=source.splitlines(),
        )
        for node in module.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        module.imports[alias.asname] = alias.name
                    else:  # ``import os.path`` binds ``os``
                        head = alias.name.split(".")[0]
                        module.imports[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    module.from_imports[bound] = f"{node.module}.{alias.name}"
        return module

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the tree, in ``ast.walk`` order."""
        return list(ast.walk(self.tree))

    def canonical(self, dotted: str) -> str:
        """``dotted`` with its head resolved through the import maps.

        ``np.random.rand`` → ``numpy.random.rand`` after ``import numpy
        as np``; ``t`` → ``time.time`` after ``from time import time as
        t``.  A head the module does not import (a builtin, a local,
        ``self``) is kept as written.
        """
        head, dot, rest = dotted.partition(".")
        base = self.from_imports.get(head) or self.imports.get(head)
        return dotted if base is None else base + dot + rest

    def suppressed(
        self, line: int, rule_id: str, tag: str = "repro-analyze"
    ) -> bool:
        """Whether ``# <tag>: disable=<rule_id>`` (or ``=all``) waives ``line``."""
        if not 0 < line <= len(self.source_lines):
            return False
        match = _DISABLE_COMMENT[tag].search(self.source_lines[line - 1])
        if not match:
            return False
        waived = {tok.strip().upper() for tok in match.group(1).split(",")}
        return rule_id in waived or "ALL" in waived


class _FunctionCollector(ast.NodeVisitor):
    """Collect call sites and local type hints inside one function body."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        #: Nested ``def``s, indexed as functions of their own.
        self.nested: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.nested.append(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.nested.append(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def visit_Await(self, node: ast.Await) -> None:
        if isinstance(node.value, ast.Call):
            self._record_call(node.value, awaited=True)
            for child in ast.iter_child_nodes(node.value):
                self.visit(child)
        else:
            self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._record_call(node, awaited=False)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._infer_assign(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        name = _annotation_name(node.annotation)
        if isinstance(node.target, ast.Name) and name:
            self.info.local_types[node.target.id] = name
        if node.value is not None:
            self._infer_assign([node.target], node.value)
        self.generic_visit(node)

    def _record_call(self, node: ast.Call, awaited: bool) -> None:
        target = dotted_name(node.func)
        if target is not None:
            self.info.calls.append(CallSite(target=target, node=node, awaited=awaited))

    def _infer_assign(self, targets: list[ast.expr], value: ast.expr) -> None:
        type_name: Optional[str] = None
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted:
                type_name = dotted.split(".")[-1]
        elif isinstance(value, ast.Name):
            type_name = self.info.local_types.get(value.id)
        if type_name is None:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self.info.local_types[target.id] = type_name


class Project:
    """The whole-program symbol table, import graph and call graph."""

    def __init__(self, config: Optional[AnalyzerConfig] = None) -> None:
        self.config = config or AnalyzerConfig()
        self.modules: dict[str, ModuleInfo] = {}
        #: function qualname -> FunctionInfo (symbol table).
        self.functions: dict[str, FunctionInfo] = {}
        #: class qualname -> ClassInfo.
        self.classes: dict[str, ClassInfo] = {}
        #: bare class name -> [ClassInfo] (usually one).
        self.class_by_name: dict[str, list[ClassInfo]] = {}
        #: method name -> [FunctionInfo] across all classes (CHA table).
        self.method_index: dict[str, list[FunctionInfo]] = {}
        #: class name -> direct subclasses (by ClassInfo).
        self.subclasses: dict[str, list[ClassInfo]] = {}
        self.errors: list[Finding] = []

    # -- loading -----------------------------------------------------------

    @classmethod
    def load(
        cls, paths: Iterable[str | Path], config: Optional[AnalyzerConfig] = None
    ) -> "Project":
        """Parse every ``.py`` file under ``paths`` into one project."""
        project = cls(config)
        for file_path, module_name in _discover_modules(paths):
            project._load_module(file_path, module_name)
        project._index()
        return project

    def _load_module(self, path: Path, name: str) -> None:
        try:
            module = ModuleInfo.parse(path.read_text(encoding="utf-8"), path, name)
        except (OSError, SyntaxError) as exc:
            self.errors.append(
                Finding(
                    path=str(path),
                    line=getattr(exc, "lineno", 1) or 1,
                    col=0,
                    rule_id="REP100",
                    message=f"module failed to parse: {exc}",
                    fingerprint_key=f"parse-error:{name}",
                )
            )
            return
        self._collect_defs(module)
        self.modules[name] = module

    def _collect_defs(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node, class_info=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(module, node)

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        info = ClassInfo(qualname=qualname, module=module, name=node.name, node=node)
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted:
                info.bases.append(dotted.split(".")[-1])
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._add_function(module, item, class_info=info)
                info.methods[item.name] = fn
                if item.name in ("__getstate__", "__reduce__", "__reduce_ex__"):
                    info.has_getstate = True
                if item.name in (
                    "__getstate__",
                    "__setstate__",
                    "__reduce__",
                    "__reduce_ex__",
                ):
                    for sub in ast.walk(item):
                        if isinstance(sub, ast.Constant) and isinstance(
                            sub.value, str
                        ):
                            info.pickle_excluded.add(sub.value)
        self._collect_attr_assigns(info)
        module.classes[node.name] = info
        self.classes[qualname] = info

    def _add_function(
        self,
        module: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_info: Optional[ClassInfo],
        parent: Optional[FunctionInfo] = None,
    ) -> FunctionInfo:
        if parent is not None:
            qualname = f"{parent.qualname}.{node.name}"
        else:
            scope = f"{class_info.name}." if class_info else ""
            qualname = f"{module.name}.{scope}{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            module=module,
            name=node.name,
            node=node,
            class_name=class_info.name if class_info else None,
            parent=parent,
            # A closure sees the enclosing function's typed locals.
            local_types=dict(parent.local_types) if parent else {},
        )
        # Parameter annotations seed local type inference.
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            ann = _annotation_name(arg.annotation)
            if ann:
                info.local_types[arg.arg] = ann
        collector = _FunctionCollector(info)
        for stmt in node.body:
            collector.visit(stmt)
        self.functions[info.qualname] = info
        for nested in collector.nested:
            info.nested[nested.name] = self._add_function(
                module, nested, class_info, parent=info
            )
        return info

    def _collect_attr_assigns(self, info: ClassInfo) -> None:
        for method in info.methods.values():
            for stmt in ast.walk(method.node):
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        stmt.targets
                        if isinstance(stmt, ast.Assign)
                        else [stmt.target]
                    )
                    value = stmt.value
                    if value is None:
                        continue
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            info.attr_assigns.append(
                                AttrAssign(
                                    attr=target.attr,
                                    value=value,
                                    node=stmt,
                                    function=method,
                                )
                            )
                            self._infer_attr_type(info, method, target.attr, value)

    def _infer_attr_type(
        self,
        info: ClassInfo,
        method: FunctionInfo,
        attr: str,
        value: ast.expr,
    ) -> None:
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted:
                info.attr_types.setdefault(attr, dotted.split(".")[-1])
        elif isinstance(value, ast.Name):
            ann = method.local_types.get(value.id)
            if ann:
                info.attr_types.setdefault(attr, ann)
        elif isinstance(value, (ast.IfExp, ast.BoolOp)):
            for sub in ast.walk(value):
                if isinstance(sub, ast.Call):
                    dotted = dotted_name(sub.func)
                    if dotted:
                        info.attr_types.setdefault(attr, dotted.split(".")[-1])
                        break

    def _index(self) -> None:
        for cls in self.classes.values():
            self.class_by_name.setdefault(cls.name, []).append(cls)
            for name, method in cls.methods.items():
                self.method_index.setdefault(name, []).append(method)
        for cls in self.classes.values():
            for base in cls.bases:
                self.subclasses.setdefault(base, []).append(cls)

    # -- lookups -----------------------------------------------------------

    def modules_matching(self, suffix: str) -> list[ModuleInfo]:
        """Modules whose dotted name equals or ends with ``.suffix``."""
        return [
            m
            for name, m in sorted(self.modules.items())
            if name == suffix or name.endswith("." + suffix)
        ]

    def class_matching(self, suffix: str) -> Optional[ClassInfo]:
        """The class whose qualname equals or ends with ``.suffix``."""
        for qualname, cls in sorted(self.classes.items()):
            if qualname == suffix or qualname.endswith("." + suffix):
                return cls
        return None

    def resolve_class(self, name: str, module: ModuleInfo) -> Optional[ClassInfo]:
        """Resolve a bare class name as seen from ``module``."""
        if name in module.classes:
            return module.classes[name]
        imported = module.from_imports.get(name)
        if imported:
            target = imported.split(".")[-1]
            for cls in self.class_by_name.get(target, []):
                return cls
        for cls in self.class_by_name.get(name, []):
            return cls
        return None

    def _class_and_subclass_methods(
        self, cls: ClassInfo, method: str
    ) -> list[FunctionInfo]:
        """``cls``'s own/ inherited ``method`` plus every subclass override."""
        out: list[FunctionInfo] = []
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if method in current.methods:
                out.append(current.methods[method])
            stack.extend(self.subclasses.get(current.name, []))
        if not out:
            # Inherited implementation: look up the base chain.
            for base in cls.bases:
                base_cls = self.resolve_class(base, cls.module)
                if base_cls and base_cls.qualname not in seen:
                    out.extend(self._class_and_subclass_methods(base_cls, method))
        return out

    def receiver_type(
        self, chain: list[str], fn: FunctionInfo
    ) -> Optional[ClassInfo]:
        """Infer the class of ``chain`` (e.g. ``["self", "engine"]``)."""
        if not chain:
            return None
        head, *rest = chain
        current: Optional[ClassInfo]
        if head in ("self", "cls") and fn.class_name:
            current = self.resolve_class(fn.class_name, fn.module)
        else:
            type_name = fn.local_types.get(head)
            current = (
                self.resolve_class(type_name, fn.module) if type_name else None
            )
        for attr in rest:
            if current is None:
                return None
            type_name = self._attr_type(current, attr)
            current = (
                self.resolve_class(type_name, current.module) if type_name else None
            )
        return current

    def _attr_type(self, cls: ClassInfo, attr: str) -> Optional[str]:
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if attr in current.attr_types:
                return current.attr_types[attr]
            for base in current.bases:
                base_cls = self.resolve_class(base, current.module)
                if base_cls:
                    stack.append(base_cls)
        return None

    def resolve_call(self, site: CallSite, fn: FunctionInfo) -> list[FunctionInfo]:
        """Resolve one call site to project functions (possibly several).

        Resolution order: local/imported plain functions, then methods
        through the inferred receiver type (fanning out to subclass
        overrides so registry-dispatched scheduler/baseline calls
        resolve), then class constructors (``__init__``).  Unresolvable
        dynamic calls return ``[]`` rather than guessing.
        """
        parts = site.target.split(".")
        module = fn.module
        canonical = module.canonical(site.target)
        if len(parts) == 1:
            name = parts[0]
            local = fn.local_def(name)
            if local is not None:
                return [local]
            qual = f"{module.name}.{name}"
            if qual in self.functions:
                return [self.functions[qual]]
            imported = self._imported(canonical) if canonical != name else []
            if imported:
                return imported
            cls = self.resolve_class(name, module)
            if cls and "__init__" in cls.methods:
                return [cls.methods["__init__"]]
            return []
        *chain, method = parts
        # ``mod.func()`` through a module import.
        if len(chain) == 1 and chain[0] in module.imports:
            return self._imported(canonical)
        receiver = self.receiver_type(chain, fn)
        if receiver is not None:
            return self._class_and_subclass_methods(receiver, method)
        # ``ClassName.method`` static reference.
        if len(chain) == 1:
            cls = self.resolve_class(chain[0], module)
            if cls is not None:
                return self._class_and_subclass_methods(cls, method)
        return []

    def _imported(self, canonical: str) -> list[FunctionInfo]:
        """The project function, or class constructor, ``module.attr`` names."""
        module_name, _, attr = canonical.rpartition(".")
        for module in self.modules_matching(module_name):
            qual = f"{module.name}.{attr}"
            if qual in self.functions:
                return [self.functions[qual]]
            cls = module.classes.get(attr)
            if cls and "__init__" in cls.methods:
                return [cls.methods["__init__"]]
        return []


def _discover_modules(
    paths: Iterable[str | Path],
) -> Iterator[tuple[Path, str]]:
    """Yield (file, dotted module name) pairs for every ``.py`` input.

    A directory that is itself a package (``__init__.py``) anchors names
    at its own name (``analyze_pkg.service.daemon``); a plain directory
    anchors at its children (scanning ``src`` yields ``repro.*``).
    """
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            base = root.parent if (root / "__init__.py").exists() else root
            for file_path in iter_python_files([root]):
                rel = file_path.relative_to(base)
                parts = list(rel.with_suffix("").parts)
                if parts[-1] == "__init__":
                    parts = parts[:-1]
                if not parts:
                    continue
                yield file_path, ".".join(parts)
        elif root.suffix == ".py":
            yield root, root.stem


# ---------------------------------------------------------------------------
# REP100: async-safety
# ---------------------------------------------------------------------------

#: Blocking callables, by canonical name (``time.sleep`` also matches
#: ``from time import sleep``; a bare ``open`` is the builtin).
_BLOCKING_CALLS = {
    "open": "open() file I/O",
    "time.sleep": "time.sleep()",
    "socket.socket": "socket.socket() construction",
    "socket.create_connection": "socket.create_connection()",
    "subprocess.run": "subprocess.run()",
    "subprocess.call": "subprocess.call()",
    "subprocess.check_call": "subprocess.check_call()",
    "subprocess.check_output": "subprocess.check_output()",
    "subprocess.Popen": "subprocess.Popen()",
    "os.system": "os.system()",
    "os.popen": "os.popen()",
    "pickle.dump": "pickle.dump() on a file",
    "pickle.load": "pickle.load() from a file",
}

#: Blocking terminal attributes (method calls), matched on the call name
#: when the receiver type is unknown.  ``.result()``/``.wait()``/
#: ``.join()`` are the synchronous rendezvous of futures, subprocesses,
#: events and threads; awaited calls never match (the Await wrapper is
#: tracked per call site).
_BLOCKING_METHODS = {
    "read_text": "Path.read_text() file I/O",
    "write_text": "Path.write_text() file I/O",
    "read_bytes": "Path.read_bytes() file I/O",
    "write_bytes": "Path.write_bytes() file I/O",
    "result": "Future.result() blocking wait",
    "communicate": "Popen.communicate() blocking wait",
}

#: Methods treated as blocking only when the receiver is not a project
#: class (project ``.wait()``/``.join()`` are usually domain methods).
_BLOCKING_METHODS_CONSERVATIVE = {
    "wait": "blocking wait()",
    "join": "blocking join()",
}


def _blocking_primitive(site: CallSite, fn: FunctionInfo, project: Project) -> Optional[str]:
    """Describe the blocking primitive at ``site`` (None when not one)."""
    if site.awaited:
        return None
    blocking = _BLOCKING_CALLS.get(fn.module.canonical(site.target))
    parts = site.target.split(".")
    if blocking is not None or len(parts) == 1:
        return blocking
    tail = parts[-1]
    if tail == "open" and parts[-2].lower().endswith("path"):
        return "Path.open() file I/O"
    if tail in _BLOCKING_METHODS:
        return _BLOCKING_METHODS[tail]
    if tail in _BLOCKING_METHODS_CONSERVATIVE:
        receiver = project.receiver_type(parts[:-1], fn)
        if receiver is None and not project.resolve_call(site, fn):
            return _BLOCKING_METHODS_CONSERVATIVE[tail]
    return None


def _check_async_safety(project: Project, config: AnalyzerConfig) -> list[Finding]:
    findings: list[Finding] = []
    roots = [
        fn
        for fn in project.functions.values()
        if fn.is_async
        and any(pkg in fn.module.name.split(".") for pkg in config.async_packages)
    ]
    #: (blocking call site id, primitive) -> first chain that reached it.
    reported: set[tuple[str, int, int]] = set()
    for root in sorted(roots, key=lambda f: f.qualname):
        stack: list[tuple[FunctionInfo, tuple[str, ...]]] = [
            (root, (root.display,))
        ]
        visited: set[str] = set()
        while stack:
            fn, chain = stack.pop()
            if fn.qualname in visited or len(chain) > 12:
                continue
            visited.add(fn.qualname)
            for site in fn.calls:
                primitive = _blocking_primitive(site, fn, project)
                line = site.node.lineno
                if primitive is not None:
                    if fn.module.suppressed(line, "REP100"):
                        continue
                    key = (str(fn.module.path), line, site.node.col_offset)
                    if key in reported:
                        continue
                    reported.add(key)
                    via = " -> ".join(chain)
                    findings.append(
                        Finding(
                            path=str(fn.module.path),
                            line=line,
                            col=site.node.col_offset,
                            rule_id="REP100",
                            message=(
                                f"{primitive} on the event loop, reachable"
                                f" from async {root.display}()"
                                + (
                                    f" via {via}"
                                    if len(chain) > 1
                                    else ""
                                )
                            ),
                            fingerprint_key=(
                                f"{primitive}|{fn.qualname}|{site.target}"
                            ),
                        )
                    )
                    continue
                for callee in project.resolve_call(site, fn):
                    if callee.qualname not in visited:
                        stack.append((callee, chain + (callee.display,)))
    return findings


# ---------------------------------------------------------------------------
# REP102: snapshot picklability
# ---------------------------------------------------------------------------

#: Constructors producing unpicklable values, by canonical-name suffix.
_UNPICKLABLE_CALLS = {
    "threading.Lock": "a threading.Lock",
    "threading.RLock": "a threading.RLock",
    "threading.Condition": "a threading.Condition",
    "threading.Semaphore": "a threading.Semaphore",
    "threading.Event": "a threading.Event",
    "threading.Thread": "a threading.Thread",
    "asyncio.Lock": "an asyncio.Lock",
    "asyncio.Event": "an asyncio.Event",
    "asyncio.Condition": "an asyncio.Condition",
    "asyncio.Queue": "an asyncio.Queue",
    "asyncio.get_event_loop": "an event loop",
    "asyncio.get_running_loop": "an event loop",
    "socket.socket": "a socket",
    "socket.create_connection": "a socket",
    "subprocess.Popen": "a subprocess handle",
    "concurrent.futures.ThreadPoolExecutor": "an executor",
    "concurrent.futures.ProcessPoolExecutor": "an executor",
}

#: Constructors recognised by their bare name alone.
_UNPICKLABLE_BARE = {
    "ThreadPoolExecutor": "an executor",
    "ProcessPoolExecutor": "an executor",
    "Lock": "a lock",
    "RLock": "a lock",
    "Thread": "a thread",
    "Popen": "a subprocess handle",
}

#: Terminal attribute calls yielding unpicklable values.
_UNPICKLABLE_METHODS = {
    "open": "an open file handle",
    "makefile": "a socket file object",
    "create_task": "an asyncio Task",
}


def _unpicklable_value(
    value: ast.expr, method: FunctionInfo, project: Project
) -> Optional[str]:
    """Describe why ``value`` cannot pickle (None when it can/unknown)."""
    if isinstance(value, ast.GeneratorExp):
        return "a generator"
    if isinstance(value, ast.Lambda):
        return "a lambda (unpicklable by the pickle protocol)"
    if not isinstance(value, ast.Call):
        return None
    dotted = dotted_name(value.func)
    if dotted is None:
        return None
    canonical = method.module.canonical(dotted)
    for suffix, why in _UNPICKLABLE_CALLS.items():
        if canonical == suffix or canonical.endswith("." + suffix):
            return why
    parts = dotted.split(".")
    if len(parts) == 1:
        bare = canonical.rpartition(".")[2]
        if bare in _UNPICKLABLE_BARE and dotted not in method.module.classes:
            return _UNPICKLABLE_BARE[bare]
        return {"open": "an open file handle", "iter": "an iterator"}.get(dotted)
    tail = parts[-1]
    if tail in _UNPICKLABLE_METHODS:
        return _UNPICKLABLE_METHODS[tail]
    if tail == "set":
        # ``contextvar.set(...)`` returns a Token; only flag when the
        # receiver resolves to a ContextVar.
        receiver = ".".join(parts[:-1])
        for name, target in method.module.from_imports.items():
            if receiver.endswith(name) and target.endswith("ContextVar"):
                return "a contextvars Token"
        type_name = method.local_types.get(parts[0])
        if type_name == "ContextVar" or (
            len(parts) >= 2 and method.local_types.get(parts[-2]) == "ContextVar"
        ):
            return "a contextvars Token"
    return None


def _check_picklability(project: Project, config: AnalyzerConfig) -> list[Finding]:
    findings: list[Finding] = []
    roots = [
        cls
        for suffix in config.snapshot_roots
        if (cls := project.class_matching(suffix)) is not None
    ]
    queue = list(roots)
    visited: set[str] = set()
    while queue:
        cls = queue.pop(0)
        if cls.qualname in visited:
            continue
        visited.add(cls.qualname)
        for assign in cls.attr_assigns:
            if assign.attr in cls.pickle_excluded:
                continue
            line = assign.node.lineno
            if cls.module.suppressed(line, "REP102"):
                continue
            why = _unpicklable_value(assign.value, assign.function, project)
            if why is not None:
                findings.append(
                    Finding(
                        path=str(cls.module.path),
                        line=line,
                        col=assign.node.col_offset,
                        rule_id="REP102",
                        message=(
                            f"snapshot-reachable field {cls.name}."
                            f"{assign.attr} holds {why}; exclude it in"
                            " __getstate__/__reduce__ or drop the field"
                        ),
                        fingerprint_key=f"{cls.name}.{assign.attr}:{why}",
                    )
                )
                continue
            # Recurse into project classes held by this field.
            type_name = cls.attr_types.get(assign.attr)
            if type_name:
                held = project.resolve_class(type_name, cls.module)
                if held is not None and held.qualname not in visited:
                    queue.append(held)
                if held is not None:
                    for sub in project.subclasses.get(held.name, []):
                        if sub.qualname not in visited:
                            queue.append(sub)
    return findings


# ---------------------------------------------------------------------------
# REP103: determinism taint
# ---------------------------------------------------------------------------

#: Entropy/wall-clock source callables, by canonical name.
_TAINT_SOURCES = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "time.monotonic": "time.monotonic()",
    "time.monotonic_ns": "time.monotonic_ns()",
    "time.perf_counter": "time.perf_counter()",
    "time.perf_counter_ns": "time.perf_counter_ns()",
    "os.urandom": "os.urandom()",
    "uuid.uuid1": "uuid.uuid1()",
    "uuid.uuid4": "uuid.uuid4()",
    "secrets.token_hex": "secrets.token_hex()",
    "secrets.token_bytes": "secrets.token_bytes()",
    "secrets.token_urlsafe": "secrets.token_urlsafe()",
    "random.random": "global random.random()",
    "random.randint": "global random.randint()",
    "random.randrange": "global random.randrange()",
    "random.getrandbits": "global random.getrandbits()",
    "random.randbytes": "global random.randbytes()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.today": "datetime.today()",
    "datetime.date.today": "date.today()",
}

#: Hash constructors whose ``update``/constructor args are digest sinks.
_HASH_CONSTRUCTORS = {"sha256", "sha1", "md5", "blake2b", "blake2s", "new"}


def _hash_constructor(module: ModuleInfo, dotted: str) -> Optional[str]:
    """``hashlib.<ctor>`` when ``dotted`` names a hash constructor."""
    canonical = module.canonical(dotted)
    package, _, ctor = canonical.rpartition(".")
    return canonical if package == "hashlib" and ctor in _HASH_CONSTRUCTORS else None


class _TaintScan(ast.NodeVisitor):
    """Intra-procedural taint propagation for one function body."""

    def __init__(
        self,
        fn: FunctionInfo,
        project: Project,
        tainted_returns: dict[str, str],
        tainted_params: dict[str, dict[str, str]],
    ) -> None:
        self.fn = fn
        self.project = project
        self.tainted_returns = tainted_returns
        self.tainted_params = tainted_params
        #: local name -> source description.
        self.tainted: dict[str, str] = dict(
            tainted_params.get(fn.qualname, {})
        )
        self.hash_objects: set[str] = set()
        self.return_taint: Optional[str] = None

    # -- expression taint --------------------------------------------------

    def expr_taint(self, node: ast.expr) -> Optional[str]:
        """The source description if ``node`` carries taint."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in self.tainted:
                return self.tainted[sub.id]
            if isinstance(sub, ast.Call):
                target = dotted_name(sub.func)
                if target is None:
                    continue
                source = _TAINT_SOURCES.get(self.fn.module.canonical(target))
                if source:
                    return source
                site = CallSite(target=target, node=sub, awaited=False)
                for callee in self.project.resolve_call(site, self.fn):
                    if callee.qualname in self.tainted_returns:
                        return self.tainted_returns[callee.qualname]
        return None

    # -- statements --------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self._track_hash(node)
        taint = self.expr_taint(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if taint:
                    self.tainted[target.id] = taint
                else:
                    self.tainted.pop(target.id, None)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        taint = self.expr_taint(node.value)
        if taint and isinstance(node.target, ast.Name):
            self.tainted[node.target.id] = taint
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and isinstance(node.target, ast.Name):
            taint = self.expr_taint(node.value)
            if taint:
                self.tainted[node.target.id] = taint
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and self.return_taint is None:
            self.return_taint = self.expr_taint(node.value)
        self.generic_visit(node)

    def _track_hash(self, node: ast.Assign) -> None:
        if not isinstance(node.value, ast.Call):
            return
        dotted = dotted_name(node.value.func)
        if dotted is not None and _hash_constructor(self.fn.module, dotted):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.hash_objects.add(target.id)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs analyzed on their own

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


def _sink_description(
    site: CallSite, fn: FunctionInfo, scan: _TaintScan, config: AnalyzerConfig
) -> Optional[str]:
    """Describe the determinism sink at ``site`` (None when not a sink)."""
    parts = site.target.split(".")
    tail = parts[-1]
    if tail in config.taint_sink_calls:
        return f"{tail}()"
    digest = _hash_constructor(fn.module, site.target)
    if digest is not None:
        return f"digest {digest}()"
    if len(parts) == 1:
        if tail in config.taint_sink_constructors:
            return f"{tail}(...) trace context"
        return None
    if tail == "update" and parts[0] in scan.hash_objects and len(parts) == 2:
        return f"digest {parts[0]}.update()"
    if tail in config.taint_sink_methods:
        receiver = scan.project.receiver_type(parts[:-1], fn)
        if receiver is None or receiver.name in config.taint_sink_method_classes:
            return f"telemetry {site.target}()"
    return None


def _check_taint(project: Project, config: AnalyzerConfig) -> list[Finding]:
    findings: list[Finding] = []
    #: function qualname -> source description for tainted returns.
    tainted_returns: dict[str, str] = {}
    tainted_params: dict[str, dict[str, str]] = {}

    # Fixpoint: propagate tainted returns and tainted arguments through
    # the call graph until stable (bounded by function count).
    for _ in range(len(project.functions) + 1):
        changed = False
        for fn in project.functions.values():
            scan = _TaintScan(fn, project, tainted_returns, tainted_params)
            for stmt in fn.node.body:
                scan.visit(stmt)
            if scan.return_taint and fn.qualname not in tainted_returns:
                tainted_returns[fn.qualname] = scan.return_taint
                changed = True
            # Taint callee parameters fed by tainted arguments.
            for site in fn.calls:
                callees = project.resolve_call(site, fn)
                if not callees:
                    continue
                for index, arg in enumerate(site.node.args):
                    taint = scan.expr_taint(arg)
                    if not taint:
                        continue
                    for callee in callees:
                        params = [
                            a.arg
                            for a in callee.node.args.args
                            if a.arg not in ("self", "cls")
                        ]
                        if index < len(params):
                            bucket = tainted_params.setdefault(
                                callee.qualname, {}
                            )
                            if params[index] not in bucket:
                                bucket[params[index]] = taint
                                changed = True
                for kw in site.node.keywords:
                    if kw.arg is None:
                        continue
                    taint = scan.expr_taint(kw.value)
                    if not taint:
                        continue
                    for callee in callees:
                        bucket = tainted_params.setdefault(callee.qualname, {})
                        if kw.arg not in bucket:
                            bucket[kw.arg] = taint
                            changed = True
        if not changed:
            break

    for fn in sorted(project.functions.values(), key=lambda f: f.qualname):
        scan = _TaintScan(fn, project, tainted_returns, tainted_params)
        # Re-run statement order so hash objects/locals are in scope.
        tainted_sites: list[tuple[CallSite, str, str]] = []

        class _SinkVisitor(ast.NodeVisitor):
            def visit_Call(self, node: ast.Call) -> None:  # noqa: N802
                target = dotted_name(node.func)
                if target is not None:
                    site = CallSite(target=target, node=node, awaited=False)
                    sink = _sink_description(site, fn, scan, config)
                    if sink is not None:
                        for arg in [*node.args, *[k.value for k in node.keywords]]:
                            taint = scan.expr_taint(arg)
                            if taint:
                                tainted_sites.append((site, sink, taint))
                                break
                self.generic_visit(node)

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:  # noqa: N802
                pass

            visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

        sink_visitor = _SinkVisitor()
        for stmt in fn.node.body:
            scan.visit(stmt)  # populate locals/hash objects in order
            sink_visitor.visit(stmt)
        for site, sink, taint in tainted_sites:
            line = site.node.lineno
            if fn.module.suppressed(line, "REP103"):
                continue
            findings.append(
                Finding(
                    path=str(fn.module.path),
                    line=line,
                    col=site.node.col_offset,
                    rule_id="REP103",
                    message=(
                        f"non-deterministic value from {taint} flows into"
                        f" {sink} in {fn.display}() — digests, telemetry"
                        " and trace ids must be pure functions of the seed"
                    ),
                    fingerprint_key=f"{fn.qualname}|{taint}|{sink}",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def analyze_project(project: Project) -> list[Finding]:
    """Run every rule family over a loaded project."""
    config = project.config
    findings = list(project.errors)
    findings.extend(_check_async_safety(project, config))
    findings.extend(_check_picklability(project, config))
    findings.extend(_check_taint(project, config))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))


def analyze_paths(
    paths: Iterable[str | Path], config: Optional[AnalyzerConfig] = None
) -> list[Finding]:
    """Load and analyze every ``.py`` file under ``paths``."""
    return analyze_project(Project.load(paths, config))


# -- baseline ---------------------------------------------------------------


def load_baseline(path: str | Path) -> set[str]:
    """The set of baselined fingerprints (empty when the file is absent)."""
    baseline_path = Path(path)
    if not baseline_path.exists():
        return set()
    try:
        doc = json.loads(baseline_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return set()
    entries = doc.get("findings", []) if isinstance(doc, dict) else []
    return {
        str(entry["fingerprint"])
        for entry in entries
        if isinstance(entry, dict) and "fingerprint" in entry
    }


def write_baseline(path: str | Path, findings: Sequence[Finding]) -> int:
    """Record every finding as accepted; returns the entry count."""
    doc = {
        "format": BASELINE_FORMAT,
        "comment": (
            "Accepted pre-existing `repro analyze` findings. New findings"
            " fail CI; regenerate with `repro analyze --write-baseline`"
            " only after triaging every new entry."
        ),
        "findings": [
            {
                "fingerprint": f.fingerprint,
                "rule": f.rule_id,
                "path": f.path,
                "message": f.message,
            }
            for f in findings
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return len(findings)


def split_by_baseline(
    findings: Sequence[Finding], baseline: set[str]
) -> tuple[list[Finding], list[Finding]]:
    """Partition findings into (new, baselined)."""
    new: list[Finding] = []
    old: list[Finding] = []
    for finding in findings:
        (old if finding.fingerprint in baseline else new).append(finding)
    return new, old


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point shared by ``repro analyze`` and ``python -m repro.check.graph``."""
    import argparse

    from repro.check.rules import explain
    from repro.check.sarif import render_sarif

    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="whole-program analyzer: async-safety, snapshot"
        " picklability, determinism taint",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    parser.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text"
    )
    parser.add_argument(
        "--baseline",
        default=BASELINE_FILENAME,
        help=f"baseline-suppression file (default {BASELINE_FILENAME})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file (report every finding as new)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept every current finding into the baseline file and exit 0",
    )
    parser.add_argument("--out", default=None, help="write the report here")
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
    require_paths(parser.prog, args.paths)
    findings = analyze_paths(args.paths)
    if args.write_baseline:
        count = write_baseline(args.baseline, findings)
        print(  # repro-lint: disable=REP006
            f"wrote {count} finding(s) to {args.baseline}"
        )
        return 0
    baseline = set() if args.no_baseline else load_baseline(args.baseline)
    new, old = split_by_baseline(findings, baseline)
    if args.format == "sarif":
        report = render_sarif(new, baselined=old)
    elif args.format == "json":
        report = render_json(new, baselined=old)
    else:
        report = render_text(new, baselined=old)
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="utf-8")
        print(f"wrote {args.out}")  # repro-lint: disable=REP006
    else:
        print(report)  # repro-lint: disable=REP006
    return 1 if new else 0


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    sys.exit(main())
