"""The single rule registry behind ``repro lint`` and ``repro analyze``.

Every check the repo's correctness tooling enforces — the per-file lint
rules (REP000–REP007), the typing gate (TYP001) and the whole-program
analyzer families (REP100, REP102, REP103) — is declared here once, with its
rationale, scope and disable syntax.  ``repro lint --explain REPxxx``
and ``repro analyze --explain REPxxx`` both render from this table, so
the documentation cannot drift from the enforcement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "ANALYZE_RULES",
    "LINT_RULES",
    "REGISTRY",
    "RuleInfo",
    "explain",
    "rule_info",
]


@dataclass(frozen=True)
class RuleInfo:
    """One rule: stable id, short name, and its human documentation."""

    rule_id: str
    name: str
    summary: str
    #: Which tool enforces it: ``"lint"``, ``"analyze"`` or ``"typecheck"``.
    tool: str
    #: Why the rule exists (the invariant it protects).
    rationale: str
    #: Where it applies (packages / file scopes / graph scope).
    scope: str
    #: How to waive one finding.
    disable: str


def _lint_disable(rule_id: str) -> str:
    return f"# repro-lint: disable={rule_id} (inline, on the flagged line)"


def _analyze_disable(rule_id: str) -> str:
    return (
        f"# repro-analyze: disable={rule_id} (inline, on the flagged line),"
        " or record the finding in .repro-analyze-baseline.json"
        " via `repro analyze --write-baseline`"
    )


REGISTRY: dict[str, RuleInfo] = {
    rule.rule_id: rule
    for rule in (
        RuleInfo(
            "REP000",
            "syntax-error",
            "file does not parse",
            tool="lint",
            rationale="A file that does not parse cannot be linted; every"
            " other rule is meaningless until the syntax error is fixed.",
            scope="every linted file",
            disable="not suppressible; fix the syntax error",
        ),
        RuleInfo(
            "REP001",
            "wall-clock",
            "wall-clock read in simulated code; use the simulation clock",
            tool="lint",
            rationale="Snapshot/resume replays the exact schedule and two"
            " same-seed runs must be bit-identical; any time.time() /"
            " datetime.now() read inside simulated code couples results to"
            " the host clock and breaks deterministic replay.",
            scope="repro.core, repro.sim, repro.workload, repro.learncurve"
            " (and every file outside the repro package)",
            disable=_lint_disable("REP001"),
        ),
        RuleInfo(
            "REP002",
            "global-rng",
            "global RNG draw in simulated code; use an injected random.Random",
            tool="lint",
            rationale="Global RNG state is shared across the process, so a"
            " draw anywhere reorders every later draw; simulated code must"
            " draw only from an injected random.Random(seed) to keep runs"
            " reproducible and snapshot-restorable.",
            scope="repro.core, repro.sim, repro.workload, repro.learncurve"
            " (and every file outside the repro package)",
            disable=_lint_disable("REP002"),
        ),
        RuleInfo(
            "REP003",
            "mutable-default",
            "mutable default argument",
            tool="lint",
            rationale="A mutable default is created once and shared by every"
            " call, so state leaks across invocations — a classic source of"
            " order-dependent bugs in schedulers and tests alike.",
            scope="all linted files",
            disable=_lint_disable("REP003"),
        ),
        RuleInfo(
            "REP004",
            "bare-except",
            "bare except: hides real failures",
            tool="lint",
            rationale="A bare except catches SystemExit/KeyboardInterrupt and"
            " swallows programming errors that should crash loudly; catch"
            " the narrowest exception the code can actually handle.",
            scope="all linted files",
            disable=_lint_disable("REP004"),
        ),
        RuleInfo(
            "REP005",
            "float-priority-eq",
            "float ==/!= on a priority/score value; compare with a tolerance",
            tool="lint",
            rationale="Priorities and scores are floats produced by chains of"
            " arithmetic; exact equality is representation-dependent and has"
            " already caused one real scheduling bug (pareto float-==)."
            " Compare with a tolerance or on integral keys.",
            scope="all linted files (identifiers matching prio/score)",
            disable=_lint_disable("REP005"),
        ),
        RuleInfo(
            "REP006",
            "print-in-library",
            "print() in library code; route output through repro.obs",
            tool="lint",
            rationale="Library output must flow through the observability"
            " layer so daemons, sweeps and tests stay silent and structured;"
            " stdout belongs to user-facing entry points only.",
            scope="library code (entry points exempt: cli.py, __main__.py,"
            " and scripts under examples/ and benchmarks/)",
            disable=_lint_disable("REP006"),
        ),
        RuleInfo(
            "REP007",
            "nondeterministic-id",
            "non-deterministic ID source; derive ids via repro.obs.tracectx",
            tool="lint",
            rationale="Trace/span/job ids ride the wire protocol and golden"
            " traces; uuid/os.urandom/secrets would make two same-seed runs"
            " emit different ids, breaking bit-reproducible dumps. Ids must"
            " derive from seeded SHA-256 (repro.obs.tracectx).",
            scope="repro.obs, repro.service, repro.gateway"
            " (and every file outside the repro package)",
            disable=_lint_disable("REP007"),
        ),
        RuleInfo(
            "TYP001",
            "missing-annotations",
            "function missing parameter or return annotations",
            tool="typecheck",
            rationale="The strict packages are the correctness core; complete"
            " annotations keep mypy strict mode meaningful and let the"
            " dependency-free AST gate enforce the same contract without"
            " mypy installed.",
            scope="strict packages (repro.core, repro.cluster, repro.check,"
            " repro.exp, repro.api)",
            disable="# repro-lint: disable=TYP001 (inline, on the def line)",
        ),
        RuleInfo(
            "REP100",
            "async-blocking",
            "blocking call reachable from an event-loop coroutine",
            tool="analyze",
            rationale="The daemon and gateway are single event loops serving"
            " every client; one time.sleep, synchronous socket/file/"
            "subprocess call, or Future.result() reached from a coroutine"
            " stalls rounds, health polls and all connections at once. The"
            " analyzer walks the call graph from every async def in"
            " service/ and gateway/, so indirection does not hide the"
            " blocking call. Off-loop work belongs in asyncio.to_thread /"
            " run_in_executor.",
            scope="call graph reachable from async defs in repro.service"
            " and repro.gateway",
            disable=_analyze_disable("REP100"),
        ),
        RuleInfo(
            "REP102",
            "snapshot-unpicklable",
            "unpicklable state reachable from a snapshot root",
            tool="analyze",
            rationale="Crash-safe restore pickles the whole service core;"
            " a lock, socket, open file, generator, executor or contextvar"
            " token reachable from a snapshot root makes every snapshot"
            " raise at save time — usually discovered only during an"
            " outage. Fields legitimately excluded must be dropped in"
            " __getstate__/__reduce__.",
            scope="type graph reachable from SchedulerService,"
            " SimulationEngine and FaultInjector",
            disable=_analyze_disable("REP102"),
        ),
        RuleInfo(
            "REP103",
            "determinism-taint",
            "wall-clock/entropy value flows into digests, telemetry or ids",
            tool="analyze",
            rationale="Digests, telemetry records and trace ids are the"
            " determinism contract's observable surface: two same-seed runs"
            " must produce identical bytes. A wall-clock or unseeded-RNG"
            " value flowing into them — possibly through several"
            " assignments and calls — silently breaks golden traces and"
            " digest-keyed sweep caching. The analyzer taints entropy"
            " sources and follows the flow through the call graph.",
            scope="flows into hashlib digests, pass_record/TelemetryExporter"
            ".emit, derive_trace_id/derive_span_id/TraceContext",
            disable=_analyze_disable("REP103"),
        ),
    )
}

#: Rules enforced by the per-file lint (``repro lint``).
LINT_RULES: dict[str, RuleInfo] = {
    rid: rule for rid, rule in REGISTRY.items() if rule.tool == "lint"
}

#: Rule families enforced by the whole-program analyzer (``repro analyze``).
ANALYZE_RULES: dict[str, RuleInfo] = {
    rid: rule for rid, rule in REGISTRY.items() if rule.tool == "analyze"
}


def rule_info(rule_id: str) -> Optional[RuleInfo]:
    """Look up one rule by id (case-insensitive)."""
    return REGISTRY.get(rule_id.upper())


def explain(rule_id: str) -> str:
    """Render one rule's documentation (rationale, scope, disable syntax)."""
    rule = rule_info(rule_id)
    if rule is None:
        known = ", ".join(sorted(REGISTRY))
        return f"unknown rule {rule_id!r}; known rules: {known}"
    return "\n".join(
        [
            f"{rule.rule_id} [{rule.name}] — {rule.summary}",
            f"  tool:      repro {rule.tool}",
            f"  rationale: {rule.rationale}",
            f"  scope:     {rule.scope}",
            f"  disable:   {rule.disable}",
        ]
    )
