"""Correctness tooling: static checks over one parse, runtime sanitizer.

MLFS correctness rests on invariants the paper states but ordinary
tests rarely exercise: GPU/bandwidth conservation under MLF-H placement
and overload relief (Eqs. 2-6), priority-ordered dequeue, and
deterministic replay of the simulated schedule.  Three tools police
them, built from five modules:

* ``repro lint`` (:mod:`repro.check.lint`) -- per-file rules that
  reject the code patterns which historically break determinism and
  hygiene: wall-clock reads and global-RNG draws inside simulated
  code, mutable default arguments, bare ``except:``, float ``==`` on
  priority/score values, ``print()`` in library code and
  non-deterministic ID sources.  ``repro typecheck``
  (:mod:`repro.check.typing_gate`) runs mypy when installed and
  otherwise the lint's TYP001 annotation rule over the strict
  packages.
* ``repro analyze`` (:mod:`repro.check.graph`) -- the whole-program
  analyzer.  Its pass 1 is the package's only front end: every file is
  parsed once into a ``ModuleInfo`` whose import maps resolve any call
  to its canonical dotted name, and the lint rules run over that same
  parse.  On top of it the analyzer builds a symbol table, import graph
  and call graph and checks cross-module invariants no per-file pass
  can see -- blocking calls reachable from event-loop coroutines
  (REP100), wire-protocol verb drift (REP101), unpicklable state
  reachable from snapshot roots (REP102), and wall-clock/entropy taint
  flowing into digests, telemetry or trace ids (REP103).  Reports as
  text, JSON or SARIF 2.1.0 (:mod:`repro.check.sarif`) with baseline
  suppression.
* The runtime invariant sanitizer (:mod:`repro.check.sanitize`), opt-in
  via ``REPRO_SANITIZE=1`` or ``SimulationEngine(sanitize=True)``:
  after every scheduler round it asserts resource conservation, queue
  consistency, priority-monotone dequeue order and snapshot round-trip
  equality, raising :class:`~repro.check.sanitize.InvariantViolation`
  with the offending server/task ids.

:mod:`repro.check.rules` is the single registry documenting every
rule's rationale, scope and disable syntax; ``--explain`` renders it.
"""

from repro.check.graph import (
    AnalyzerConfig,
    Finding,
    Project,
    analyze_paths,
    render_json,
    render_text,
)
from repro.check.lint import RULES, lint_paths, lint_source
from repro.check.rules import ANALYZE_RULES, LINT_RULES, REGISTRY, RuleInfo, explain
from repro.check.sanitize import (
    InvariantViolation,
    SanitizingCluster,
    Sanitizer,
    sanitize_from_env,
)
from repro.check.sarif import render_sarif

__all__ = [
    "ANALYZE_RULES",
    "AnalyzerConfig",
    "Finding",
    "InvariantViolation",
    "LINT_RULES",
    "Project",
    "REGISTRY",
    "RULES",
    "RuleInfo",
    "SanitizingCluster",
    "Sanitizer",
    "analyze_paths",
    "explain",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_sarif",
    "render_text",
    "sanitize_from_env",
]
