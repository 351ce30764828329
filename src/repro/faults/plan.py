"""Declarative fault plans — what fails, when, and how jobs recover.

Large shared GPU clusters lose servers and single GPUs routinely and
host stragglers chronically; MLFS's migration machinery (Sections 3.3.2
and 3.3.3) is exactly what a scheduler uses to recover from them.  A
:class:`FaultPlan` describes one deterministic failure scenario as an
explicit list of :class:`FaultEvent` entries scheduled at scheduler
rounds:

* ``server_crash`` / ``server_revive`` — whole-server loss and return;
* ``gpu_fail`` / ``gpu_revive`` — single-device loss and return;
* ``straggler_start`` / ``straggler_end`` — a server slows down by a
  multiplicative factor (new iterations touching it run slower).

Plans are *frozen* and **round-trip through JSON** exactly
(``to_json`` / ``from_json`` are inverses), so they ship inside
:class:`repro.exp.spec.RunSpec` documents, fold into spec digests (a
sweep over failure rates caches and resumes like any other sweep), and
can be stored next to results.  Seeded stochastic scenarios are drawn
**at construction time** by :meth:`FaultPlan.from_mtbf` — the draw is
part of building the plan, never part of running it, so the plan the
engine executes is always an explicit, reproducible event list.

``checkpoint_period`` carries the recovery semantics: jobs checkpoint
every that-many completed iterations, and a task killed by a fault
resumes its job from the last checkpoint (the iterations since it are
*lost work*, accounted in the run metrics).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "PLAN_FORMAT",
]

#: Version tag stamped into every serialized plan (and therefore into
#: every spec digest that embeds one).
PLAN_FORMAT = "repro.faults/1"

#: The recognised event kinds.
FAULT_KINDS = frozenset(
    {
        "server_crash",
        "server_revive",
        "gpu_fail",
        "gpu_revive",
        "straggler_start",
        "straggler_end",
    }
)

#: Kinds that address a single GPU (``gpu_id`` required).
_GPU_KINDS = frozenset({"gpu_fail", "gpu_revive"})


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault: *kind* hits *server* (and GPU) at *round*.

    ``round_index`` uses the engine's reported (1-based) round numbers
    — the same numbers :attr:`~repro.sim.engine.PassResult.pass_index`
    and the telemetry ``round`` field carry.  An event at round ``r`` is
    applied during the fault phase at the start of round ``r``, before
    that round's scheduling pass.  ``slowdown`` is only meaningful for
    ``straggler_start`` (multiplier ≥ 1 applied to iteration durations
    of jobs touching the server).
    """

    round_index: int
    kind: str
    server_id: int
    gpu_id: Optional[int] = None
    slowdown: float = 1.0

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ValueError(f"round_index must be >= 0, got {self.round_index}")
        if self.kind not in FAULT_KINDS:
            known = ", ".join(sorted(FAULT_KINDS))
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from: {known}")
        if self.server_id < 0:
            raise ValueError(f"server_id must be >= 0, got {self.server_id}")
        if self.kind in _GPU_KINDS and self.gpu_id is None:
            raise ValueError(f"{self.kind} requires a gpu_id")
        if self.kind == "straggler_start" and self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown}")

    def to_json(self) -> dict[str, Any]:
        """JSON-ready representation (exact inverse of ``from_json``)."""
        out: dict[str, Any] = {
            "round": self.round_index,
            "kind": self.kind,
            "server": self.server_id,
        }
        if self.gpu_id is not None:
            out["gpu"] = self.gpu_id
        if self.kind == "straggler_start":
            out["slowdown"] = self.slowdown
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FaultEvent":
        """Inverse of :meth:`to_json`."""
        return cls(
            round_index=int(data["round"]),
            kind=str(data["kind"]),
            server_id=int(data["server"]),
            gpu_id=int(data["gpu"]) if data.get("gpu") is not None else None,
            slowdown=float(data.get("slowdown", 1.0)),
        )

    def sort_key(self) -> tuple[int, int, int, str]:
        """Deterministic application order within the plan."""
        return (
            self.round_index,
            self.server_id,
            -1 if self.gpu_id is None else self.gpu_id,
            self.kind,
        )


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, serializable failure scenario.

    ``events`` are normalized to a tuple sorted by
    :meth:`FaultEvent.sort_key`, so two plans describing the same
    scenario in different orders are equal and share a digest.
    ``checkpoint_period`` (iterations between checkpoints, ≥ 1) sets the
    checkpoint-restart recovery semantics; 1 means every iteration is
    checkpointed and faults lose no completed work.
    """

    events: tuple[FaultEvent, ...] = ()
    checkpoint_period: int = 1

    def __post_init__(self) -> None:
        normalized = tuple(sorted(self.events, key=FaultEvent.sort_key))
        object.__setattr__(self, "events", normalized)
        if self.checkpoint_period < 1:
            raise ValueError(
                f"checkpoint_period must be >= 1, got {self.checkpoint_period}"
            )

    # -- queries -----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """Whether the plan schedules no events at all."""
        return not self.events

    def events_at(self, round_index: int) -> tuple[FaultEvent, ...]:
        """The events scheduled for one round, in application order."""
        return tuple(e for e in self.events if e.round_index == round_index)

    def last_round(self) -> int:
        """Round of the latest scheduled event (``-1`` when empty)."""
        return max((e.round_index for e in self.events), default=-1)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """JSON-ready representation (exact inverse of ``from_json``)."""
        return {
            "format": PLAN_FORMAT,
            "checkpoint_period": self.checkpoint_period,
            "events": [e.to_json() for e in self.events],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from its JSON form."""
        fmt = data.get("format", PLAN_FORMAT)
        if fmt != PLAN_FORMAT:
            raise ValueError(f"unsupported plan format {fmt!r} (want {PLAN_FORMAT!r})")
        return cls(
            events=tuple(FaultEvent.from_json(e) for e in data.get("events", ())),
            checkpoint_period=int(data.get("checkpoint_period", 1)),
        )

    def digest(self) -> str:
        """SHA-256 of the canonical JSON form."""
        canonical = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- seeded scenario generators ----------------------------------------

    @classmethod
    def from_mtbf(
        cls,
        num_servers: int,
        horizon_rounds: int,
        mtbf_rounds: float,
        seed: int = 0,
        mttr_rounds: float = 5.0,
        straggler_probability: float = 0.0,
        straggler_slowdown: float = 3.0,
        checkpoint_period: int = 1,
    ) -> "FaultPlan":
        """Draw a crash/revive scenario from seeded MTBF statistics.

        Each server independently alternates up/down phases: time to
        failure is exponential with mean ``mtbf_rounds``, repair time is
        exponential with mean ``mttr_rounds`` (at least one round).
        With probability ``straggler_probability`` a failure manifests
        as a straggler phase (slowdown, then recovery) instead of a
        crash.  All draws come from ``random.Random(seed)``, so the
        same arguments always yield the identical explicit plan.
        """
        if num_servers <= 0:
            raise ValueError(f"num_servers must be > 0, got {num_servers}")
        if mtbf_rounds <= 0:
            raise ValueError(f"mtbf_rounds must be > 0, got {mtbf_rounds}")
        rng = random.Random(seed)
        events: list[FaultEvent] = []
        for server_id in range(num_servers):
            clock = rng.expovariate(1.0 / mtbf_rounds)
            while clock < horizon_rounds:
                down = rng.expovariate(1.0 / mttr_rounds) if mttr_rounds > 0 else 1.0
                down_rounds = max(1, int(round(down)))
                fail_round = max(1, int(clock))  # rounds are 1-based
                back_round = fail_round + down_rounds
                straggle = rng.random() < straggler_probability
                if straggle:
                    events.append(
                        FaultEvent(
                            fail_round,
                            "straggler_start",
                            server_id,
                            slowdown=straggler_slowdown,
                        )
                    )
                    if back_round < horizon_rounds:
                        events.append(
                            FaultEvent(back_round, "straggler_end", server_id)
                        )
                else:
                    events.append(FaultEvent(fail_round, "server_crash", server_id))
                    if back_round < horizon_rounds:
                        events.append(
                            FaultEvent(back_round, "server_revive", server_id)
                        )
                clock = back_round + rng.expovariate(1.0 / mtbf_rounds)
        return cls(events=tuple(events), checkpoint_period=checkpoint_period)


def load_plan(path: Any) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return FaultPlan.from_json(json.load(handle))


def save_plan(plan: FaultPlan, path: Any) -> None:
    """Write a :class:`FaultPlan` to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(plan.to_json(), handle, indent=2)
        handle.write("\n")
