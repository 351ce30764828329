"""Scheduler-phase tracing with Chrome-trace-format export.

A :class:`Tracer` records *spans* — named, nestable intervals measured
on the ``time.perf_counter`` clock — and serializes them as Chrome trace
events (the ``chrome://tracing`` / Perfetto JSON format: complete ``X``
events with ``name``/``ph``/``ts``/``dur`` in microseconds).  The
scheduler round and its phases (:data:`SCHEDULER_PHASES`) are the spans
of interest; anything may open one.

Every stored span is stamped with the distributed trace context active
at close time (see :mod:`repro.obs.tracectx`) and a monotone ``seq``
counter that survives daemon snapshot/restore, so per-process dumps can
be merged into one cluster trace by
:mod:`repro.obs.distributed`.

:class:`NullTracer` is the disabled twin: ``enabled`` is False and it
never stores an event, so instrumented code costs one predicate per
span when tracing is off.  Span *timing* normally lives in
:mod:`repro.obs.observer`, which feeds both the tracer and the metrics
registry from a single ``perf_counter`` pair; processes without a full
observer (the gateway) use :meth:`Tracer.span` directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

from repro.obs.tracectx import TraceContext, current_trace_context, trace_context

__all__ = [
    "SCHEDULER_PHASES",
    "SpanRecord",
    "Tracer",
    "NullTracer",
]

#: The five scheduler-phase span names (plus the enclosing "round").
SCHEDULER_PHASES: tuple[str, ...] = (
    "priority",
    "placement",
    "migration",
    "load_control",
    "rl_inference",
)


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One closed span."""

    name: str
    start_us: float
    dur_us: float
    depth: int
    args: Optional[dict[str, Any]] = None
    seq: int = 0
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        """Compact wire form (``None`` fields dropped) for trace dumps."""
        out: dict[str, Any] = {
            "name": self.name,
            "start_us": self.start_us,
            "dur_us": self.dur_us,
            "depth": self.depth,
            "seq": self.seq,
        }
        if self.args:
            out["args"] = self.args
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        return out

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SpanRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=payload["name"],
            start_us=payload["start_us"],
            dur_us=payload["dur_us"],
            depth=payload.get("depth", 0),
            args=payload.get("args"),
            seq=payload.get("seq", 0),
            trace_id=payload.get("trace_id"),
            span_id=payload.get("span_id"),
            parent_id=payload.get("parent_id"),
        )


class NullSpan:
    """The one no-op span, shared by :class:`NullTracer` and
    :class:`~repro.obs.observer.NullObserver`."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


NULL_SPAN = NullSpan()


class _TracerSpan:
    """A standalone timed span for processes without a full observer."""

    __slots__ = ("_tracer", "name", "args", "_epoch", "_ctx", "_token", "_start", "_depth")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        epoch: float,
        ctx: Optional[TraceContext],
        args: Optional[dict[str, Any]],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._epoch = epoch
        self._ctx = ctx
        self._token: Any = None

    def __enter__(self) -> "_TracerSpan":
        if self._ctx is not None:
            self._token = trace_context(self._ctx)
            self._token.__enter__()
        self._depth = self._tracer.push()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        elapsed = perf_counter() - self._start
        self._tracer.pop(
            self.name, self._start - self._epoch, elapsed, self._depth, self.args
        )
        if self._token is not None:
            self._token.__exit__(*exc_info)
        return False


class Tracer:
    """Collects spans for one run; exports Chrome trace JSON.

    Parameters
    ----------
    max_events:
        Ring guard for long-running daemons: once this many spans are
        stored, further spans are counted in :attr:`dropped` instead of
        kept, so the daemon's memory stays bounded.
    """

    enabled = True

    def __init__(self, max_events: int = 500_000) -> None:
        self.max_events = max_events
        self.events: list[SpanRecord] = []
        self.dropped = 0
        self._depth = 0
        self._seq = 0

    # -- recording (driven by Observer spans) ------------------------------

    def push(self) -> int:
        """Open a nesting level; returns the depth of the new span."""
        self._depth += 1
        return self._depth - 1

    def pop(
        self,
        name: str,
        start_s: float,
        dur_s: float,
        depth: int,
        args: Optional[dict[str, Any]] = None,
    ) -> None:
        """Close the innermost span and store its record.

        The span is stamped with the distributed trace context active in
        the calling task/thread (if any) and the next ``seq`` number.
        """
        self._depth = depth
        seq = self._seq
        self._seq += 1
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        ctx = current_trace_context()
        self.events.append(
            SpanRecord(
                name=name,
                start_us=start_s * 1e6,
                dur_us=dur_s * 1e6,
                depth=depth,
                args=args,
                seq=seq,
                trace_id=ctx.trace_id if ctx is not None else None,
                span_id=ctx.span_id if ctx is not None else None,
                parent_id=ctx.parent_id if ctx is not None else None,
            )
        )

    def span(
        self,
        name: str,
        *,
        epoch: float = 0.0,
        ctx: Optional[TraceContext] = None,
        **args: Any,
    ) -> _TracerSpan:
        """Open a timed span directly on this tracer (context manager).

        ``epoch`` is the ``perf_counter`` origin for timestamps; ``ctx``
        (optional) is activated for the span's extent so it — and any
        nested spans — carry the trace context.
        """
        return _TracerSpan(self, name, epoch, ctx, args or None)

    # -- export ------------------------------------------------------------

    def chrome_events(self, pid: int = 1, tid: int = 1) -> list[dict[str, Any]]:
        """The spans as Chrome-trace complete (``ph: X``) events."""
        out = []
        for record in self.events:
            event: dict[str, Any] = {
                "name": record.name,
                "ph": "X",
                "cat": "scheduler",
                "ts": round(record.start_us, 3),
                "dur": round(record.dur_us, 3),
                "pid": pid,
                "tid": tid,
            }
            args = dict(record.args) if record.args else {}
            if record.trace_id is not None:
                args["trace_id"] = record.trace_id
                args["span_id"] = record.span_id
                if record.parent_id is not None:
                    args["parent_id"] = record.parent_id
            if args:
                event["args"] = args
            out.append(event)
        return out

    def to_chrome_trace(self) -> dict[str, Any]:
        """The full Chrome trace document (Perfetto-loadable)."""
        return {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped},
        }

    def dump(self, role: str = "daemon", reset: bool = False) -> dict[str, Any]:
        """The collector wire form: raw span records plus identity.

        ``reset`` clears the stored events (the ``seq`` counter keeps
        counting) so repeated dumps stream increments.
        """
        out = {
            "role": role,
            "events": [record.to_dict() for record in self.events],
            "dropped": self.dropped,
        }
        if reset:
            self.events = []
        return out

    def write(self, path: str | Path) -> Path:
        """Serialize the trace document to ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace()), encoding="utf-8")
        return path

    def __len__(self) -> int:
        return len(self.events)


class NullTracer:
    """The disabled tracer: records nothing, costs nothing."""

    enabled = False
    events: tuple[SpanRecord, ...] = ()
    dropped = 0

    def push(self) -> int:
        return 0

    def pop(
        self,
        name: str,
        start_s: float,
        dur_s: float,
        depth: int,
        args: Optional[dict[str, Any]] = None,
    ) -> None:
        pass

    def span(
        self,
        name: str,
        *,
        epoch: float = 0.0,
        ctx: Optional[TraceContext] = None,
        **args: Any,
    ) -> NullSpan:
        return NULL_SPAN

    def chrome_events(self, pid: int = 1, tid: int = 1) -> list[dict[str, Any]]:
        return []

    def to_chrome_trace(self) -> dict[str, Any]:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def dump(self, role: str = "daemon", reset: bool = False) -> dict[str, Any]:
        return {"role": role, "events": [], "dropped": 0}

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Every caller writes only when ``tracer.enabled``, which a
        # NullTracer never is, so no event loop reaches this I/O.
        path.write_text(  # repro-analyze: disable=REP100
            json.dumps(self.to_chrome_trace()), encoding="utf-8"
        )
        return path

    def __len__(self) -> int:
        return 0
