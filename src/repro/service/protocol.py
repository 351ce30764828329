"""Wire protocol of the scheduler daemon.

Newline-delimited JSON over a local stream socket: each request and each
response is one JSON object on one line (UTF-8, ``\\n``-terminated).  A
request carries an ``op`` (the verb), an optional client-chosen ``id``
echoed back in the response, and verb-specific parameters.  A response
carries ``ok`` plus either a ``result`` object or an ``error`` string.

Verbs
-----
Every verb is declared once, in :data:`VERBS`: its one-line help, each
parameter's JSON type, whether it is required and its default, any
mutually exclusive parameters, and the tiers that serve it (the
``daemon``, the ``gateway``, or both).  :func:`parse_request` checks a
request against that table (unknown keys included) before any handler
runs; each tier registers one handler per verb it serves through
:class:`VerbHandlers`, which fails at import when a declared verb has
no handler or a handler names an undeclared verb.

Trace context
-------------
Any request may carry an optional ``trace`` envelope field —
``{"trace_id": ..., "span_id": ...}`` — naming the sender's span, so
the receiving process parents its spans under the caller's
(:mod:`repro.obs.tracectx`).  Job payloads additionally carry optional
``trace_id`` / ``parent_span_id`` fields for per-submission traces.
IDs are seeded SHA-256 digests, never ``uuid``/wall-clock, so traced
runs stay bit-reproducible.

A gateway front tier (:mod:`repro.gateway`) speaks the same protocol
over TCP and fans the verbs out across its partition workers, so one
client library serves both tiers.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Awaitable, Callable, Mapping, Optional

from repro.workload.models import MODEL_NAMES

#: Protocol revision; bumped on incompatible changes.
PROTOCOL_VERSION = 1

#: asyncio stream line limit for every listener/connection speaking this
#: protocol.  One ``submit_batch`` line carries the whole batch and one
#: ``trace_dump`` line carries a whole span dump, so the default 64 KiB
#: StreamReader limit truncates them; 64 MiB comfortably fits tens of
#: thousands of jobs — or a full 500k-span tracer ring — per line.
STREAM_LIMIT = 64 * 1024 * 1024

#: The two tiers that serve verbs.
DAEMON = "daemon"
GATEWAY = "gateway"


class ProtocolError(ValueError):
    """Malformed request or response line."""


@dataclass(frozen=True, slots=True)
class JobSpec:
    """Client-side description of one job submission.

    Mirrors :class:`repro.workload.trace.TraceRecord` minus arrival time
    (the daemon stamps arrivals with its own simulation clock).

    ``tenant`` identifies the submitting tenant; the gateway's
    consistent-hash ring routes on it (falling back to the job id) so
    one tenant's jobs land on one partition.  A single daemon ignores
    it beyond echoing it in ``status``.

    ``trace_id`` / ``parent_span_id`` carry the submission's distributed
    trace context (:mod:`repro.obs.tracectx`); the worker parents its
    admission span under them.  Untraced runs omit both.
    """

    model_name: str = "alexnet"
    gpus_requested: int = 4
    max_iterations: int = 20
    accuracy_requirement: float = 0.8
    urgency: int = 5
    training_data_mb: float = 500.0
    job_id: Optional[str] = None
    tenant: Optional[str] = None
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None

    def validate(self) -> None:
        """Raise ``ProtocolError`` on out-of-domain fields."""
        check_job(self.to_payload())

    def to_payload(self) -> dict[str, Any]:
        """The JSON-safe dict form (unset optional fields omitted)."""
        payload = {name: getattr(self, name) for name in JOB_PARAMS}
        return {name: value for name, value in payload.items() if value is not None}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "JobSpec":
        """Parse and validate a payload dict."""
        return cls(**check_job(dict(payload)))


@dataclass(frozen=True, slots=True)
class Param:
    """One parameter: its JSON type, whether it is required, its default.

    ``int`` rejects booleans; ``float`` accepts an integer and widens
    it, and rejects NaN and infinities.  ``None`` stands for "absent"
    only where the default is ``None``.
    """

    type: type
    required: bool = False
    default: Any = None


_JSON_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    bool: "a boolean",
    list: "a list",
    dict: "an object",
    type(None): "null",
}

#: ``JobSpec`` field annotations as JSON types.
_FIELD_TYPES = {"str": str, "int": int, "float": float, "Optional[str]": str}

#: A job payload's fields (the ``submit`` parameters, and each entry of
#: ``submit_batch``'s ``jobs``), read off :class:`JobSpec`.
JOB_PARAMS = {
    f.name: Param(_FIELD_TYPES[str(f.type)], default=f.default) for f in fields(JobSpec)
}
_JOB_DEFAULTS = {name: param.default for name, param in JOB_PARAMS.items()}


def _json_name(value: Any) -> str:
    return _JSON_NAMES.get(type(value), type(value).__name__)


def _check_types(params: Mapping[str, Param], body: dict[str, Any], what: str) -> None:
    """Type-check ``body`` against ``params`` in place; unknown keys fail."""
    for name, value in body.items():
        param = params.get(name)
        if param is None:
            raise ProtocolError(f"unknown {what} {name!r}; valid: {sorted(params)}")
        kind = param.type
        if kind is float and type(value) in (int, float):
            try:
                value = body[name] = float(value)
            except OverflowError:  # an integer beyond float range
                value = math.inf
            if not math.isfinite(value):
                raise ProtocolError(f"{what} {name!r} must be a finite number")
        elif type(value) is not kind and not (value is None and param.default is None):
            raise ProtocolError(
                f"{what} {name!r} must be {_JSON_NAMES[kind]}, got {_json_name(value)}"
            )


def _check_job_domain(payload: dict[str, Any]) -> None:
    """Raise ``ProtocolError`` on a type-checked job's out-of-domain fields."""
    job = {**_JOB_DEFAULTS, **payload}
    if job["model_name"] not in MODEL_NAMES:
        raise ProtocolError(
            f"unknown model_name {job['model_name']!r}; valid: {list(MODEL_NAMES)}"
        )
    if job["gpus_requested"] < 1:
        raise ProtocolError("gpus_requested must be >= 1")
    if job["max_iterations"] < 1:
        raise ProtocolError("max_iterations must be >= 1")
    if not 0.0 <= job["accuracy_requirement"] <= 1.0:
        raise ProtocolError("accuracy_requirement out of [0, 1]")
    if job["urgency"] < 0:
        raise ProtocolError("urgency must be >= 0")
    if job["training_data_mb"] <= 0:
        raise ProtocolError("training_data_mb must be positive")
    for name in ("trace_id", "parent_span_id"):
        if job[name] == "":
            raise ProtocolError(f"{name} must be a non-empty string")


def check_job(payload: Any) -> dict[str, Any]:
    """Validate one job payload in place (types, then domain); returns it.

    Int-valued ``float`` fields are widened; nothing else is added, so
    the checked dict can be forwarded as is.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(f"a job must be an object, got {_json_name(payload)}")
    _check_types(JOB_PARAMS, payload, "job field")
    _check_job_domain(payload)
    return payload


@dataclass(frozen=True, slots=True)
class VerbSpec:
    """One verb of the protocol, declared once for every tier and client."""

    name: str
    help: str
    params: Mapping[str, Param] = field(default_factory=dict)
    #: At most one of these parameters may be given.
    exclusive: tuple[str, ...] = ()
    tiers: tuple[str, ...] = (DAEMON, GATEWAY)
    #: Domain check run after the type check (``submit``'s job rules).
    check: Optional[Callable[[dict[str, Any]], None]] = None

    def validate(self, body: dict[str, Any]) -> None:
        """Check request parameters in place (raises ``ProtocolError``)."""
        _check_types(self.params, body, f"{self.name} parameter")
        for name, param in self.params.items():
            if param.required and body.get(name) is None:
                raise ProtocolError(f"{self.name} requires {name}")
        given = [name for name in self.exclusive if body.get(name) is not None]
        if len(given) > 1:
            raise ProtocolError(
                f"{self.name} accepts at most one of {list(self.exclusive)}; got {given}"
            )
        if self.check is not None:
            self.check(body)

    def build(self, **params: Any) -> dict[str, Any]:
        """The checked parameters of a call; ``None`` means unset."""
        body = {name: value for name, value in params.items() if value is not None}
        self.validate(body)
        return body


_JOB_ID = {"job_id": Param(str, required=True)}

#: Every verb of the protocol, by name.
VERBS: dict[str, VerbSpec] = {
    spec.name: spec
    for spec in (
        VerbSpec(
            "submit",
            "submit one job; admission control admits, queues or rejects it",
            JOB_PARAMS,
            check=_check_job_domain,
        ),
        VerbSpec(
            "submit_batch",
            "submit many jobs in one round trip; a bad job fails only its slot",
            {"jobs": Param(list, required=True)},
        ),
        VerbSpec(
            "status",
            "status of one job, or of every known job",
            {"job_id": Param(str)},
        ),
        VerbSpec("cancel", "cancel a queued or running job", _JOB_ID),
        VerbSpec("metrics", "cluster and engine metrics summary"),
        VerbSpec("metrics_text", "the metrics registry as Prometheus text"),
        VerbSpec("history", "a job's event timeline, admission to completion", _JOB_ID),
        VerbSpec(
            "drain",
            "stop admitting and run until every job completes",
            {"max_rounds": Param(int, default=100_000)},
        ),
        VerbSpec(
            "step",
            "advance the scheduler without draining: passes, sim time or events",
            {
                "rounds": Param(int, default=1),
                "until": Param(float),
                "events": Param(int),
            },
            exclusive=("until", "events", "rounds"),
        ),
        VerbSpec(
            "faultctl",
            "show fault state, or queue a fault for the next round",
            {
                "action": Param(str, required=True),
                "server_id": Param(int),
                "gpu_id": Param(int),
                "slowdown": Param(float, default=3.0),
            },
            tiers=(DAEMON,),
        ),
        VerbSpec("snapshot", "write a snapshot to disk now", tiers=(DAEMON,)),
        VerbSpec("ping", "liveness probe"),
        VerbSpec("workers", "per-partition worker liveness", tiers=(GATEWAY,)),
        VerbSpec(
            "gossip",
            "poll every worker's occupancy now and return the board",
            tiers=(GATEWAY,),
        ),
        VerbSpec("shutdown", "stop the server, snapshotting first when configured"),
        VerbSpec(
            "trace_dump",
            "recorded spans; the gateway merges every worker's into one document",
            {"deterministic": Param(bool, default=False), "reset": Param(bool, default=False)},
        ),
    )
}


@dataclass(frozen=True, slots=True)
class Request:
    """One decoded client request.

    ``trace`` is the optional trace-context envelope (a
    ``{"trace_id", "span_id"}`` dict naming the sender's span); it is
    verb-independent, so any call can be traced without widening verb
    signatures.
    """

    op: str
    id: Optional[str] = None
    params: dict[str, Any] = field(default_factory=dict)
    trace: Optional[dict[str, Any]] = None

    def arg(self, name: str) -> Any:
        """Parameter ``name``, or its declared default when unset."""
        value = self.params.get(name)
        return VERBS[self.op].params[name].default if value is None else value

    def encode(self) -> bytes:
        """Serialize to one wire line."""
        body = {"op": self.op, **self.params}
        if self.id is not None:
            body["id"] = self.id
        if self.trace is not None:
            body["trace"] = self.trace
        return encode_line(body)


@dataclass(frozen=True, slots=True)
class Response:
    """One daemon response."""

    ok: bool
    id: Optional[str] = None
    result: dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None

    def encode(self) -> bytes:
        """Serialize to one wire line."""
        body: dict[str, Any] = {"ok": self.ok}
        if self.id is not None:
            body["id"] = self.id
        if self.ok:
            body["result"] = self.result
        else:
            body["error"] = self.error or "unknown error"
        return encode_line(body)

    @classmethod
    def success(cls, result: dict[str, Any], id: Optional[str] = None) -> "Response":
        """A successful response."""
        return cls(ok=True, id=id, result=result)

    @classmethod
    def failure(cls, error: str, id: Optional[str] = None) -> "Response":
        """A failed response."""
        return cls(ok=False, id=id, error=error)


def encode_line(body: dict[str, Any]) -> bytes:
    """One JSON object, compact separators, newline-terminated."""
    return (json.dumps(body, separators=(",", ":"), sort_keys=True) + "\n").encode()


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a dict (raises ``ProtocolError``)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty line")
    try:
        body = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(body, dict):
        raise ProtocolError("wire messages must be JSON objects")
    return body


def parse_request(line: bytes | str) -> Request:
    """Decode and validate one request line."""
    body = decode_line(line)
    op = body.pop("op", None)
    spec = VERBS.get(op) if isinstance(op, str) else None
    if spec is None:
        raise ProtocolError(f"unknown op {op!r}; valid: {sorted(VERBS)}")
    request_id = body.pop("id", None)
    if request_id is not None and not isinstance(request_id, str):
        raise ProtocolError("id must be a string")
    trace = body.pop("trace", None)
    if trace is not None and not isinstance(trace, dict):
        raise ProtocolError("trace must be an object")
    spec.validate(body)
    return Request(op=spec.name, id=request_id, params=body, trace=trace)


def parse_response(line: bytes | str) -> Response:
    """Decode one response line."""
    body = decode_line(line)
    if "ok" not in body:
        raise ProtocolError("response missing 'ok'")
    return Response(
        ok=bool(body["ok"]),
        id=body.get("id"),
        result=body.get("result") or {},
        error=body.get("error"),
    )


#: A verb handler: ``handler(server, request)`` returns the result dict.
Handler = Callable[[Any, Request], Awaitable[dict[str, Any]]]


class VerbHandlers:
    """One tier's handler per verb, checked against :data:`VERBS`.

    Decorate each handler with ``@handlers("verb")``, then call
    :meth:`complete` once the class is defined: registering an
    undeclared verb, or leaving a declared one without a handler,
    raises while the module imports.
    """

    def __init__(self, tier: str) -> None:
        self.tier = tier
        self.handlers: dict[str, Handler] = {}

    def __call__(self, verb: str) -> Callable[[Handler], Handler]:
        spec = VERBS.get(verb)
        if spec is None or self.tier not in spec.tiers or verb in self.handlers:
            raise ProtocolError(
                f"{self.tier} handler for {verb!r}: not a {self.tier} verb in VERBS,"
                " or handled twice"
            )

        def register(handler: Handler) -> Handler:
            self.handlers[verb] = handler
            return handler

        return register

    def complete(self) -> None:
        """Raise unless every verb this tier serves has a handler."""
        missing = [
            name
            for name, spec in VERBS.items()
            if self.tier in spec.tiers and name not in self.handlers
        ]
        if missing:
            raise ProtocolError(f"{self.tier} serves {missing} but has no handler")

    async def respond(self, server: Any, line: bytes) -> Response:
        """Parse one request line and answer it; never raises."""
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            return Response.failure(str(exc))
        handler = self.handlers.get(request.op)
        try:
            if handler is None:
                raise ProtocolError(f"the {self.tier} does not serve {request.op!r}")
            return Response.success(await handler(server, request), id=request.id)
        except ProtocolError as exc:
            return Response.failure(str(exc), id=request.id)
        except Exception as exc:  # a server must survive any verb failure
            return Response.failure(f"internal error: {exc}", id=request.id)

    async def serve(
        self,
        server: Any,
        tasks: set[asyncio.Task[Any]],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Answer one connection's request lines in order until it closes.

        The connection's task joins ``tasks`` so the server can cancel
        it on stop.
        """
        task = asyncio.current_task()
        if task is not None:
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        try:
            while line := await reader.readline():
                writer.write((await self.respond(server, line)).encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
