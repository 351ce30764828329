"""Blocking client for the scheduler daemon and the gateway front tier.

Speaks the newline-delimited JSON protocol over a Unix domain socket or
a TCP connection.  One request ↔ one response, in order, on one
connection; the client is safe to reuse sequentially but is not
thread-safe.

Targets
-------
The constructor accepts any of:

* a filesystem path (``"/tmp/repro.sock"``) — Unix domain socket;
* ``"host:port"`` (``"127.0.0.1:7450"``) — TCP, how clients reach the
  gateway front tier;
* an explicit scheme: ``"unix:///tmp/repro.sock"`` or
  ``"tcp://127.0.0.1:7450"``.

Connection attempts retry with bounded exponential backoff on
``ConnectionRefusedError`` / ``FileNotFoundError`` so a client started
alongside a daemon (or the gateway supervisor waiting on a worker it
just spawned) tolerates the short window before the socket exists.

Usage::

    with ServiceClient("/tmp/repro.sock") as client:
        out = client.submit(JobSpec(model_name="resnet", gpus_requested=4))
        client.wait(out["job_id"])
        print(client.metrics())
"""

from __future__ import annotations

import socket
import time
from typing import Any, Optional

from repro.obs.tracectx import TraceContext
from repro.service.protocol import (
    VERBS,
    JobSpec,
    ProtocolError,
    Request,
    parse_response,
)

#: Errors worth retrying while a daemon is still starting up.
_RETRYABLE = (ConnectionRefusedError, FileNotFoundError)


class ServiceError(RuntimeError):
    """The daemon answered with an error response."""


def parse_target(target: str) -> tuple[str, Any]:
    """Classify a connection target.

    Returns ``("unix", path)`` or ``("tcp", (host, port))``.  A bare
    ``host:port`` (no slash, integer port) is TCP; anything else is a
    Unix socket path.
    """
    if target.startswith("unix://"):
        return "unix", target[len("unix://") :]
    if target.startswith("tcp://"):
        target = target[len("tcp://") :]
        host, _, port = target.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"bad tcp target {target!r}; want host:port")
        return "tcp", (host, int(port))
    if "/" not in target and ":" in target:
        host, _, port = target.rpartition(":")
        if host and port.isdigit():
            return "tcp", (host, int(port))
    return "unix", target


class ServiceClient:
    """A small synchronous client for the daemon/gateway socket."""

    def __init__(
        self,
        target: str,
        timeout: float = 30.0,
        connect_retries: int = 5,
        connect_backoff: float = 0.05,
        connect_backoff_cap: float = 1.0,
    ) -> None:
        self.target = target
        self.timeout = timeout
        self.connect_retries = max(0, int(connect_retries))
        self.connect_backoff = connect_backoff
        self.connect_backoff_cap = connect_backoff_cap
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 0

    # -- connection --------------------------------------------------------

    def _open(self) -> socket.socket:
        kind, address = parse_target(self.target)
        if kind == "tcp":
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(address)
        except BaseException:
            sock.close()
            raise
        return sock

    def connect(self) -> "ServiceClient":
        """Open the connection (idempotent), retrying with backoff.

        Up to ``connect_retries`` re-attempts follow the first failure,
        sleeping ``connect_backoff * 2**attempt`` (capped) between
        tries, so a daemon that is still binding its socket does not
        force callers into sleep-and-hope loops.  The final error is
        re-raised unchanged.
        """
        if self._sock is not None:
            return self
        delay = self.connect_backoff
        for attempt in range(self.connect_retries + 1):
            try:
                sock = self._open()
                break
            except _RETRYABLE:
                if attempt >= self.connect_retries:
                    raise
                time.sleep(min(delay, self.connect_backoff_cap))
                delay *= 2.0
        self._sock = sock
        self._file = sock.makefile("rwb")
        return self

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request plumbing --------------------------------------------------

    def call(
        self, op: str, _trace: Optional[TraceContext] = None, **params: Any
    ) -> dict[str, Any]:
        """Send one request; return the ``result`` dict or raise.

        ``_trace`` (keyword, underscored to stay clear of verb params)
        attaches a trace-context envelope so the receiving process
        parents its spans under the caller's span.
        """
        self.connect()
        assert self._file is not None
        self._next_id += 1
        request = Request(
            op=op,
            id=f"c{self._next_id}",
            params=params,
            trace=_trace.to_wire() if _trace is not None else None,
        )
        self._file.write(request.encode())
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServiceError("connection closed by daemon")
        try:
            response = parse_response(line)
        except ProtocolError as exc:
            raise ServiceError(f"bad response: {exc}") from None
        if not response.ok:
            raise ServiceError(response.error or "unknown daemon error")
        return response.result

    # -- verbs -------------------------------------------------------------

    def _verb(
        self, op: str, _trace: Optional[TraceContext] = None, **params: Any
    ) -> dict[str, Any]:
        """:meth:`call` with ``params`` checked against the verb table.

        ``None`` means unset; a malformed call raises
        :class:`ProtocolError` before anything is sent.
        """
        return self.call(op, _trace=_trace, **VERBS[op].build(**params))

    def ping(self) -> bool:
        """Liveness probe."""
        return bool(self._verb("ping").get("pong"))

    def ping_info(self) -> dict[str, Any]:
        """Liveness probe with the measured round-trip latency (ms)."""
        start = time.perf_counter()
        result = self._verb("ping")
        result["rtt_ms"] = (time.perf_counter() - start) * 1000.0
        return result

    def submit(
        self, spec: JobSpec, trace: Optional[TraceContext] = None
    ) -> dict[str, Any]:
        """Submit a job; returns job_id plus the admission outcome."""
        return self._verb("submit", _trace=trace, **spec.to_payload())

    def submit_batch(
        self,
        specs: list[JobSpec] | list[Any],
        trace: Optional[TraceContext] = None,
    ) -> list[dict[str, Any]]:
        """Submit many jobs in one round trip; per-job outcomes in order.

        Jobs are checked by the server, slot by slot.
        """
        jobs = [spec.to_payload() if isinstance(spec, JobSpec) else spec for spec in specs]
        out = self._verb("submit_batch", _trace=trace, jobs=jobs)
        return list(out.get("results", []))

    def status(self, job_id: Optional[str] = None) -> dict[str, Any]:
        """Status of one job, or of every known job."""
        return self._verb("status", job_id=job_id)

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a parked or active job."""
        return self._verb("cancel", job_id=job_id)

    def metrics(self) -> dict[str, Any]:
        """Engine/cluster metrics snapshot."""
        return self._verb("metrics")

    def metrics_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        return str(self._verb("metrics_text").get("text", ""))

    def history(self, job_id: str) -> dict[str, Any]:
        """A job's event timeline."""
        return self._verb("history", job_id=job_id)

    def drain(self, max_rounds: Optional[int] = None) -> dict[str, Any]:
        """Stop admissions and run everything to completion."""
        return self._verb("drain", max_rounds=max_rounds)

    def step(
        self,
        rounds: Optional[int] = None,
        until: Optional[float] = None,
        events: Optional[int] = None,
    ) -> dict[str, Any]:
        """Advance the scheduler without draining.

        At most one stepping mode applies: ``until`` runs passes until
        the sim clock reaches that time, ``events`` until that many
        simulator events have been processed, and ``rounds`` counts
        scheduling passes (the default: one).
        """
        return self._verb("step", rounds=rounds, until=until, events=events)

    def workers(self) -> dict[str, Any]:
        """Per-partition worker liveness (gateway only)."""
        return self._verb("workers")

    def gossip(self) -> dict[str, Any]:
        """Force an occupancy poll of every worker (gateway only)."""
        return self._verb("gossip")

    def faultctl(
        self,
        action: str,
        server_id: Optional[int] = None,
        gpu_id: Optional[int] = None,
        slowdown: Optional[float] = None,
    ) -> dict[str, Any]:
        """Inspect ("status") or inject faults (e.g. "server_crash")."""
        return self._verb(
            "faultctl",
            action=action,
            server_id=server_id,
            gpu_id=gpu_id,
            slowdown=slowdown,
        )

    def trace_dump(
        self, deterministic: bool = False, reset: bool = False
    ) -> dict[str, Any]:
        """The server's span dump.

        Against a single daemon: its raw spans (``events``/``dropped``).
        Against the gateway: one merged Chrome-trace document covering
        the gateway and every worker (``trace`` key), with
        ``deterministic`` re-keying timestamps onto the canonical order
        so same-seed dumps are byte-identical.
        """
        return self._verb("trace_dump", deterministic=deterministic, reset=reset)

    def snapshot(self) -> str:
        """Force a snapshot; returns its path."""
        return str(self._verb("snapshot")["path"])

    def shutdown(self) -> None:
        """Ask the daemon to stop."""
        self._verb("shutdown")

    def wait(
        self,
        job_id: str,
        timeout: float = 60.0,
        poll_interval: float = 0.05,
    ) -> dict[str, Any]:
        """Poll ``status`` until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status.get("state") in {"completed", "cancelled", "rejected"}:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} not terminal after {timeout}s")
            time.sleep(poll_interval)
