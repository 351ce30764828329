"""The ``gateway-openloop`` workload: the front tier under offered load.

A fresh ``python -m repro gateway`` process runs two thread-spawned
workers whose engines never step (``--round-interval 0``), so the run
exercises routing, forwarding and worker admission only.  One asyncio
generator in this process holds two TCP connections and sends
``submit_batch`` requests of :data:`BATCH` jobs:

* an open loop of :data:`OPEN_SUBMISSIONS` at :data:`OPEN_RATE`
  submissions per second.  Requests go out on schedule whatever the
  replies do (the gateway answers each connection in order, so a stall
  queues the requests behind it), and each submission is timed from the
  moment it was due;
* a closed loop of :data:`CLOSED_SUBMISSIONS`, each connection sending
  its next batch as soon as the previous reply arrives.  It measures
  ingest capacity and the latency at capacity, the end-to-end metrics.
  The open loop's latencies are recorded, but its p95 follows how often
  the host stalls (see :data:`OPEN_RATE`).

The generator and the gateway share one CPU, and the generator probes
that CPU's speed while it waits (see :mod:`speed`).  Every submitted id
must come back exactly once with a definite status.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.analysis.cdf import percentile_sorted
from repro.gateway.loadgen import generate_payloads
from repro.obs.distributed import analyze_trace
from repro.service.client import ServiceClient
from repro.service.protocol import STREAM_LIMIT

from speed import PROBE_EVERY_S, REFERENCE_PROBE_S, SpeedTrack, probe

BATCH = 20
CONNECTIONS = 2
#: About a twelfth of the closed-loop capacity on the reference host.
#: Any stall, a GC pause of the gateway (whose workers keep every
#: admitted job, so pauses grow during a run) or the host taking the
#: CPU away, delays every batch sent until its backlog drains, and the
#: open-loop p95 moves as soon as that touches ~5% of them.  At 500/s
#: the p95 moved by 4-8% between seeds while the host ran at full
#: speed, and by 29-45% at 250 or 500/s while it ran at ~55% speed with
#: stalls.  The closed loop, where a stall delays only the two requests
#: in flight, moved by 4% (mean) and 9% (p95) in that state.
OPEN_RATE = 250.0
#: 15 s of open loop.
OPEN_SUBMISSIONS = 3750
#: About 4 s at the capacity measured on the reference host (~3,000/s
#: on one CPU).  A fixed count, not a fixed time, keeps the gateway's
#: final heap the same from run to run.
CLOSED_SUBMISSIONS = 12500
#: Boots per run; the last one serves the measurement.
BOOTS = 3
#: A send later than this at p99 means the generator, not the gateway,
#: set the latencies.
MAX_LATE_MS = 20.0
OUTCOMES = ("admitted", "queued", "rejected")


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Gateway:
    """One gateway process, booted and stopped by this workload."""

    def __init__(self, root: Path, workdir: Path, seed: int, traced: bool) -> None:
        self.workdir = workdir
        self.port = _free_port()
        self.target = f"127.0.0.1:{self.port}"
        cmd = [
            sys.executable, "-m", "repro", "gateway",
            "--spawn", "thread", "--workers", "2",
            "--round-interval", "0", "--gossip-interval", "0", "--no-telemetry",
            "--listen", self.target, "--workdir", str(workdir), "--seed", str(seed),
        ]
        if traced:
            cmd.append("--trace")
        workdir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        with open(workdir / "gateway.log", "wb") as log:
            self.process = subprocess.Popen(cmd, cwd=root, stdout=log, stderr=subprocess.STDOUT)
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def _wait_ready(self, timeout: float = 60.0) -> None:
        """Until the gateway answers ping with both workers up."""
        deadline = time.monotonic() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"gateway exited early:\n{self._log_tail()}")
            try:
                with ServiceClient(self.target, timeout=5.0, connect_retries=0) as client:
                    workers = client.call("ping").get("workers", {})
                if workers.get("total") == 2 and workers.get("up") == 2:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"gateway not ready in {timeout:.0f}s:\n{self._log_tail()}")
            time.sleep(0.01)

    def _log_tail(self) -> str:
        return (self.workdir / "gateway.log").read_text(errors="replace")[-2000:]

    def peak_rss_mb(self) -> float:
        """The gateway process's ``VmHWM``."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> Optional[int]:
        """Ask for shutdown and make sure the process ended."""
        if self.process.poll() is None:
            try:
                with ServiceClient(self.target, timeout=10.0, connect_retries=0) as client:
                    client.shutdown()
            except OSError:
                pass
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10.0)
        return self.process.returncode


@dataclass(frozen=True)
class Request:
    """One pre-encoded ``submit_batch`` line and the job ids it carries."""

    request_id: str
    line: bytes
    job_ids: tuple[str, ...]


def make_leg(prefix: str, count: int, seed: int) -> list[Request]:
    """``count`` seeded payloads with ids unique to this leg, batched.

    ``generate_payloads`` numbers its ids from zero whatever the seed,
    so every leg renames them under its own prefix.
    """
    payloads = []
    for index, payload in enumerate(generate_payloads(count, seed=seed)):
        payload["job_id"] = f"{prefix}-{index:07d}"
        payloads.append(payload)
    requests = []
    for k in range(0, len(payloads), BATCH):
        batch = payloads[k : k + BATCH]
        request_id = f"{prefix}-r{k // BATCH}"
        body = {"op": "submit_batch", "jobs": batch, "id": request_id}
        line = (json.dumps(body, separators=(",", ":")) + "\n").encode()
        requests.append(Request(request_id, line, tuple(p["job_id"] for p in batch)))
    return requests


class Tally:
    """Every reply folded in: latencies, outcomes, ids sent and seen."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.raw_latencies_ms: list[float] = []
        self.outcomes: Counter[str] = Counter()
        self.sent: list[str] = []
        self.seen: Counter[str] = Counter()

    def send(self, request: Request) -> bytes:
        self.sent.extend(request.job_ids)
        return request.line

    def fold(
        self, line: bytes, request: Request, latency_ms: Optional[float] = None, factor: float = 1.0
    ) -> int:
        """Record one reply; returns the submissions it settled.

        ``latency_ms`` as measured, ``factor`` the host-speed scale."""
        reply = json.loads(line) if line else {}
        if reply.get("id") != request.request_id or not reply.get("ok"):
            return 0  # its ids never come back: counted as lost
        results = reply["result"]["results"]
        for result in results:
            self.outcomes[result.get("status", "error")] += 1
            self.seen[str(result.get("job_id"))] += 1
        if latency_ms is not None:
            self.raw_latencies_ms.extend([latency_ms] * len(results))
            self.latencies_ms.extend([latency_ms * factor] * len(results))
        return len(results)

    def integrity(self) -> dict[str, int]:
        sent = set(self.sent)
        return {
            "lost": len(sent - set(self.seen)),
            "duplicated": sum(n - 1 for n in self.seen.values() if n > 1)
            + sum(n for job_id, n in self.seen.items() if job_id not in sent),
            "errors": sum(n for status, n in self.outcomes.items() if status not in OUTCOMES),
        }


Connection = tuple[asyncio.StreamReader, asyncio.StreamWriter]


async def _connect(port: int) -> list[Connection]:
    return [
        await asyncio.open_connection("127.0.0.1", port, limit=STREAM_LIMIT)
        for _ in range(CONNECTIONS)
    ]


async def _close(conns: list[Connection]) -> None:
    for _, writer in conns:
        writer.close()
        await writer.wait_closed()


async def _probe_while(track: SpeedTrack, done: asyncio.Event) -> None:
    loop = asyncio.get_running_loop()
    while not done.is_set():
        track.sample(loop.time())
        try:
            await asyncio.wait_for(done.wait(), PROBE_EVERY_S)
        except asyncio.TimeoutError:
            pass
    track.sample(loop.time())


async def open_loop(
    port: int, requests: list[Request], rate: float, tally: Tally, track: SpeedTrack
) -> list[float]:
    """Send on schedule, round-robin over the connections; returns how
    late each send was (ms).  Latencies are scaled by the host speed."""
    conns = await _connect(port)
    loop = asyncio.get_running_loop()
    interval = BATCH / rate
    in_flight: list[deque[tuple[Request, float]]] = [deque() for _ in conns]
    replies: list[tuple[bytes, Request, float, float]] = []
    late_ms: list[float] = []

    async def read(index: int) -> None:
        reader = conns[index][0]
        for _ in range(len(requests[index :: len(conns)])):
            line = await reader.readline()
            received = loop.time()
            # Replies come in send order, and only after their send.
            request, due = in_flight[index].popleft()
            replies.append((line, request, due, received))

    done = asyncio.Event()
    prober = asyncio.create_task(_probe_while(track, done))
    readers = [asyncio.create_task(read(i)) for i in range(len(conns))]
    start = loop.time() + 0.05
    for k, request in enumerate(requests):
        due = start + k * interval
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        late_ms.append(max(0.0, loop.time() - due) * 1000.0)
        index = k % len(conns)
        in_flight[index].append((request, due))
        conns[index][1].write(tally.send(request))
    await asyncio.gather(*readers)
    done.set()
    await prober
    await _close(conns)
    for line, request, due, received in replies:
        tally.fold(line, request, (received - due) * 1000.0, track.factor_at(due))
    return late_ms


async def closed_loop(
    port: int, requests: list[Request], tally: Tally, track: SpeedTrack
) -> tuple[int, float]:
    """Each connection keeps one batch in flight until every request is
    sent, each timed from its send; returns (submissions settled,
    seconds taken at reference speed).  Latencies are scaled by the
    host speed."""
    conns = await _connect(port)
    loop = asyncio.get_running_loop()
    cursor = iter(requests)
    replies: list[tuple[bytes, Request, float, float]] = []
    done = asyncio.Event()
    prober = asyncio.create_task(_probe_while(track, done))
    started = loop.time()

    async def drive(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        for request in cursor:
            sent = loop.time()
            writer.write(tally.send(request))
            line = await reader.readline()
            replies.append((line, request, sent, loop.time()))

    await asyncio.gather(*(drive(reader, writer) for reader, writer in conns))
    ended = loop.time()
    done.set()
    await prober
    await _close(conns)
    settled = 0
    for line, request, sent, received in replies:
        settled += tally.fold(line, request, (received - sent) * 1000.0, track.factor_at(sent))
    return settled, (ended - started) * track.factor_between(started, ended)


def _percentiles(values: list[float], *pcts: float) -> list[float]:
    ordered = sorted(values)
    return [percentile_sorted(ordered, p) if ordered else 0.0 for p in pcts]


def _boot(root: Path, workdir: Path, seed: int, traced: bool) -> tuple[Gateway, float]:
    """A booted gateway and its boot time at reference speed."""
    before = probe()
    gateway = Gateway(root, workdir, seed, traced)
    return gateway, gateway.boot_s * 2.0 * REFERENCE_PROBE_S / (before + probe())


def run(root: Path, seed: int, share: float, traced: bool) -> dict[str, Any]:
    """One gateway run at ``share`` of full size: boots, open loop,
    closed loop, integrity."""
    closed = round(CLOSED_SUBMISSIONS * share)
    gen_started = time.perf_counter()
    legs = {
        leg: make_leg(f"s{seed}-{leg}", count, seed=3 * seed + offset)
        for leg, count, offset in (
            ("open", round(OPEN_SUBMISSIONS * share), 0),
            ("closed", closed, 1),
            ("untraced", closed // 2 if traced else 0, 2),
        )
    }
    gen_s = time.perf_counter() - gen_started

    # One CPU for the generator and every gateway it starts (children
    # inherit the affinity), so the speed probes taken here measure the
    # CPU the gateway runs on.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    track = SpeedTrack()
    try:
        # Inside the checkout, and short: the workers' Unix sockets live here.
        with tempfile.TemporaryDirectory(prefix=".gw", dir=root) as workbase:
            boots: list[float] = []
            for k in range(BOOTS - 1):
                gateway, boot_s = _boot(root, Path(workbase, f"boot{k}"), seed, traced=False)
                boots.append(boot_s)
                gateway.stop()

            untraced_ingest = 0.0
            if traced:
                # The cost of tracing: closed-loop ingest on an untraced gateway.
                gateway, _ = _boot(root, Path(workbase, "untraced"), seed, traced=False)
                try:
                    settled, elapsed = asyncio.run(
                        closed_loop(gateway.port, legs["untraced"], Tally(), track)
                    )
                    untraced_ingest = settled / elapsed
                finally:
                    gateway.stop()

            tally = Tally()
            gateway, boot_s = _boot(root, Path(workbase, "main"), seed, traced=traced)
            boots.append(boot_s)
            try:
                late_ms = asyncio.run(
                    open_loop(gateway.port, legs["open"], OPEN_RATE, tally, track)
                )
                opened = len(tally.latencies_ms)
                settled, elapsed = asyncio.run(
                    closed_loop(gateway.port, legs["closed"], tally, track)
                )
                trace_doc = None
                if traced:
                    with ServiceClient(gateway.target, timeout=120.0) as client:
                        trace_doc = client.trace_dump()["trace"]
                peak_rss_mb = gateway.peak_rss_mb()
            finally:
                exit_code = gateway.stop()
    finally:
        os.sched_setaffinity(0, affinity)

    integrity = tally.integrity()
    late_p50, late_p99 = _percentiles(late_ms, 50.0, 99.0)
    late_failed = BATCH * sum(v > MAX_LATE_MS for v in late_ms) if late_p99 > MAX_LATE_MS else 0
    open_latencies, closed_latencies = tally.latencies_ms[:opened], tally.latencies_ms[opened:]
    raw_latencies = tally.raw_latencies_ms[opened:]
    ingest = settled / elapsed
    boot_s = statistics.median(boots)
    result: dict[str, Any] = {
        "attempted": len(tally.sent),
        "failed": sum(integrity.values()) + late_failed,
        "end_to_end": {
            "jobs_per_s": ingest,
            "latency_ms_mean": statistics.fmean(closed_latencies),
            "latency_ms_p95": _percentiles(closed_latencies, 95.0)[0],
            "setup_s": boot_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "details": {
            "open_rate_per_s": OPEN_RATE,
            "open_submissions": len(open_latencies),
            "closed_submissions": settled,
            "closed_seconds": elapsed,
            "latency_ms_p50": _percentiles(closed_latencies, 50.0)[0],
            "latency_ms_p99": _percentiles(closed_latencies, 99.0)[0],
            "open_latency_ms_mean": statistics.fmean(open_latencies),
            "open_latency_ms_p50": _percentiles(open_latencies, 50.0)[0],
            "open_latency_ms_p95": _percentiles(open_latencies, 95.0)[0],
            "raw_latency_ms_mean": statistics.fmean(raw_latencies),
            "raw_latency_ms_p95": _percentiles(raw_latencies, 95.0)[0],
            "speed_factor_median": statistics.median(REFERENCE_PROBE_S / p for p in track.probes),
            "boots_s": boots,
            "late_ms_p50": late_p50,
            "late_ms_p99": late_p99,
            "outcomes": dict(tally.outcomes),
            **integrity,
            "gateway_exit_code": exit_code,
            "gen_s": gen_s,
        },
    }
    if trace_doc is not None:
        analysis = analyze_trace(trace_doc)
        categories = analysis["categories"]
        layers: dict[str, float] = {}
        for metric, category in (
            ("gw.routing", "gateway_routing"),
            ("gw.forward", "gateway_forward"),
            ("worker.queue", "worker_queue"),
            ("worker.admission", "worker_admission"),
        ):
            stats = categories.get(category, {})
            layers[f"{metric}_ms_p50"] = stats.get("p50_ms", 0.0)
            layers[f"{metric}_ms_p99"] = stats.get("p99_ms", 0.0)
        layers["gw.admitted"] = tally.outcomes["admitted"] + tally.outcomes["queued"]
        layers["gw.rejected"] = tally.outcomes["rejected"]
        layers["gw.dropped_spans"] = analysis["summary"]["dropped"]
        layers["gw.boot_s"] = boot_s
        layers["loadgen.late_ms_p99"] = late_p99
        layers["workload.gen_s"] = gen_s
        layers["trace.overhead_ratio"] = ingest / untraced_ingest
        result["layers"] = layers
    return result
