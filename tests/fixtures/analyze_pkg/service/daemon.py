"""Fixture daemon: async shell + snapshot root + taint flows.

Seeds:

* REP100 — ``SchedulerDaemon.handle_snapshot`` reaches blocking
  ``pickle.dump``/``open`` transitively through ``SchedulerService.flush``;
  a suppressed ``time.sleep`` shows the inline waiver.
* REP102 — ``SchedulerService._lock`` (true positive),
  ``SchedulerService._handle`` (excluded in ``__getstate__``; clean),
  plus the engine/guard fields reached through the type graph.
* REP103 — wall-clock taint flows into a sha256 digest through a
  helper return and a local assignment.
"""

import hashlib
import pickle
import threading
import time

from analyze_pkg.service.telemetry import TelemetryExporter
from analyze_pkg.sim.engine import EngineGuard, SimulationEngine


class SchedulerService:
    """The pickled snapshot root (mirrors the real SchedulerService)."""

    def __init__(self, seed: int, path: str) -> None:
        self.seed = seed
        self.path = path
        self.engine = SimulationEngine(seed)
        self.guard: EngineGuard = EngineGuard()
        self.telemetry = TelemetryExporter(path + ".jsonl")
        # REP102 true positive: a lock pickled with every snapshot.
        self._lock = threading.Lock()
        # Clean variant: excluded in __getstate__ below.
        self._handle = open(path, "a")

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_handle"] = None
        return state

    def flush(self) -> None:
        """Blocking snapshot write (REP100 when reached from async)."""
        with open(self.path, "wb") as fh:
            pickle.dump(self, fh)

    def _wallclock(self) -> float:
        """Tainted return: propagates through the call graph."""
        return time.time()

    def round_digest(self) -> str:
        """REP103 true positive: wall-clock stamp hashed into a digest."""
        stamp = self._wallclock()
        digest = hashlib.sha256(str(stamp).encode("utf-8"))
        return digest.hexdigest()

    def emit_round(self) -> None:
        """REP103 true positive: entropy into a telemetry record."""
        self.telemetry.emit({"round": self.engine.round_index, "at": time.time_ns()})


class SchedulerDaemon:
    """The asyncio shell over the synchronous core."""

    def __init__(self, core: SchedulerService) -> None:
        self.core = core

    async def handle_snapshot(self) -> None:
        # REP100 true positive: blocking pickle write reached
        # transitively (handle_snapshot -> flush -> open/pickle.dump).
        self.core.flush()

    async def handle_pause(self) -> None:
        # Suppressed variant: waived inline, must not flag.
        time.sleep(0.01)  # repro-analyze: disable=REP100
