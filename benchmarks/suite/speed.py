"""Rescale CPU times by the host's speed at the moment they were taken.

On a shared two-vCPU host the same episode's process CPU time varied
2.4x within minutes: the host slows the vCPU down when a neighbour gets
busy, and the process cannot see that in its own accounting.  A fixed
piece of interpreter-bound work (:func:`probe_work`, dictionary updates,
a sort and a JSON dump) slows down in step with the simulator, so each
interval of measured work is bracketed by probes and rescaled::

    scaled = measured * REFERENCE_PROBE_S / mean(probe before, probe after)

On that host this cut the spread of repeated identical episodes from
17% to 4% of their median.  Scaled times are in seconds of a host on
which the probe takes :data:`REFERENCE_PROBE_S`, which is about what it
took there uncontended, so scaled times read like uncontended CPU time.
The probe is the benchmark's own code: a change to ``src/`` moves the
measured work but not the probe.
"""

from __future__ import annotations

import bisect
import json
import time

#: CPU time of one probe on the reference host (2-vCPU Xeon VM, idle).
REFERENCE_PROBE_S = 0.0008
#: Probe at least this often, in seconds of measured CPU time.
PROBE_EVERY_S = 0.1


def probe_work() -> int:
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    return len(json.dumps(sorted(counts.values())))


def probe() -> float:
    """CPU seconds one probe takes right now."""
    started = time.process_time()
    probe_work()
    return time.process_time() - started


class ScaledClock:
    """Collects CPU-timed intervals and rescales them between probes.

    :meth:`add` records one interval and probes once at least
    :data:`PROBE_EVERY_S` of CPU has been added since the last probe;
    :meth:`settle` probes now.  Either moves the pending intervals,
    rescaled, into :attr:`scaled`, in the order they were added.
    """

    def __init__(self) -> None:
        self._last_probe = probe()
        self._pending: list[float] = []
        self._pending_total = 0.0
        self.scaled: list[float] = []

    def add(self, seconds: float) -> None:
        self._pending.append(seconds)
        self._pending_total += seconds
        if self._pending_total >= PROBE_EVERY_S:
            self.settle()

    def settle(self) -> None:
        if not self._pending:
            return
        current = probe()
        factor = 2.0 * REFERENCE_PROBE_S / (self._last_probe + current)
        self.scaled.extend(seconds * factor for seconds in self._pending)
        self._last_probe = current
        self._pending = []
        self._pending_total = 0.0


class SpeedTrack:
    """Probes taken over wall time, for work timed outside this process.

    The gateway workload pins itself and the gateway it starts to one
    CPU, so probes taken here see the speed the gateway ran at.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probes: list[float] = []

    def sample(self, now: float) -> None:
        self.times.append(now)
        self.probes.append(probe())

    def factor_at(self, when: float) -> float:
        """Scale factor for work done at ``when``: from the probes on
        either side of it."""
        index = bisect.bisect(self.times, when)
        nearby = self.probes[max(0, index - 1) : index + 1]
        return REFERENCE_PROBE_S * len(nearby) / sum(nearby)

    def factor_between(self, start: float, end: float) -> float:
        """Scale factor for work spread over ``[start, end]``."""
        inside = [p for t, p in zip(self.times, self.probes) if start <= t <= end]
        if not inside:
            return self.factor_at(start)
        return REFERENCE_PROBE_S * len(inside) / sum(inside)
