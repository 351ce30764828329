"""Per-layer time ledger, recorded from outside the program.

The suite never edits ``src/``.  It times layers by replacing bound
methods on the objects it hands to the engine (instance attributes
shadow the class methods, so identity, type and pickling of the
wrapped objects are untouched) and by passing the engine an observer
whose spans feed the same stack.

Every timed call is a frame on one stack.  A frame's *busy* time is its
whole duration; its *self* time is that duration minus the time of the
frames nested inside it.  Self times of all layers plus the time spent
outside any frame add up to the traced run, so the shares form a
ledger that sums to 1.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.obs.observer import NullObserver


class Ledger:
    """Busy time, self time and call counts per layer key."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: key -> [busy seconds, self seconds, calls]
        self.totals: dict[str, list[Any]] = defaultdict(lambda: [0.0, 0.0, 0])
        #: Outcome tallies recorded by result hooks (e.g. placements found).
        self.tally: Counter[str] = Counter()
        # Open frames: [key, time covered by nested frames, start].
        self._stack: list[list[Any]] = []

    def busy(self, key: str) -> float:
        return self.totals[key][0]

    def self_time(self, key: str) -> float:
        return self.totals[key][1]

    def calls(self, key: str) -> int:
        return self.totals[key][2]

    def enter(self, key: str) -> Optional[list[Any]]:
        """Open a frame; ``None`` for a re-entrant call within one layer."""
        stack = self._stack
        if stack and stack[-1][0] == key:
            return None
        frame = [key, 0.0, self.clock()]
        stack.append(frame)
        return frame

    def exit(self, frame: Optional[list[Any]]) -> None:
        """Close the frame opened by :meth:`enter`."""
        if frame is None:
            return
        elapsed = self.clock() - frame[2]
        stack = self._stack
        stack.pop()
        totals = self.totals[frame[0]]
        totals[0] += elapsed
        totals[1] += elapsed - frame[1]
        totals[2] += 1
        if stack:
            stack[-1][1] += elapsed

    def wrap(
        self,
        key: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as one frame of layer ``key``."""
        enter, exit_ = self.enter, self.exit

        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def patch(
        self,
        obj: Any,
        names: Iterable[str],
        key: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Time the named methods of ``obj`` as ``key``.

        A missing method raises: a renamed method would otherwise read
        as an idle layer while its time moved to the enclosing frame."""
        for name in names:
            setattr(obj, name, self.wrap(key, getattr(obj, name), on_result))


class LedgerObserver(NullObserver):
    """The engine's observer in a traced run.

    Job events, round gauges and priority publishing stay no-ops, as with
    the default null observer, so a traced run takes the same code paths
    as an untraced one.  Spans named in ``layers`` open ledger frames;
    the rest (``round``, the scheduler's own phase spans) pass through,
    so their time stays with the frame that encloses them.
    """

    def __init__(self, ledger: Ledger, layers: dict[str, str]) -> None:
        self._ledger = ledger
        self._layers = layers

    def span(self, name: str, **args: Any) -> Any:
        key = self._layers.get(name)
        return super().span(name) if key is None else self._frame(key)

    @contextmanager
    def _frame(self, key: str) -> Iterator[None]:
        frame = self._ledger.enter(key)
        try:
            yield
        finally:
            self._ledger.exit(frame)
