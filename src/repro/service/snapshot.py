"""Crash-safe snapshot/restore of the scheduler service.

Snapshot format (``DESIGN.md`` § service subsystem): one file per
snapshot, named ``snap-<round:010d>.pkl``, containing a pickled dict::

    {
        "format": SNAPSHOT_FORMAT,      # int, bumped on layout changes
        "round": <engine round index>,
        "sim_time": <engine clock, seconds>,
        "state": <the pickled service core>,
    }

The service core object graph (engine → cluster → jobs/tasks, scheduler,
predictors, RNGs, admission controller) is pure Python, so ``pickle``
round-trips it exactly — including every ``random.Random`` state — which
is what makes resume *deterministic*: a restored daemon replays the same
subsequent schedule an uninterrupted one would have produced.

Crash safety: writes go to a temp file in the same directory followed by
``os.replace`` (atomic on POSIX), so a crash mid-write can never corrupt
the newest complete snapshot.  A bounded ring of recent snapshots is
kept; older ones are pruned.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

#: Snapshot layout revision (2: a job's graph became a frozen ``JobGraph``).
SNAPSHOT_FORMAT = 2
#: What unpickling a corrupt, truncated or foreign snapshot raises; one
#: naming a module or class this build lacks raises the last two.
_UNREADABLE = (OSError, EOFError, pickle.UnpicklingError, ImportError, AttributeError)

_PREFIX = "snap-"
_SUFFIX = ".pkl"


class SnapshotError(RuntimeError):
    """Unreadable, incompatible, or missing snapshot."""


@dataclass
class SnapshotManager:
    """Writes and restores service snapshots under one directory."""

    directory: Path
    keep: int = 5

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.keep < 1:
            raise ValueError("keep must be >= 1")

    # -- paths -------------------------------------------------------------

    def _path_for(self, round_index: int) -> Path:
        return self.directory / f"{_PREFIX}{round_index:010d}{_SUFFIX}"

    def list_snapshots(self) -> list[Path]:
        """Snapshot files, oldest first."""
        return sorted(self.directory.glob(f"{_PREFIX}*{_SUFFIX}"))

    def latest_path(self) -> Optional[Path]:
        """The newest snapshot file, or ``None``."""
        snapshots = self.list_snapshots()
        return snapshots[-1] if snapshots else None

    # -- save / load -------------------------------------------------------

    def save(self, state: Any, round_index: int, sim_time: float) -> Path:
        """Atomically persist one snapshot; returns its path."""
        payload = {
            "format": SNAPSHOT_FORMAT,
            "round": round_index,
            "sim_time": sim_time,
            "state": state,
        }
        target = self._path_for(round_index)
        fd, tmp_name = tempfile.mkstemp(
            prefix=".tmp-snap-", suffix=_SUFFIX, dir=self.directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._prune()
        return target

    def _read(self, path: Optional[Path]) -> tuple[Path, Any]:
        """Unpickle the snapshot at ``path`` (default: newest)."""
        target = Path(path) if path is not None else self.latest_path()
        if target is None:
            raise SnapshotError(f"no snapshots under {self.directory}")
        try:
            with target.open("rb") as handle:
                return target, pickle.load(handle)
        except _UNREADABLE as exc:
            raise SnapshotError(f"cannot read snapshot {target}: {exc}") from exc

    def load(self, path: Optional[Path] = None) -> Any:
        """Restore the state object from ``path`` (default: newest)."""
        target, payload = self._read(path)
        if not isinstance(payload, dict) or "state" not in payload:
            raise SnapshotError(f"snapshot {target} has no state payload")
        if payload.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"snapshot {target} has format {payload.get('format')!r}, "
                f"expected {SNAPSHOT_FORMAT}"
            )
        return payload["state"]

    def load_meta(self, path: Optional[Path] = None) -> dict[str, Any]:
        """Snapshot header (round, sim_time) without keeping the state."""
        _target, payload = self._read(path)
        return {k: payload[k] for k in ("format", "round", "sim_time")}

    def _prune(self) -> None:
        snapshots = self.list_snapshots()
        for stale in snapshots[: max(0, len(snapshots) - self.keep)]:
            try:
                stale.unlink()
            except OSError:
                pass
