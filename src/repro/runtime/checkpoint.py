"""Checkpoint/resume state for the (Vdd, Vth) searches.

Both Procedure 2 strategies (``grid`` and the paper's nested bisection)
are deterministic sequences of objective evaluations at (Vdd, Vth)
corners. That makes resume simple and exact: persist the log of
completed corner evaluations plus the best-so-far design, and on resume
replay the search with a cache — corners already in the log return their
recorded energy instantly, the first unfinished corner onwards computes
live. A search interrupted at *any* corner therefore finishes with the
identical design point and energy as an uninterrupted run (property-
tested in ``tests/test_runtime_checkpoint.py``).

Because any prefix of the log resumes exactly, saving every evaluation
buys nothing but a shorter replay. Searches therefore save once per
:data:`CHECKPOINT_EVERY` recorded evaluations, and the optimizer flushes
whatever is pending when the search ends for any reason it can catch:
completion, deadline, cancellation, SIGINT or a model error lose
nothing. Only an uncatchable death (SIGKILL, power loss) loses the
unsaved tail, at most ``CHECKPOINT_EVERY - 1`` evaluations, which the
resumed run recomputes on the same deterministic path.

The file is JSON, written atomically (:mod:`repro.runtime.atomicio`) so
a crash mid-save never destroys the previous good checkpoint, and is
fingerprinted against the network/strategy/settings so a checkpoint
cannot silently resume a *different* search
(:class:`~repro.errors.CheckpointError` otherwise).
"""

from __future__ import annotations

import itertools
import math
import os
import signal
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import CheckpointError
from repro.obs.instrument import CHECKPOINT_FLUSHES
from repro.obs.metrics import current_metrics
from repro.runtime.atomicio import atomic_write_json, read_json_object

FORMAT_KEY = "repro-checkpoint"
FORMAT_VERSION = 1

#: Recorded evaluations per save of a search checkpoint: the cadence
#: every checkpointing search runs at unless its controller asks for
#: another. A SIGKILL loses at most ``CHECKPOINT_EVERY - 1`` evaluations.
CHECKPOINT_EVERY = 32

#: Env var (tests and CI only): SIGKILL this process right after its
#: k-th checkpoint save, so a crash lands at a fixed point of a search
#: rather than at a wall-clock moment that a fast solve can outrun.
KILL_AFTER_SAVES_ENV = "REPRO_KILL_AFTER_SAVES"

_SAVES = itertools.count(1)


def _encode_float(value: float) -> float | str:
    """JSON-portable float: non-finite values become marker strings."""
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return float(value)


def _decode_float(value) -> float:
    if value == "nan":
        return math.nan
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


class SearchCheckpoint:
    """The resumable state of one deterministic (Vdd, Vth) search.

    ``fingerprint`` identifies the search (network, strategy, grid
    sizes, frequency, ranges...); a checkpoint only resumes a search
    with an identical fingerprint. ``path`` is where :meth:`save`
    persists (atomic); ``every`` batches saves to one write per N
    recorded evaluations. Only records that change the state count: a
    new corner in the log, or a better best snapshot. :meth:`flush`
    writes whatever is pending, so a caller that flushes on every exit
    path loses nothing short of a SIGKILL, and a SIGKILL loses at most
    ``every - 1`` evaluations. Searches open their checkpoint at
    :data:`CHECKPOINT_EVERY`; the bare default of 1 saves every record.
    """

    def __init__(self, fingerprint: Mapping[str, object],
                 path: str | Path | None = None, every: int = 1):
        if every < 1:
            raise CheckpointError(f"checkpoint every must be >= 1, "
                                  f"got {every}")
        self.fingerprint: Dict[str, object] = dict(fingerprint)
        self.path = Path(path) if path is not None else None
        self.every = every
        #: Completed evaluations in search order: (vdd, vth, energy, feasible).
        self.log: List[Tuple[float, float, float, bool]] = []
        self._index: Dict[Tuple[float, float], Tuple[float, bool]] = {}
        self.best_energy: float = math.inf
        self.best_point: Optional[Tuple[float, float]] = None
        self.best_widths: Optional[Dict[str, float]] = None
        #: Serialized ``SearchStrategy.state()`` snapshot, when the
        #: search runs through the strategy seam. Informational for
        #: resume (strategies are deterministic and rebuild their state
        #: by replaying the corner log) but persisted so an interrupted
        #: adaptive search is inspectable and verifiable.
        self.strategy_state: Optional[Dict[str, object]] = None
        #: Per-corner robust-estimate bookkeeping (sample/quarantine
        #: counters, yield CI), keyed by
        #: :func:`repro.robust.objective.corner_key`. Persisted so a
        #: resumed robust search reports byte-identical Monte-Carlo
        #: counters without re-sampling replayed corners; absent (and
        #: empty) for nominal searches, so old checkpoints still load.
        self.robust_stats: Dict[str, Dict[str, object]] = {}
        self._pending = 0
        self._state_dirty = False

    # -- recording ---------------------------------------------------------

    def lookup(self, vdd: float, vth: float
               ) -> Optional[Tuple[float, bool]]:
        """(energy, feasible) of an already-completed corner, or None."""
        return self._index.get((vdd, vth))

    def record(self, vdd: float, vth: float, energy: float, feasible: bool,
               best_energy: float,
               best_point: Optional[Tuple[float, float]],
               best_widths: Optional[Mapping[str, float]]) -> None:
        """Append one completed evaluation and the current best snapshot.

        Re-recording a logged corner without a better best changes
        nothing, so it does not count toward the next save.
        """
        key = (vdd, vth)
        changed = key not in self._index
        if changed:
            self.log.append((vdd, vth, energy, feasible))
            self._index[key] = (energy, feasible)
        if best_point is not None and best_energy < self.best_energy:
            self.best_energy = best_energy
            self.best_point = best_point
            self.best_widths = dict(best_widths) if best_widths else None
            changed = True
        if not changed:
            return
        self._pending += 1
        if self.path is not None and self._pending >= self.every:
            self.save()

    def note_strategy_state(self, state: Optional[Dict[str, object]]) -> None:
        """Update the persisted strategy snapshot (saved on next flush)."""
        self.strategy_state = dict(state) if state is not None else None
        self._state_dirty = True

    def note_robust_stat(self, key: str,
                         stat: Mapping[str, object]) -> None:
        """Attach one corner's robust-estimate record (keyed dedup)."""
        self.robust_stats[key] = dict(stat)
        self._state_dirty = True

    @property
    def completed(self) -> int:
        """Number of distinct corners already evaluated."""
        return len(self.log)

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form of the checkpoint."""
        return {
            "_format": FORMAT_KEY,
            "_version": FORMAT_VERSION,
            "fingerprint": dict(self.fingerprint),
            "evaluations": [[_encode_float(vdd), _encode_float(vth),
                             _encode_float(energy), bool(feasible)]
                            for vdd, vth, energy, feasible in self.log],
            "best_energy": _encode_float(self.best_energy),
            "best_point": (list(self.best_point)
                           if self.best_point is not None else None),
            "best_widths": self.best_widths,
            "strategy_state": self.strategy_state,
            "robust_stats": self.robust_stats or None,
        }

    def save(self) -> Optional[Path]:
        """Atomically persist to :attr:`path` (no-op when path is None)."""
        if self.path is None:
            return None
        atomic_write_json(self.path, self.to_dict())
        current_metrics().incr(CHECKPOINT_FLUSHES)
        self._pending = 0
        self._state_dirty = False
        kill_after = os.environ.get(KILL_AFTER_SAVES_ENV)
        if kill_after and next(_SAVES) == int(kill_after):
            os.kill(os.getpid(), signal.SIGKILL)
        return self.path

    def flush(self) -> Optional[Path]:
        """Persist any batched-but-unsaved records."""
        if self.path is not None and (self._pending > 0 or self._state_dirty):
            return self.save()
        return None

    @classmethod
    def load(cls, path: str | Path,
             fingerprint: Mapping[str, object],
             every: int = 1) -> "SearchCheckpoint":
        """Load and validate a checkpoint for the search ``fingerprint``.

        Raises :class:`~repro.errors.CheckpointError` on corrupt or
        truncated files and on fingerprint mismatches (a checkpoint from
        a different network, strategy, or settings must never steer this
        search).
        """
        payload = read_json_object(path, error=CheckpointError)
        if payload.get("_format") != FORMAT_KEY:
            raise CheckpointError(
                f"{path}: not a checkpoint file (missing format marker)")
        if payload.get("_version") != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version "
                f"{payload.get('_version')!r}")
        stored = payload.get("fingerprint")
        if not isinstance(stored, dict):
            raise CheckpointError(f"{path}: checkpoint has no fingerprint")
        expected = dict(fingerprint)
        mismatched = sorted(
            key for key in set(stored) | set(expected)
            if stored.get(key) != _jsonable(expected.get(key)))
        if mismatched:
            details = ", ".join(
                f"{key}: checkpoint={stored.get(key)!r} "
                f"search={expected.get(key)!r}" for key in mismatched[:4])
            raise CheckpointError(
                f"{path}: checkpoint belongs to a different search "
                f"({details})")

        checkpoint = cls(fingerprint, path=path, every=every)
        raw_log = payload.get("evaluations")
        if not isinstance(raw_log, list):
            raise CheckpointError(f"{path}: checkpoint has no evaluation log")
        try:
            for entry in raw_log:
                vdd, vth, energy, feasible = entry
                vdd = _decode_float(vdd)
                vth = _decode_float(vth)
                checkpoint.log.append(
                    (vdd, vth, _decode_float(energy), bool(feasible)))
                checkpoint._index[(vdd, vth)] = (
                    _decode_float(energy), bool(feasible))
            checkpoint.best_energy = _decode_float(
                payload.get("best_energy", "inf"))
            point = payload.get("best_point")
            if point is not None:
                checkpoint.best_point = (_decode_float(point[0]),
                                         _decode_float(point[1]))
            widths = payload.get("best_widths")
            if widths is not None:
                if not isinstance(widths, dict):
                    raise CheckpointError(
                        f"{path}: best_widths must be an object")
                checkpoint.best_widths = {str(name): float(width)
                                          for name, width in widths.items()}
            strategy_state = payload.get("strategy_state")
            if strategy_state is not None:
                if not isinstance(strategy_state, dict):
                    raise CheckpointError(
                        f"{path}: strategy_state must be an object")
                checkpoint.strategy_state = strategy_state
            robust_stats = payload.get("robust_stats")
            if robust_stats is not None:
                if not isinstance(robust_stats, dict):
                    raise CheckpointError(
                        f"{path}: robust_stats must be an object")
                checkpoint.robust_stats = {
                    str(key): dict(stat)
                    for key, stat in robust_stats.items()}
        except CheckpointError:
            raise
        except (TypeError, ValueError, IndexError) as exc:
            raise CheckpointError(
                f"{path}: malformed checkpoint payload ({exc})") from None
        checkpoint._pending = 0
        return checkpoint


def _jsonable(value):
    """The form a fingerprint value takes after a JSON round-trip."""
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value
