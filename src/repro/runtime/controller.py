"""Run control: wall-clock deadlines, cancellation, and progress.

A :class:`RunController` is the cooperative contract between a caller
(CLI, experiment suite, service) and a long-running search. The search
calls :meth:`RunController.check` at every objective evaluation; the
controller raises :class:`~repro.errors.DeadlineExceeded` once the
wall-clock budget is spent or :class:`~repro.errors.RunCancelled` after
:meth:`RunController.cancel`. Optimizers flush their checkpoint before
propagating either, so an interrupted search resumes exactly where it
stopped.

Controllers reach the optimizers two ways:

* explicitly, via the ``controller`` field of the optimizer settings
  objects (:class:`~repro.optimize.heuristic.HeuristicSettings` etc.);
* ambiently, via :func:`use_controller` — a context manager that
  installs a controller for everything on the current thread, which is
  how the experiment runner bounds whole table regenerations without
  threading a parameter through every driver.

Time is injected (``clock=``) so tests and the fault harness can advance
a :class:`FakeClock` deterministically instead of sleeping.
"""

from __future__ import annotations

import contextlib
import math
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional

from repro.errors import DeadlineExceeded, OptimizationError, RunCancelled
from repro.runtime.checkpoint import CHECKPOINT_EVERY


@dataclass(frozen=True)
class ProgressEvent:
    """One progress callback payload from a running search."""

    #: Which stage of the search emitted the event (``"grid"``,
    #: ``"refine"``, ``"paper"``, ``"anneal"``, ``"baseline"``...).
    phase: str
    #: Objective evaluations completed so far.
    evaluations: int
    #: Best total energy seen so far (``inf`` until a feasible point).
    best_energy: float
    #: Wall-clock seconds since the controller was created.
    elapsed_s: float
    #: Counter snapshot from the ambient metrics registry at emit time
    #: (``None`` when observability is disabled).
    metrics: Optional[Mapping[str, int]] = None

    def to_dict(self) -> dict:
        """Strict-JSON form of the event.

        ``best_energy`` is ``inf`` until the first feasible point;
        ``json.dumps`` would emit the non-JSON token ``Infinity`` and
        corrupt checkpoints/traces downstream, so non-finite values
        serialize as ``null`` (:func:`ProgressEvent.from_dict` restores
        them).
        """
        from repro.obs.serialize import json_sanitize

        return {
            "phase": self.phase,
            "evaluations": self.evaluations,
            "best_energy": (self.best_energy
                            if math.isfinite(self.best_energy) else None),
            "elapsed_s": self.elapsed_s,
            "metrics": json_sanitize(self.metrics),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ProgressEvent":
        """Rebuild an event from :meth:`to_dict` output.

        A ``null`` ``best_energy`` round-trips back to ``inf`` (the
        not-yet-feasible sentinel the optimizers use).
        """
        best = payload.get("best_energy")
        return cls(phase=str(payload["phase"]),
                   evaluations=int(payload["evaluations"]),
                   best_energy=math.inf if best is None else float(best),
                   elapsed_s=float(payload["elapsed_s"]),
                   metrics=payload.get("metrics"))


class FakeClock:
    """A manually advanced clock for deterministic deadline tests.

    Pass the instance itself as ``RunController(clock=...)`` — it is
    callable and returns the current fake time.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward by ``seconds`` (must be >= 0)."""
        if seconds < 0.0:
            raise OptimizationError(
                f"cannot advance a clock backwards ({seconds} s)")
        self._now += seconds


class RunController:
    """Deadline, cancellation, checkpoint and progress plumbing for a run.

    ``deadline_s``
        Wall-clock budget in seconds, measured from construction;
        ``None`` means unbounded.
    ``clock``
        Monotonic time source (default :func:`time.monotonic`); inject a
        :class:`FakeClock` for deterministic tests.
    ``progress``
        Optional callback receiving :class:`ProgressEvent` instances.
    ``checkpoint_path`` / ``checkpoint_every``
        Where (and how often, in recorded objective evaluations)
        checkpointing searches persist their state; the default is
        :data:`~repro.runtime.checkpoint.CHECKPOINT_EVERY`. Optimizers
        that support resume honour these; others ignore them.
    """

    def __init__(self, deadline_s: Optional[float] = None,
                 clock: Optional[Callable[[], float]] = None,
                 progress: Optional[Callable[[ProgressEvent], None]] = None,
                 checkpoint_path: str | Path | None = None,
                 checkpoint_every: int = CHECKPOINT_EVERY):
        if deadline_s is not None and deadline_s <= 0.0:
            raise OptimizationError(
                f"deadline_s must be > 0, got {deadline_s}")
        if checkpoint_every < 1:
            raise OptimizationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.deadline_s = deadline_s
        self._clock = clock or time.monotonic
        self._progress = progress
        self.checkpoint_path = (Path(checkpoint_path)
                                if checkpoint_path is not None else None)
        self.checkpoint_every = checkpoint_every
        self._started = self._clock()
        self._cancelled = False
        self.events_emitted = 0
        self.checks = 0

    # -- time -------------------------------------------------------------

    def elapsed(self) -> float:
        """Wall-clock seconds since the controller was created."""
        return self._clock() - self._started

    def remaining(self) -> Optional[float]:
        """Seconds left before the deadline (``None`` = unbounded)."""
        if self.deadline_s is None:
            return None
        return self.deadline_s - self.elapsed()

    @property
    def expired(self) -> bool:
        """True once the wall-clock budget is spent."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    # -- cancellation ------------------------------------------------------

    def cancel(self) -> None:
        """Request cooperative cancellation; the next ``check()`` raises."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    # -- the cooperative checkpoint ---------------------------------------

    def check(self, where: str = "") -> None:
        """Raise if the run should stop (deadline passed or cancelled)."""
        self.checks += 1
        suffix = f" during {where}" if where else ""
        if self._cancelled:
            raise RunCancelled(f"run cancelled{suffix}")
        if self.expired:
            raise DeadlineExceeded(
                f"wall-clock deadline of {self.deadline_s:.3g} s exceeded"
                f"{suffix} (elapsed {self.elapsed():.3g} s)")

    # -- progress ----------------------------------------------------------

    def report(self, phase: str, evaluations: int,
               best_energy: float) -> None:
        """Emit a :class:`ProgressEvent` to the callback, if any.

        When an ambient metrics registry is installed
        (:func:`repro.obs.use_metrics`), the event carries a counter
        snapshot so progress consumers see the hot counters live.
        """
        self.events_emitted += 1
        if self._progress is not None:
            from repro.obs.metrics import current_metrics

            registry = current_metrics()
            snapshot = registry.counters() if registry.enabled else None
            self._progress(ProgressEvent(phase=phase, evaluations=evaluations,
                                         best_energy=best_energy,
                                         elapsed_s=self.elapsed(),
                                         metrics=snapshot))


#: Ambient controller for the current thread/task (see use_controller).
_CURRENT: ContextVar[Optional[RunController]] = ContextVar(
    "repro_run_controller", default=None)


def current_controller() -> Optional[RunController]:
    """The ambient controller installed by :func:`use_controller`, if any."""
    return _CURRENT.get()


def resolve_controller(explicit: Optional[RunController]
                       ) -> Optional[RunController]:
    """The controller a search should obey: explicit wins over ambient."""
    return explicit if explicit is not None else _CURRENT.get()


@contextlib.contextmanager
def use_controller(controller: Optional[RunController]
                   ) -> Iterator[Optional[RunController]]:
    """Install ``controller`` as the ambient controller for this context.

    Everything called inside the ``with`` block that does not carry its
    own explicit controller (optimizers invoked by the experiment
    drivers, for instance) picks this one up via
    :func:`resolve_controller`.
    """
    token = _CURRENT.set(controller)
    try:
        yield controller
    finally:
        _CURRENT.reset(token)
