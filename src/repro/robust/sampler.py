"""The one Vth variation sampler and the one die-measurement loop.

The robust estimator (:mod:`repro.robust.estimator`) and Monte-Carlo
analysis (:mod:`repro.analysis.montecarlo`) both draw and measure their
dies here, so "die ``index`` under seed ``seed``" means one thing.

Die ``index`` draws from ``random.Random((seed << 32) ^ index)``: one
die-to-die offset (``sigma_die``), then one within-die offset
(``sigma_within``) per gate in canonical ``ctx.gates`` order. A die
draws the same offsets serially, in any shard of any worker and for any
design (common random numbers), and the offsets do not depend on the
nominal Vth: a caller may draw them once (:meth:`VthSampler.offsets`,
``(B, n)`` arrays) and apply them to many corners
(:meth:`VthSampler.thresholds`, which owns the :data:`MIN_VTH` clamp).
"""

from __future__ import annotations

import math
import numbers
from random import Random
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    FaultInjectedError,
    InfeasibleError,
    OptimizationError,
    TimingError,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.engine.base import Engine

#: Perturbed thresholds are clamped here (volts).
MIN_VTH = 0.02

#: Errors that quarantine a single die instead of killing the run.
SAMPLE_FAULTS = (TimingError, InfeasibleError, OptimizationError,
                 FaultInjectedError)


def validate_nonnegative(name: str, value) -> None:
    """``value`` must be a finite real ``>= 0`` (``bool`` excluded), or a
    labeled :class:`~repro.errors.OptimizationError` names ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value) or value < 0.0:
        raise OptimizationError(
            f"{name} must be a finite number >= 0, got {value!r}")


def validate_variation(sigma_die, sigma_within, **counts) -> None:
    """The shared check of variation inputs.

    Sigmas must pass :func:`validate_nonnegative`. Each keyword is
    ``name=(value, minimum)``: an integer (``bool`` excluded) that is at
    least ``minimum`` (``None``: any integer, as for seeds). Raises a
    labeled :class:`~repro.errors.OptimizationError`.
    """
    validate_nonnegative("sigma_die", sigma_die)
    validate_nonnegative("sigma_within", sigma_within)
    for name, (value, minimum) in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise OptimizationError(
                f"{name} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise OptimizationError(
                f"{name} must be >= {minimum}, got {value}")


class VthSampler:
    """Counter-seeded Gaussian Vth dies for one circuit."""

    def __init__(self, gates: Sequence[str], sigma_die: float,
                 sigma_within: float, seed: int):
        self.gates = tuple(gates)
        self.sigma_die = sigma_die
        self.sigma_within = sigma_within
        self.seed = seed

    def offsets(self, start: int, stop: int) -> np.ndarray:
        """Dies ``[start, stop)``'s Vth offsets, ``(B, n)`` canonical."""
        n = len(self.gates)
        block = np.empty((stop - start, n))
        for row, index in enumerate(range(start, stop)):
            gauss = Random((self.seed << 32) ^ index).gauss
            die = gauss(0.0, self.sigma_die)
            block[row] = [die + gauss(0.0, self.sigma_within)
                          for _ in range(n)]
        return block

    def thresholds(self, vth, offsets: np.ndarray) -> np.ndarray:
        """Perturbed thresholds: nominal ``vth`` (a scalar, a
        ``{name: vth}`` map or a canonical vector) plus ``offsets``,
        clamped at :data:`MIN_VTH`."""
        if isinstance(vth, Mapping):
            vth = np.asarray([vth[name] for name in self.gates], dtype=float)
        return np.maximum(vth + offsets, MIN_VTH)


def measure_dies(engine: "Engine", vdd, vth_rows: np.ndarray, widths
                 ) -> List[Optional[Tuple[float, float]]]:
    """``(energy, critical_delay)`` per die of one fixed design.

    ``vth_rows`` holds one canonical threshold vector per die. An engine
    with ``supports_batch`` measures more than one die in a single
    :meth:`~repro.engine.Engine.measure_batch` call; otherwise, or when
    that call raises a :data:`SAMPLE_FAULTS` error, each die is measured
    alone, so exactly the faulty dies are lost. A die whose measurement
    faults or is non-finite is quarantined: its entry is ``None``.
    """
    count = len(vth_rows)
    measured = None
    if count > 1 and engine.supports_batch:
        try:
            measured = engine.measure_batch([vdd] * count, vth_rows,
                                            [widths] * count)
        except SAMPLE_FAULTS:
            measured = None
    results: List[Optional[Tuple[float, float]]] = []
    for die, vth in enumerate(vth_rows):
        try:
            measurement = (measured[die] if measured is not None
                           else engine.measure(vdd, vth, widths))
        except SAMPLE_FAULTS:
            results.append(None)
            continue
        energy, delay = measurement.energy, measurement.critical_delay
        finite = math.isfinite(energy) and math.isfinite(delay)
        results.append((energy, delay) if finite else None)
    return results
