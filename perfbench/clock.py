"""Timing in seconds at a reference host speed.

The host this benchmark was tuned on (a 2-vCPU KVM guest) switches
between a fast and a slow state, up to 1.8x apart, for seconds or
minutes at a time, so the median wall time of a 30-second run moved by
up to 1.8x from one run to the next with the code unchanged. A fixed
pure-Python loop, which is benchmark code and the same on every commit,
is timed right before and right after every timed phase. A phase of
``t`` wall seconds, measured while the loop took ``c`` ms on average
around it, is reported as ``t * REFERENCE_CALIBRATION_MS / c``: the
seconds it would take on a host where the loop takes
``REFERENCE_CALIBRATION_MS``. A change to the program moves that figure
as it moves wall time; a change of host state moves both the phase and
the loop, and cancels as far as the two slow down alike.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple, TypeVar

from tracing import NullRecorder

#: Iterations of the calibration loop (about 15 ms on the tuning host).
CALIBRATION_ITERATIONS = 200_000
#: What the loop takes on the reference host, in ms.
REFERENCE_CALIBRATION_MS = 15.0

T = TypeVar("T")


def calibration_ms() -> float:
    """Time the calibration loop once (ms)."""
    start = time.perf_counter()
    total = 0
    for index in range(CALIBRATION_ITERATIONS):
        total += index * index
    return (time.perf_counter() - start) * 1e3


class HostClock:
    """Times phases and scales them to the reference host speed."""

    def __init__(self) -> None:
        #: Every calibration of the run, in order (ms).
        self.calibrations: List[float] = []
        #: Where calibrations are recorded as spans in the traced run.
        self.recorder = NullRecorder()

    def calibrate(self) -> None:
        """Time the loop now, so the next phase starts from a fresh one."""
        with self.recorder.span("calibration"):
            self.calibrations.append(calibration_ms())

    def time(self, function: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``function``; return its result, wall and reference seconds.

        The loop is timed after the phase; the calibration before it is
        the last one taken, so call :meth:`calibrate` first when untimed
        work came in between.
        """
        if not self.calibrations:
            self.calibrate()
        before = self.calibrations[-1]
        start = time.perf_counter()
        result = function()
        wall = time.perf_counter() - start
        self.calibrate()
        around = (before + self.calibrations[-1]) / 2.0
        return result, wall, wall * REFERENCE_CALIBRATION_MS / around
