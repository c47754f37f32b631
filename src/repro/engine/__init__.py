"""Unified evaluation-engine layer (see :mod:`repro.engine.base`).

Every optimizer consumes Procedure 2's inner loop through this package:
:func:`make_engine` (or :meth:`repro.optimize.problem.OptimizationProblem
.evaluator`) resolves ``"auto"`` / ``"scalar"`` / ``"fast"`` /
``"incremental"`` to one of the three concrete engines (``"batch"`` is
an alias of ``"fast"``) and the :class:`Evaluator` objective wraps it
with the canonical evaluation counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.base import (
    ENGINE_CHOICES,
    ENGINE_ENV_VAR,
    ENGINE_NAMES,
    Engine,
    EngineEvaluation,
    EngineMeasurement,
    EngineSizing,
    Evaluator,
    fingerprint_engine_name,
    resolve_engine_name,
    use_engine,
)
if TYPE_CHECKING:  # annotation-only: breaks the engine <-> optimize cycle
    from repro.optimize.problem import OptimizationProblem

__all__ = [
    "ENGINE_CHOICES",
    "ENGINE_ENV_VAR",
    "ENGINE_NAMES",
    "Engine",
    "EngineEvaluation",
    "EngineMeasurement",
    "EngineSizing",
    "Evaluator",
    "fingerprint_engine_name",
    "make_engine",
    "resolve_engine_name",
    "use_engine",
]


def make_engine(problem: OptimizationProblem, engine: str = "auto", *,
                width_method: str = "closed_form",
                bisect_steps: int = 24) -> Engine:
    """Resolve ``engine`` and construct the implementation."""
    name = resolve_engine_name(engine)
    if name in ("fast", "batch"):
        from repro.engine.array import ArrayEngine

        array = ArrayEngine(problem, width_method=width_method,
                            bisect_steps=bisect_steps)
        # The alias keeps its own engine.<name>.evaluations label; it
        # fingerprints as "fast" (see fingerprint_engine_name).
        array.name = name
        return array
    if name == "incremental":
        from repro.engine.incremental import IncrementalEngine

        return IncrementalEngine(problem, width_method=width_method,
                                 bisect_steps=bisect_steps)
    from repro.engine.scalar import ScalarEngine

    return ScalarEngine(problem, width_method=width_method,
                        bisect_steps=bisect_steps)
