"""Variation-aware robust optimization (ROADMAP item 2a).

The statistical-objective subsystem: a counter-seeded common-random-
number Monte-Carlo estimator (:mod:`~repro.robust.estimator`) over the
one variation sampler and die loop (:mod:`~repro.robust.sampler`), an
Evaluator-compatible drop-in objective (:mod:`~repro.robust.objective`)
that lets every search strategy minimize mean/p95/CVaR energy under a
timing-yield feasibility constraint, and the optimization/comparison
entry points (:mod:`~repro.robust.optimize`).

``optimize_robust``/``compare_robust`` are exported lazily:
:mod:`repro.robust.optimize` imports the heuristic optimizer, which in
turn imports this package for :class:`RobustConfig` — the deferred
import breaks that cycle.
"""

from __future__ import annotations

from repro.robust.config import RISK_MEASURES, RobustConfig
from repro.robust.estimator import (
    RobustEstimate,
    RobustEstimator,
    estimate_design,
    wilson_interval,
)
from repro.robust.objective import RobustEvaluator, corner_key, robust_details

__all__ = [
    "RISK_MEASURES", "RobustConfig", "RobustEstimate", "RobustEstimator",
    "estimate_design", "wilson_interval", "RobustEvaluator", "corner_key",
    "robust_details", "optimize_robust", "compare_robust",
]

_LAZY = ("optimize_robust", "compare_robust")


def __getattr__(name: str):
    if name in _LAZY:
        from repro.robust import optimize as _optimize

        return getattr(_optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
