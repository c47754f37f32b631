"""The resolved configuration of a statistical (robust) objective.

:class:`RobustConfig` is deliberately *value-like* and JSON-native: its
:meth:`~RobustConfig.resolved` form joins the checkpoint fingerprint,
the serve result-cache key, and result details, so a nominal result can
never satisfy a robust request (and vice versa) and a resumed robust
search can never silently switch measure, sigmas, or sample budget.

Validation happens here, in ``__post_init__`` — the construction site
*is* the boundary. The CLI builds the config while parsing arguments
and the serve admission path builds it inside
:meth:`repro.serve.jobs.JobRequest.__post_init__`, so negative sigmas,
an impossible yield target, or an unknown risk measure raise a labeled
:class:`~repro.errors.OptimizationError` before any worker sees the
job. The sigma, sample-count and seed checks are the ones every
variation input shares (:func:`repro.robust.sampler.validate_variation`),
and the guard band passes the same finite-real check as the sigmas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import OptimizationError
from repro.robust.sampler import validate_nonnegative, validate_variation

#: Supported risk measures over the per-design energy distribution.
RISK_MEASURES: Tuple[str, ...] = ("mean", "p95", "cvar")

#: Quantile behind the ``p95``/``cvar`` measures and the yield CI z.
TAIL_FRACTION = 0.95
CONFIDENCE_Z = 1.96


@dataclass(frozen=True)
class RobustConfig:
    """What "robust" means for one search: measure, constraint, budget."""

    #: Risk measure minimized over the sampled energy distribution.
    measure: str = "p95"
    #: Timing-yield feasibility constraint in (0, 1): a corner whose
    #: estimated yield falls below this is infeasible to the search.
    yield_target: float = 0.95
    #: Gaussian Vth variation (volts), as in
    #: :class:`repro.analysis.montecarlo.VariationStatistics`.
    sigma_within: float = 0.010
    sigma_die: float = 0.015
    #: Full Monte-Carlo budget per surviving corner.
    samples: int = 40
    #: Stage-1 budget of the two-stage schedule: corners whose yield
    #: upper confidence bound after this many samples already misses
    #: ``yield_target`` are culled without spending the full budget.
    #: ``cull_samples >= samples`` disables the culling stage.
    cull_samples: int = 8
    #: Seed of the counter-seeded common-random-number sample streams.
    seed: int = 0
    #: Fraction of a corner's samples that may be quarantined (model
    #: faults) before the corner's estimate is declared unusable.
    max_failure_fraction: float = 0.5
    #: z-score of the guard band on the yield constraint: feasibility
    #: demands the Wilson *lower* bound at this z clears the target,
    #: not the raw sample proportion. The search selects the cheapest
    #: corner that passed, so the raw proportion is biased upward
    #: (winner's curse) and boundary designs routinely miss the target
    #: under fresh-seed verification; one standard error of margin
    #: (z=1) counters that. 0 disables the guard band.
    yield_margin_z: float = 1.0

    def __post_init__(self) -> None:
        if self.measure not in RISK_MEASURES:
            raise OptimizationError(
                f"unknown risk measure {self.measure!r}; "
                f"choose from {', '.join(RISK_MEASURES)}")
        if not 0.0 < self.yield_target < 1.0:
            raise OptimizationError(
                f"yield_target must lie in (0, 1), got {self.yield_target}")
        validate_variation(self.sigma_die, self.sigma_within,
                           samples=(self.samples, 2),
                           cull_samples=(self.cull_samples, 2),
                           seed=(self.seed, None))
        if not 0.0 < self.max_failure_fraction <= 1.0:
            raise OptimizationError(
                f"max_failure_fraction must lie in (0, 1], got "
                f"{self.max_failure_fraction}")
        validate_nonnegative("yield_margin_z", self.yield_margin_z)

    def resolved(self) -> Dict[str, object]:
        """JSON-native identity dict (fingerprints, cache keys, details)."""
        return {
            "measure": self.measure,
            "yield_target": self.yield_target,
            "sigma_within": self.sigma_within,
            "sigma_die": self.sigma_die,
            "samples": self.samples,
            "cull_samples": min(self.cull_samples, self.samples),
            "seed": self.seed,
            "max_failure_fraction": self.max_failure_fraction,
            "yield_margin_z": self.yield_margin_z,
        }
