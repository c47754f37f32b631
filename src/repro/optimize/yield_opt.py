"""Yield-targeted robust optimization (statistical Figure 2a).

Figure 2a's designer must pick a worst-case tolerance *a priori*; too
small loses yield, too large wastes energy (savings decay monotonically
with tolerance). Given a statistical variation model and a target timing
yield, this module picks the tolerance for them:

1. binary-search the tolerance in ``[0, max_tolerance]``,
2. at each probe, run the variation-aware optimizer
   (:func:`repro.optimize.variation.optimize_with_variation`) and measure
   the design's Monte-Carlo timing yield,
3. keep the smallest tolerance whose design meets the target — by the
   Figure 2a monotonicity, that is the lowest-energy compliant design.

Yield is monotone in the tolerance up to sampling noise; the fixed seed
makes the bisection deterministic and the verification re-samples with a
fresh seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.montecarlo import (
    MonteCarloOutcome,
    VariationStatistics,
    monte_carlo_variation,
)
from repro.engine import make_engine
from repro.errors import InfeasibleError, OptimizationError
from repro.optimize.heuristic import HeuristicSettings
from repro.optimize.problem import OptimizationProblem, OptimizationResult
from repro.optimize.variation import VariationModel, optimize_with_variation


@dataclass(frozen=True)
class YieldTarget:
    """What the production engineer asks for."""

    #: Minimum acceptable timing yield in (0, 1].
    timing_yield: float = 0.99
    #: Monte-Carlo samples per probe.
    samples: int = 120
    #: Statistical variation model.
    statistics: VariationStatistics = VariationStatistics()
    #: Bisection range and resolution on the worst-case tolerance.
    max_tolerance: float = 0.5
    iterations: int = 6
    seed: int = 0
    #: Optional :mod:`repro.engine` name for the Monte-Carlo probes
    #: (``"fast"`` evaluates whole sample ranges per kernel call);
    #: ``None`` is the ``"scalar"`` reference engine.
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.timing_yield <= 1.0:
            raise OptimizationError(
                f"timing_yield must lie in (0, 1], got {self.timing_yield}")
        if not 0.0 < self.max_tolerance < 1.0:
            raise OptimizationError(
                f"max_tolerance must lie in (0, 1), got "
                f"{self.max_tolerance}")
        if self.iterations < 1 or self.samples < 1:
            raise OptimizationError("iterations and samples must be >= 1")


@dataclass(frozen=True)
class YieldResult:
    """Outcome of the yield-targeted search."""

    result: OptimizationResult
    tolerance: float
    outcome: MonteCarloOutcome
    #: Fresh-seed re-sampling of the chosen design (the bisection
    #: selected on ``outcome``'s samples, so only an independent draw
    #: measures the yield honestly), and the seed it used.
    verification: Optional[MonteCarloOutcome] = None
    verify_seed: Optional[int] = None

    @property
    def timing_yield(self) -> float:
        return self.outcome.timing_yield

    @property
    def verified_yield(self) -> Optional[float]:
        """Timing yield under the fresh verification seed."""
        if self.verification is None:
            return None
        return self.verification.timing_yield


def optimize_for_yield(problem: OptimizationProblem,
                       target: YieldTarget | None = None,
                       settings: HeuristicSettings | None = None,
                       verify_seed: Optional[int] = None
                       ) -> YieldResult:
    """Smallest-tolerance robust design meeting the yield target.

    The chosen design is re-sampled with ``verify_seed`` (defaults to
    ``target.seed + 1``; must differ from ``target.seed``) and both the
    seed and the verification outcome are recorded on the result and in
    ``result.details["yield_verification"]``.

    Raises :class:`InfeasibleError` if even ``max_tolerance`` cannot reach
    the target under the given statistics.
    """
    target = target or YieldTarget()
    if verify_seed is None:
        verify_seed = target.seed + 1
    if verify_seed == target.seed:
        raise OptimizationError(
            f"verify_seed must differ from the bisection seed "
            f"{target.seed} — re-sampling the selection set verifies "
            f"nothing")
    budgets = problem.budgets()

    def probe(tolerance: float) -> tuple[OptimizationResult, MonteCarloOutcome]:
        result = optimize_with_variation(problem, VariationModel(tolerance),
                                         settings=settings, budgets=budgets)
        outcome = monte_carlo_variation(problem, result.design,
                                        statistics=target.statistics,
                                        samples=target.samples,
                                        seed=target.seed,
                                        engine=target.engine)
        return result, outcome

    def finish(tolerance: float, result: OptimizationResult,
               outcome: MonteCarloOutcome) -> YieldResult:
        verification = monte_carlo_variation(problem, result.design,
                                             statistics=target.statistics,
                                             samples=target.samples,
                                             seed=verify_seed,
                                             engine=target.engine)
        batched = (target.samples > 1 and make_engine(
            problem, target.engine or "scalar").supports_batch)
        details = dict(result.details)
        details["yield_verification"] = {
            "seed": verify_seed,
            "samples": target.samples,
            "timing_yield": verification.timing_yield,
            "samples_failed": verification.samples_failed,
            # Execution shape: dies per engine invocation (a serial
            # batched run evaluates the whole draw in one call).
            "batched": batched,
            "samples_per_call": target.samples if batched else 1,
        }
        result = OptimizationResult(
            problem=result.problem, design=result.design,
            energy=result.energy, timing=result.timing,
            evaluations=result.evaluations, details=details)
        return YieldResult(result=result, tolerance=tolerance,
                           outcome=outcome, verification=verification,
                           verify_seed=verify_seed)

    best: Optional[tuple[float, OptimizationResult,
                         MonteCarloOutcome]] = None

    # Check the extremes first: the nominal design may already comply,
    # and the max tolerance must comply for the bisection to make sense.
    result, outcome = probe(0.0)
    if outcome.timing_yield >= target.timing_yield:
        return finish(0.0, result, outcome)
    result, outcome = probe(target.max_tolerance)
    if outcome.timing_yield < target.timing_yield:
        raise InfeasibleError(
            f"{problem.network.name}: {outcome.timing_yield:.2%} yield at "
            f"the maximum tolerance {target.max_tolerance}; target "
            f"{target.timing_yield:.2%} unreachable under these statistics")
    best = (target.max_tolerance, result, outcome)

    low, high = 0.0, target.max_tolerance
    for _ in range(target.iterations):
        middle = 0.5 * (low + high)
        result, outcome = probe(middle)
        if outcome.timing_yield >= target.timing_yield:
            best = (middle, result, outcome)
            high = middle
        else:
            low = middle

    tolerance, result, outcome = best
    return finish(tolerance, result, outcome)
