"""Counter-seeded Monte-Carlo estimation of a design's risk measures.

One :class:`RobustEstimator` call answers: *if this exact design is
manufactured under the configured Gaussian Vth variation, what energy
distribution and timing yield does it see?* Samples are evaluated at
the fixed design (voltages and widths do not change per die) through
the :class:`repro.engine.Engine` seam.

Dies come from the one sampler (:mod:`repro.robust.sampler`) and are
measured by its one die loop, :func:`~repro.robust.sampler.measure_dies`.
Three properties make the estimator safe on the hot path of a search:

* **Jobs-invariance by construction.** Die ``index`` draws its Vth
  offsets from its own counter-seeded stream, so the estimate is a pure
  function of ``(design, config)``: serial runs, sharded rounds, and
  resumed runs all see byte-identical values. Because the offsets
  depend only on ``(seed, index)`` and not on the design, every design
  is scored against the *same* random dies (common random numbers),
  which makes design-to-design comparisons low-variance — and lets one
  estimator draw each die once and reuse it for every corner it scores.
* **Fault quarantine.** A die whose evaluation raises a model error
  (:class:`~repro.errors.TimingError`, infeasibility, an injected
  fault) or returns a non-finite value is quarantined and counted,
  never allowed to kill the search; the estimate is labeled degraded.
  Beyond :attr:`RobustConfig.max_failure_fraction` the estimate is
  declared unusable (infeasible), still labeled, still returned.
* **Labeled partial estimates.** Under ``partial_on_deadline=True`` a
  deadline expiring mid-estimate yields a partial, degraded-labeled
  estimate instead of a silent narrow-CI lie; on the search hot path
  the deadline propagates instead, so a checkpoint never records a
  corner whose estimate was cut short.

The two-stage schedule spends :attr:`RobustConfig.cull_samples` first;
a corner whose Wilson yield *upper* confidence bound already misses the
yield target is culled (declared infeasible) without the full budget.
The cull decision depends only on the fixed target — never on the
running best of the search — which is what keeps it jobs-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

import numpy as np

from repro.errors import DeadlineExceeded
from repro.obs import trace
from repro.obs.instrument import (
    ROBUST_CORNERS_CULLED,
    ROBUST_ESTIMATES,
    ROBUST_ESTIMATES_DEGRADED,
    ROBUST_SAMPLES,
    ROBUST_SAMPLES_QUARANTINED,
)
from repro.obs.metrics import current_metrics
from repro.robust.config import CONFIDENCE_Z, TAIL_FRACTION, RobustConfig
from repro.robust.sampler import VthSampler, measure_dies

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.engine.base import Engine
    from repro.optimize.problem import OptimizationProblem
    from repro.runtime.controller import RunController

def wilson_interval(successes: int, trials: int,
                    z: float = CONFIDENCE_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Chosen over the Wald interval because it keeps a nonzero width at
    the 0 %/100 % extremes — exactly where the cull stage needs an
    honest upper bound from a handful of samples.
    """
    if trials <= 0:
        return 0.0, 1.0
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (z * math.sqrt(p * (1.0 - p) / trials
                          + z2 / (4.0 * trials * trials))) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _encode(value: Optional[float]):
    """JSON-portable float (non-finite values become marker strings)."""
    if value is None:
        return None
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return float(value)


@dataclass(frozen=True)
class RobustEstimate:
    """Risk measures + yield of one design under Vth variation."""

    measure: str
    #: Full sample budget the schedule would spend on this corner.
    requested: int
    #: Samples that evaluated cleanly (the statistics' denominator).
    samples_used: int
    #: Samples quarantined after a model fault / non-finite value.
    samples_quarantined: int
    #: True when stage 1's yield upper bound already missed the target.
    culled: bool
    mean: Optional[float]
    p95: Optional[float]
    cvar: Optional[float]
    #: The minimized value: the chosen measure, or +inf when the corner
    #: is infeasible (yield miss, cull, or unusable statistics).
    objective: float
    timing_yield: float
    yield_low: float
    yield_high: float
    feasible: bool
    degraded: bool
    degradation: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Checkpoint/details form (plain JSON types, inf encoded)."""
        return {
            "measure": self.measure,
            "requested": self.requested,
            "samples_used": self.samples_used,
            "samples_quarantined": self.samples_quarantined,
            "culled": self.culled,
            "mean": _encode(self.mean),
            "p95": _encode(self.p95),
            "cvar": _encode(self.cvar),
            "objective": _encode(self.objective),
            "timing_yield": self.timing_yield,
            "yield_low": self.yield_low,
            "yield_high": self.yield_high,
            "feasible": self.feasible,
            "degraded": self.degraded,
            "degradation": dict(self.degradation),
        }


class RobustEstimator:
    """Monte-Carlo risk/yield estimation bound to one (problem, engine).

    ``engine`` is any :class:`repro.engine.Engine`; the estimator only
    measures through it, so widths may be the engine-native handle a
    sizing just produced (no materialization on the hot path).
    """

    def __init__(self, problem: "OptimizationProblem", config: RobustConfig,
                 engine: "Engine"):
        self.problem = problem
        self.config = config
        self.engine = engine
        self.gates = problem.ctx.gates
        self.cycle_time = problem.cycle_time
        self.sampler = VthSampler(self.gates, config.sigma_die,
                                  config.sigma_within, config.seed)
        self._offsets = np.empty((0, len(self.gates)))

    def _thresholds(self, vth, start: int, stop: int) -> np.ndarray:
        """Dies ``[start, stop)``'s perturbed thresholds at nominal ``vth``.

        The offsets do not depend on the corner, so each die's are
        drawn once and kept for every corner this estimator scores: at
        most ``config.samples`` rows, in draw order.
        """
        drawn = len(self._offsets)
        if stop > drawn:
            self._offsets = np.concatenate(
                [self._offsets, self.sampler.offsets(drawn, stop)])
        return self.sampler.thresholds(vth, self._offsets[start:stop])

    def estimate(self, vdd, vth, widths, *,
                 controller: "Optional[RunController]" = None,
                 partial_on_deadline: bool = False) -> RobustEstimate:
        """Estimate the design ``(vdd, vth, widths)`` under variation."""
        config = self.config
        cull_at = min(config.cull_samples, config.samples)
        limit = (1.0 + 1e-9) * self.cycle_time
        energies: List[float] = []
        met = 0
        quarantined = 0
        culled = False
        deadline_hit = False
        metrics = current_metrics()
        tracer = trace.current_tracer()

        with tracer.span("robust_estimate", measure=config.measure,
                         samples=config.samples) as span:
            index = 0
            while index < config.samples and not culled:
                # Without a deadline each schedule stage ([0, cull) and
                # [cull, samples)) is one block of dies; a deadline is
                # checked before every die, so its blocks are single
                # dies and a partial estimate stops where the loop did.
                stop = cull_at if index < cull_at else config.samples
                if controller is not None:
                    stop = index + 1
                    try:
                        controller.check(
                            f"{self.problem.network.name} robust estimate")
                    except DeadlineExceeded:
                        # Cancellation always propagates; only a
                        # deadline may trade the tail of the schedule
                        # for a labeled partial estimate.
                        if partial_on_deadline and len(energies) >= 2:
                            deadline_hit = True
                            break
                        raise
                dies = measure_dies(self.engine, vdd,
                                    self._thresholds(vth, index, stop), widths)
                clean = [sample for sample in dies if sample is not None]
                quarantined += len(dies) - len(clean)
                energies.extend(energy for energy, _ in clean)
                met += sum(1 for _, delay in clean if delay <= limit)
                index = stop
                if index == cull_at and cull_at < config.samples:
                    _, high = wilson_interval(met, len(energies))
                    culled = high < config.yield_target
            metrics.incr(ROBUST_SAMPLES, index)
            metrics.incr(ROBUST_SAMPLES_QUARANTINED, quarantined)
            if culled:
                metrics.incr(ROBUST_CORNERS_CULLED)
            metrics.incr(ROBUST_ESTIMATES)
            estimate = self._finish(index, met, quarantined, culled,
                                    deadline_hit, energies)
            if estimate.degraded:
                metrics.incr(ROBUST_ESTIMATES_DEGRADED)
            span.annotate(samples_used=estimate.samples_used,
                          quarantined=quarantined, culled=culled,
                          feasible=estimate.feasible,
                          degraded=estimate.degraded)
        return estimate

    def _finish(self, attempted: int, met: int, quarantined: int,
                culled: bool, deadline_hit: bool,
                energies: List[float]) -> RobustEstimate:
        config = self.config
        used = len(energies)
        degradation: Dict[str, object] = {}
        if quarantined:
            degradation["samples_quarantined"] = quarantined
        if deadline_hit:
            degradation["deadline"] = True
            degradation["samples_missing"] = config.samples - attempted
        over_threshold = (attempted > 0
                          and quarantined / attempted
                          > config.max_failure_fraction)
        if over_threshold:
            degradation["failure_fraction"] = quarantined / attempted
        unusable = used < 2
        if unusable:
            degradation["too_few_samples"] = used

        if unusable:
            mean = p95 = cvar = None
            timing_yield = 0.0
            yield_low, yield_high = 0.0, 1.0
        else:
            ordered = sorted(energies)
            mean = sum(ordered) / used
            tail_index = min(int(TAIL_FRACTION * used), used - 1)
            p95 = ordered[tail_index]
            tail = ordered[tail_index:]
            cvar = sum(tail) / len(tail)
            timing_yield = met / used
            yield_low, yield_high = wilson_interval(met, used)

        # The constraint is enforced on the Wilson lower bound at the
        # configured guard-band z (0 = the raw proportion): the search
        # keeps the cheapest corner that passed, so an unguarded sample
        # yield is biased upward and the boundary winner misses the
        # target under fresh-seed verification (winner's curse).
        yield_floor, _ = wilson_interval(met, used,
                                         z=config.yield_margin_z) \
            if not unusable else (0.0, 1.0)
        feasible = (not culled and not over_threshold and not unusable
                    and yield_floor >= config.yield_target)
        objective = math.inf
        if feasible:
            objective = {"mean": mean, "p95": p95, "cvar": cvar}[
                config.measure]
        return RobustEstimate(
            measure=config.measure, requested=config.samples,
            samples_used=used, samples_quarantined=quarantined,
            culled=culled, mean=mean, p95=p95, cvar=cvar,
            objective=objective, timing_yield=timing_yield,
            yield_low=yield_low, yield_high=yield_high, feasible=feasible,
            degraded=bool(degradation), degradation=degradation)


def estimate_design(problem: "OptimizationProblem", design,
                    config: RobustConfig, engine: str = "auto", *,
                    controller: "Optional[RunController]" = None,
                    partial_on_deadline: bool = True) -> RobustEstimate:
    """Standalone estimate of a :class:`~repro.optimize.problem.DesignPoint`.

    The verification entry point (fresh-seed checks, the CLI report):
    unlike the search hot path it defaults to returning labeled partial
    estimates when the deadline expires mid-estimate.
    """
    from repro.engine import make_engine

    estimator = RobustEstimator(problem, config,
                                make_engine(problem, engine))
    return estimator.estimate(design.vdd, design.vth, design.widths,
                              controller=controller,
                              partial_on_deadline=partial_on_deadline)
