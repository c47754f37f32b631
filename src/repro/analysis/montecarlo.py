"""Statistical process-variation analysis (the Figure 2a complement).

The paper's §5 robustness study is a *worst-case* analysis: every device
simultaneously at the slow (or leaky) Vth corner. Real die-to-die and
within-die variation is statistical, and worst-casing every gate at once
is pessimistic. This module quantifies that pessimism:

* each sample draws an independent Gaussian Vth offset per gate
  (within-die, ``sigma_within``) on top of one shared offset per sample
  (die-to-die, ``sigma_die``),
* each sample is evaluated with full STA and the energy model at the
  *fixed* design (voltages and widths do not change per die),
* the result is a timing-yield estimate and energy percentiles —
  the numbers a production engineer would hold next to Figure 2a.

Dies are drawn and measured exactly as the robust estimator's are, by
the one sampler and die loop of :mod:`repro.robust.sampler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import OptimizationError
from repro.obs.instrument import MC_SAMPLES_FAILED
from repro.obs.metrics import current_metrics
from repro.optimize.problem import DesignPoint, OptimizationProblem
from repro.power.energy import total_energy
from repro.robust.sampler import VthSampler, measure_dies, validate_variation
from repro.runtime.supervisor import (ParallelPlan, resolve_parallel,
                                      run_sharded)
from repro.runtime.tasks import Task, chunk_ranges
from repro.timing.sta import analyze_timing


@dataclass(frozen=True)
class VariationStatistics:
    """Gaussian Vth variation parameters (volts)."""

    #: Die-to-die (shared) standard deviation.
    sigma_die: float = 0.015
    #: Within-die (per gate, independent) standard deviation.
    sigma_within: float = 0.010

    def __post_init__(self) -> None:
        validate_variation(self.sigma_die, self.sigma_within)


@dataclass(frozen=True)
class MonteCarloOutcome:
    """Aggregate of one Monte-Carlo variation run."""

    samples: int
    #: Fraction of surviving samples meeting the cycle time.
    timing_yield: float
    #: Per-sample total energies (J), sorted ascending.
    energies: Tuple[float, ...]
    #: Per-sample critical delays (s), sorted ascending.
    delays: Tuple[float, ...]
    nominal_energy: float
    nominal_delay: float
    #: Samples quarantined after an STA/energy fault (excluded from the
    #: statistics; ``len(energies) == samples - samples_failed``).
    samples_failed: int = 0

    def energy_percentile(self, fraction: float) -> float:
        return _percentile(self.energies, fraction)

    def delay_percentile(self, fraction: float) -> float:
        return _percentile(self.delays, fraction)

    @property
    def mean_energy(self) -> float:
        return sum(self.energies) / len(self.energies)


def _percentile(sorted_values: Tuple[float, ...], fraction: float) -> float:
    if not sorted_values:
        raise OptimizationError("no samples")
    if not 0.0 <= fraction <= 1.0:
        raise OptimizationError(f"fraction must be in [0, 1], got {fraction}")
    index = min(int(fraction * len(sorted_values)),
                len(sorted_values) - 1)
    return sorted_values[index]


def _mc_init(problem: OptimizationProblem, design: DesignPoint,
             statistics: VariationStatistics, seed: int, engine: str):
    """Worker init of the Monte-Carlo shards: the shared evaluation state."""
    from repro.engine import make_engine

    sampler = VthSampler(problem.ctx.gates, statistics.sigma_die,
                         statistics.sigma_within, seed)
    return problem, design, sampler, make_engine(problem, engine)


def _mc_shard(state, start: int, stop: int
              ) -> Tuple[Tuple[float, ...], Tuple[float, ...], int, int]:
    """Measure dies ``[start, stop)`` — one pure Monte-Carlo shard.

    Returns (energies, delays, met, failed) with the per-die values in
    die order (the outcome sorts globally, so concatenation order never
    matters — but determinism per die does). The shard draws its own
    dies and keeps nothing; quarantined dies only count in ``failed``,
    and the caller enforces the failure-fraction threshold.
    """
    problem, design, sampler, engine = state
    vth_rows = sampler.thresholds(design.vth, sampler.offsets(start, stop))
    limit = problem.cycle_time * (1.0 + 1e-9)
    clean = [sample for sample in measure_dies(engine, design.vdd, vth_rows,
                                               design.widths)
             if sample is not None]
    return (tuple(energy for energy, _ in clean),
            tuple(delay for _, delay in clean),
            sum(1 for _, delay in clean if delay <= limit),
            stop - start - len(clean))


def monte_carlo_variation(problem: OptimizationProblem, design: DesignPoint,
                          statistics: VariationStatistics | None = None,
                          samples: int = 200, seed: int = 0,
                          parallel: Optional[ParallelPlan] = None,
                          max_failure_fraction: float = 0.5,
                          engine: Optional[str] = None
                          ) -> MonteCarloOutcome:
    """Sample Vth variation around ``design`` and measure timing/energy.

    The design's nominal Vth (scalar or per-gate) is perturbed per sample;
    perturbed thresholds are clamped so they stay positive. Sampling is
    counter-seeded per die (see :mod:`repro.robust.sampler`), so the
    outcome depends only on ``(seed, samples)`` — a parallel plan
    (explicit ``parallel=`` or ambient
    :func:`repro.runtime.use_parallel`) shards the samples into batches
    without changing a single drawn value.

    A sample whose evaluation raises a model fault (or is non-finite) is
    quarantined and reported via ``samples_failed`` / the
    ``mc.samples_failed`` counter; beyond ``max_failure_fraction`` the
    run raises a labeled :class:`~repro.errors.OptimizationError`
    instead of reporting statistics too corrupted to trust.

    Samples are measured through the named :mod:`repro.engine` seam;
    ``None`` means ``"scalar"`` (the reference models, never ``"auto"``,
    so the outcome does not follow ``REPRO_ENGINE``). With a batching
    engine such as ``"batch"`` a whole shard of dies is one vectorized
    kernel invocation; the draws are identical either way.
    """
    statistics = statistics or VariationStatistics()
    validate_variation(statistics.sigma_die, statistics.sigma_within,
                       samples=(samples, 1), seed=(seed, None))
    if not 0.0 < max_failure_fraction <= 1.0:
        raise OptimizationError(
            f"max_failure_fraction must lie in (0, 1], "
            f"got {max_failure_fraction}")

    nominal_timing = analyze_timing(problem.ctx, design.vdd, design.vth,
                                    design.widths)
    nominal_energy = total_energy(problem.ctx, design.vdd, design.vth,
                                  design.widths, problem.frequency).total

    engine = "scalar" if engine is None else engine
    plan = resolve_parallel(parallel)
    if plan is not None and plan.active and samples > 1:
        tasks = [Task(key=f"mc[{start}:{stop}]", index=start, fn=_mc_shard,
                      args=(start, stop))
                 for start, stop in chunk_ranges(samples, plan.jobs * 4)]
        run = run_sharded(tasks, init_fn=_mc_init,
                          init_args=(problem, design, statistics, seed,
                                     engine),
                          plan=plan,
                          what=f"{problem.network.name} Monte-Carlo")
        run.raise_if_quarantined(f"{problem.network.name} Monte-Carlo")
        batches = run.values()
    else:
        state = _mc_init(problem, design, statistics, seed, engine)
        batches = [_mc_shard(state, 0, samples)]

    energies: List[float] = []
    delays: List[float] = []
    met = 0
    failed = 0
    for batch_energies, batch_delays, batch_met, batch_failed in batches:
        energies.extend(batch_energies)
        delays.extend(batch_delays)
        met += batch_met
        failed += batch_failed

    if failed:
        # Counted at the merge, in the main process — worker-side
        # metrics registries do not cross the pool boundary.
        current_metrics().incr(MC_SAMPLES_FAILED, failed)
    if failed / samples > max_failure_fraction or not energies:
        raise OptimizationError(
            f"{problem.network.name} Monte-Carlo: {failed}/{samples} "
            f"samples failed (threshold "
            f"{max_failure_fraction:.0%}) — statistics would be "
            f"dominated by the fault, not the variation")

    return MonteCarloOutcome(samples=samples,
                             timing_yield=met / len(energies),
                             energies=tuple(sorted(energies)),
                             delays=tuple(sorted(delays)),
                             nominal_energy=nominal_energy,
                             nominal_delay=nominal_timing.critical_delay,
                             samples_failed=failed)


def worst_case_pessimism(problem: OptimizationProblem,
                         nominal: DesignPoint,
                         robust: DesignPoint,
                         statistics: VariationStatistics | None = None,
                         samples: int = 200, seed: int = 0
                         ) -> Tuple[MonteCarloOutcome, MonteCarloOutcome]:
    """Monte-Carlo both the nominal and the worst-case-robust designs.

    Returns ``(nominal_outcome, robust_outcome)``. Expected shape: the
    robust design yields ~100 % while the nominal design loses yield —
    and the statistical energy of the robust design sits *below* its
    worst-case guarantee (quantifying Figure 2a's pessimism).
    """
    nominal_outcome = monte_carlo_variation(problem, nominal,
                                            statistics=statistics,
                                            samples=samples, seed=seed)
    robust_outcome = monte_carlo_variation(problem, robust,
                                           statistics=statistics,
                                           samples=samples, seed=seed)
    return nominal_outcome, robust_outcome
