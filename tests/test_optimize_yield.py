"""Tests for the yield-targeted robust optimizer."""

import pytest

from repro.analysis.montecarlo import VariationStatistics
from repro.errors import InfeasibleError, OptimizationError
from repro.optimize.heuristic import HeuristicSettings
from repro.optimize.yield_opt import YieldTarget, optimize_for_yield

FAST = HeuristicSettings(grid_vdd=9, grid_vth=7, refine_iters=6,
                         refine_rounds=1)
FAST_TARGET_KWARGS = dict(samples=60, iterations=3, seed=5)


def test_target_validation():
    with pytest.raises(OptimizationError):
        YieldTarget(timing_yield=0.0)
    with pytest.raises(OptimizationError):
        YieldTarget(max_tolerance=1.0)
    with pytest.raises(OptimizationError):
        YieldTarget(iterations=0)


def test_zero_variation_accepts_nominal(s27_problem):
    target = YieldTarget(timing_yield=0.99,
                         statistics=VariationStatistics(sigma_die=0.0,
                                                        sigma_within=0.0),
                         **FAST_TARGET_KWARGS)
    result = optimize_for_yield(s27_problem, target=target, settings=FAST)
    assert result.tolerance == 0.0
    assert result.timing_yield == 1.0


def test_variation_forces_positive_tolerance(s27_problem):
    statistics = VariationStatistics(sigma_die=0.03, sigma_within=0.02)
    target = YieldTarget(timing_yield=0.95, statistics=statistics,
                         **FAST_TARGET_KWARGS)
    result = optimize_for_yield(s27_problem, target=target, settings=FAST)
    assert result.tolerance > 0.0
    assert result.timing_yield >= 0.95
    assert result.result.feasible


def test_compliant_design_costs_more_than_nominal(s27_problem):
    from repro.optimize.heuristic import optimize_joint

    statistics = VariationStatistics(sigma_die=0.03, sigma_within=0.02)
    target = YieldTarget(timing_yield=0.95, statistics=statistics,
                         **FAST_TARGET_KWARGS)
    robust = optimize_for_yield(s27_problem, target=target, settings=FAST)
    nominal = optimize_joint(s27_problem, settings=FAST)
    assert robust.result.total_energy >= nominal.total_energy * 0.999


def test_unreachable_target_raises(s27_problem):
    statistics = VariationStatistics(sigma_die=0.25, sigma_within=0.20)
    target = YieldTarget(timing_yield=0.999, statistics=statistics,
                         max_tolerance=0.05, **FAST_TARGET_KWARGS)
    with pytest.raises(InfeasibleError, match="unreachable"):
        optimize_for_yield(s27_problem, target=target, settings=FAST)


# --- fresh-seed verification -------------------------------------------------


def test_verification_uses_a_fresh_seed_and_is_recorded(s27_problem):
    statistics = VariationStatistics(sigma_die=0.03, sigma_within=0.02)
    target = YieldTarget(timing_yield=0.95, statistics=statistics,
                         **FAST_TARGET_KWARGS)
    result = optimize_for_yield(s27_problem, target=target, settings=FAST)
    assert result.verify_seed == target.seed + 1
    assert result.verification is not None
    assert result.verification.samples == target.samples
    assert result.verified_yield == result.verification.timing_yield
    recorded = result.result.details["yield_verification"]
    assert recorded["seed"] == result.verify_seed
    assert recorded["timing_yield"] == result.verified_yield
    assert recorded["samples_failed"] == 0


def test_explicit_verify_seed_is_honoured(s27_problem):
    statistics = VariationStatistics(sigma_die=0.0, sigma_within=0.0)
    target = YieldTarget(timing_yield=0.99, statistics=statistics,
                         **FAST_TARGET_KWARGS)
    result = optimize_for_yield(s27_problem, target=target, settings=FAST,
                                verify_seed=123)
    assert result.verify_seed == 123
    assert result.result.details["yield_verification"]["seed"] == 123


def test_verify_seed_equal_to_selection_seed_is_rejected(s27_problem):
    target = YieldTarget(**FAST_TARGET_KWARGS)
    with pytest.raises(OptimizationError, match="verify_seed"):
        optimize_for_yield(s27_problem, target=target, settings=FAST,
                           verify_seed=target.seed)


@pytest.mark.parametrize("engine", [None, "auto", "scalar", "fast",
                                    "batch", "incremental"])
def test_batched_flag_follows_the_engine_capability(s27_problem, engine):
    # "batched" reports the engine's supports_batch capability, so it is
    # true exactly when the Monte-Carlo dies went through measure_batch.
    # The search itself is pinned to the unbatched array engine.
    import dataclasses

    from repro.obs.instrument import BATCH_CALLS
    from repro.obs.metrics import MetricsRegistry, use_metrics

    target = YieldTarget(timing_yield=0.99,
                         statistics=VariationStatistics(sigma_die=0.0,
                                                        sigma_within=0.0),
                         engine=engine, **FAST_TARGET_KWARGS)
    registry = MetricsRegistry()
    with use_metrics(registry):
        result = optimize_for_yield(
            s27_problem, target=target,
            settings=dataclasses.replace(FAST, engine="fast"))
    details = result.result.details["yield_verification"]
    assert details["batched"] == (registry.counter(BATCH_CALLS) > 0)
    if engine != "auto":
        assert details["batched"] == (engine == "batch")
