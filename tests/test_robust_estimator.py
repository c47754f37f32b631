"""The counter-seeded Monte-Carlo estimator: determinism, CRN,
quarantine, culling, and deadline behaviour.

The estimator is the statistical core of the robust objective; the
properties here are the ones the search-level invariance tests lean on
(a deterministic, design-independent sample stream) plus the
fault-tolerance contract (quarantine + labeling, never a crash).
"""

import dataclasses
import math
import random

import pytest

from repro.engine import make_engine, use_engine
from repro.errors import DeadlineExceeded, RunCancelled
from repro.optimize.heuristic import optimize_joint
from repro.robust import RobustConfig
from repro.robust import sampler as sampler_module
from repro.robust.estimator import (RobustEstimator, estimate_design,
                                    wilson_interval)
from repro.robust.sampler import MIN_VTH
from repro.runtime.controller import RunController
from repro.runtime.faults import FaultInjector, FaultSpec

CONFIG = RobustConfig(samples=20, cull_samples=6, seed=1)


@pytest.fixture(scope="module")
def s27_design(s27_problem, fast_settings):
    return optimize_joint(s27_problem, settings=fast_settings).design


@pytest.fixture(scope="module")
def estimator(s27_problem):
    return RobustEstimator(s27_problem, CONFIG,
                           make_engine(s27_problem, "fast"))


class TestWilsonInterval:
    def test_contains_the_proportion(self):
        for successes, trials in [(0, 8), (4, 8), (8, 8), (37, 40)]:
            low, high = wilson_interval(successes, trials)
            assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_nonzero_width_at_the_extremes(self):
        # The property the cull stage needs: 8/8 met does not read as
        # a certain 100% yield.
        low, high = wilson_interval(8, 8)
        assert low < 1.0
        low, high = wilson_interval(0, 8)
        assert high > 0.0

    def test_zero_z_degenerates_to_the_proportion(self):
        low, high = wilson_interval(3, 4, z=0.0)
        assert low == high == pytest.approx(0.75)

    def test_no_trials_is_total_ignorance(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_narrows_with_more_trials(self):
        _, high_small = wilson_interval(19, 20)
        _, high_large = wilson_interval(190, 200)
        assert high_large - 0.95 < high_small - 0.95


def _die(sampler, vth, index):
    """Die ``index``'s perturbed thresholds at nominal ``vth``."""
    return sampler.thresholds(vth, sampler.offsets(index, index + 1))[0]


class TestSampleStream:
    def test_vth_map_is_deterministic(self, estimator):
        sampler = estimator.sampler
        assert (_die(sampler, 0.3, 4) == _die(sampler, 0.3, 4)).all()
        assert (_die(sampler, 0.3, 4) != _die(sampler, 0.3, 5)).any()

    def test_offsets_are_common_across_designs(self, estimator):
        # Common random numbers: the drawn offsets depend only on
        # (seed, index), never on the design being scored.
        low = _die(estimator.sampler, 0.3, 7)
        high = _die(estimator.sampler, 0.5, 7)
        for gate in range(len(estimator.gates)):
            assert low[gate] - 0.3 == pytest.approx(high[gate] - 0.5,
                                                    abs=1e-15)

    def test_thresholds_are_clamped(self, estimator):
        clamped = _die(estimator.sampler, -5.0, 0)
        assert all(value == MIN_VTH for value in clamped)

    def test_each_die_is_drawn_once_per_estimator(self, s27_problem,
                                                  s27_design, monkeypatch):
        # The offsets do not depend on the corner, so an estimator
        # scoring two corners builds each die's RNG a single time.
        seeds = []

        class CountingRandom(random.Random):
            def __init__(self, seed):
                seeds.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(sampler_module, "Random", CountingRandom)
        no_cull = dataclasses.replace(CONFIG, cull_samples=CONFIG.samples)
        estimator = RobustEstimator(s27_problem, no_cull,
                                    make_engine(s27_problem, "fast"))
        widths = s27_design.widths
        first = estimator.estimate(s27_design.vdd, s27_design.vth, widths)
        second = estimator.estimate(s27_design.vdd, s27_design.vth + 0.01,
                                    widths)
        assert first.samples_used == second.samples_used == no_cull.samples
        assert seeds == [(no_cull.seed << 32) ^ index
                         for index in range(no_cull.samples)]

    def test_estimate_is_a_pure_function_of_design_and_config(
            self, s27_problem, s27_design):
        first = estimate_design(s27_problem, s27_design, CONFIG,
                                engine="fast")
        second = estimate_design(s27_problem, s27_design, CONFIG,
                                 engine="fast")
        assert first.to_dict() == second.to_dict()

    def test_seed_changes_the_samples(self, s27_problem, s27_design):
        base = estimate_design(s27_problem, s27_design, CONFIG,
                               engine="fast")
        reseeded = estimate_design(s27_problem, s27_design,
                                   dataclasses.replace(CONFIG, seed=99),
                                   engine="fast")
        assert base.mean != reseeded.mean


class TestEstimates:
    def test_good_design_is_feasible_with_ordered_measures(
            self, s27_problem, s27_design):
        estimate = estimate_design(s27_problem, s27_design, CONFIG,
                                   engine="fast")
        assert estimate.samples_used == CONFIG.samples
        assert estimate.samples_quarantined == 0
        assert not estimate.degraded
        assert estimate.mean <= estimate.p95 <= estimate.cvar
        assert estimate.yield_low <= estimate.timing_yield \
            <= estimate.yield_high
        if estimate.feasible:
            assert estimate.objective == estimate.p95

    def test_hopeless_corner_is_culled_early(self, s27_problem, s27_design):
        # Minimum supply + maximum threshold cannot meet 300 MHz; the
        # two-stage schedule must notice within the cull budget.
        tech = s27_problem.tech
        slow = dataclasses.replace(s27_design, vdd=tech.vdd_min,
                                   vth=tech.vth_max)
        estimate = estimate_design(s27_problem, slow, CONFIG,
                                   engine="fast")
        assert estimate.culled
        assert not estimate.feasible
        assert estimate.objective == math.inf
        assert estimate.samples_used <= CONFIG.cull_samples

    def test_disabling_the_cull_spends_the_full_budget(
            self, s27_problem, s27_design):
        tech = s27_problem.tech
        slow = dataclasses.replace(s27_design, vdd=tech.vdd_min,
                                   vth=tech.vth_max)
        no_cull = dataclasses.replace(CONFIG,
                                      cull_samples=CONFIG.samples)
        estimate = estimate_design(s27_problem, slow, no_cull,
                                   engine="fast")
        assert not estimate.culled
        assert estimate.samples_used == no_cull.samples
        assert estimate.timing_yield < no_cull.yield_target

    def test_guard_band_is_stricter_than_raw_yield(self, s27_problem,
                                                   s27_design):
        # At n=20 with z=1 the Wilson lower bound of 19/20 is ~0.88 —
        # a corner at exactly the raw target must NOT be feasible.
        guarded = estimate_design(s27_problem, s27_design, CONFIG,
                                  engine="fast")
        unguarded = estimate_design(
            s27_problem, s27_design,
            dataclasses.replace(CONFIG, yield_margin_z=0.0),
            engine="fast")
        assert guarded.timing_yield == unguarded.timing_yield
        if guarded.feasible:
            assert unguarded.feasible

    def test_to_dict_is_json_round_trippable(self, s27_problem,
                                             s27_design):
        import json

        estimate = estimate_design(s27_problem, s27_design, CONFIG,
                                   engine="fast")
        payload = estimate.to_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestFaultQuarantine:
    """Faults are planted at the scalar model seams, so these tests pin
    the scalar engine (fault call numbers are deterministic there)."""

    def test_transient_fault_quarantines_and_labels(self, s27_problem,
                                                    s27_design):
        config = dataclasses.replace(CONFIG, samples=8, cull_samples=8)
        plan = [FaultSpec(seam="energy", kind="nan", at_call=2, count=3)]
        with use_engine("scalar"), FaultInjector(plan) as injector:
            estimate = estimate_design(s27_problem, s27_design, config,
                                       engine="scalar")
        assert injector.triggered
        assert estimate.samples_quarantined == 3
        assert estimate.samples_used == 5
        assert estimate.degraded
        assert estimate.degradation["samples_quarantined"] == 3

    def test_persistent_fault_is_unusable_but_never_raises(
            self, s27_problem, s27_design):
        config = dataclasses.replace(CONFIG, samples=8, cull_samples=8,
                                     max_failure_fraction=1.0)
        plan = [FaultSpec(seam="energy", kind="nan", count=10 ** 9)]
        with use_engine("scalar"), FaultInjector(plan):
            estimate = estimate_design(s27_problem, s27_design, config,
                                       engine="scalar")
        assert estimate.samples_quarantined == config.samples
        assert estimate.samples_used == 0
        assert not estimate.feasible
        assert estimate.objective == math.inf
        assert estimate.degradation["too_few_samples"] == 0

    def test_failure_fraction_threshold_declares_unusable(
            self, s27_problem, s27_design):
        config = dataclasses.replace(CONFIG, samples=10, cull_samples=10,
                                     max_failure_fraction=0.2)
        plan = [FaultSpec(seam="energy", kind="nan", at_call=1, count=4)]
        with use_engine("scalar"), FaultInjector(plan):
            estimate = estimate_design(s27_problem, s27_design, config,
                                       engine="scalar")
        assert estimate.samples_quarantined == 4
        assert not estimate.feasible
        assert estimate.degradation["failure_fraction"] \
            == pytest.approx(0.4)


class _TickingClock:
    """A clock that advances one second per read: sample ``k``'s
    deadline check sees ``t ~= k``."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestDeadlineAndCancellation:
    def test_partial_on_deadline_returns_labeled_partial(
            self, s27_problem, s27_design):
        controller = RunController(deadline_s=5.0, clock=_TickingClock())
        estimate = estimate_design(s27_problem, s27_design, CONFIG,
                                   engine="fast", controller=controller,
                                   partial_on_deadline=True)
        assert estimate.degraded
        assert estimate.degradation["deadline"] is True
        assert 2 <= estimate.samples_used < CONFIG.samples
        assert estimate.degradation["samples_missing"] > 0

    def test_hot_path_propagates_the_deadline(self, s27_problem,
                                              s27_design):
        controller = RunController(deadline_s=5.0, clock=_TickingClock())
        with pytest.raises(DeadlineExceeded):
            estimate_design(s27_problem, s27_design, CONFIG,
                            engine="fast", controller=controller,
                            partial_on_deadline=False)

    def test_cancellation_always_propagates(self, s27_problem,
                                            s27_design):
        controller = RunController()
        controller.cancel()
        with pytest.raises(RunCancelled):
            estimate_design(s27_problem, s27_design, CONFIG,
                            engine="fast", controller=controller,
                            partial_on_deadline=True)
