"""Boundary validation of the statistical-objective configuration.

Every construction site is a boundary: the dataclass itself, the CLI
argument handler, and the serve admission path all reject malformed
statistical inputs with a labeled :class:`OptimizationError` before any
search (or worker) runs.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.montecarlo import VariationStatistics
from repro.errors import OptimizationError
from repro.robust import RobustConfig
from repro.serve.jobs import JobRequest, robust_config_for, settings_for


class TestRobustConfigValidation:
    def test_defaults_are_valid(self):
        config = RobustConfig()
        assert config.measure == "p95"
        assert 0.0 < config.yield_target < 1.0

    def test_unknown_measure_rejected(self):
        with pytest.raises(OptimizationError, match="risk measure"):
            RobustConfig(measure="median")

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.2, 1.5])
    def test_yield_target_must_be_open_interval(self, target):
        with pytest.raises(OptimizationError, match="yield_target"):
            RobustConfig(yield_target=target)

    def test_negative_sigmas_rejected(self):
        with pytest.raises(OptimizationError, match="sigma"):
            RobustConfig(sigma_within=-0.01)
        with pytest.raises(OptimizationError, match="sigma"):
            RobustConfig(sigma_die=-0.01)

    def test_sample_budgets_need_two_samples(self):
        with pytest.raises(OptimizationError, match="samples"):
            RobustConfig(samples=1)
        with pytest.raises(OptimizationError, match="cull_samples"):
            RobustConfig(cull_samples=1)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.01])
    def test_failure_fraction_bounds(self, fraction):
        with pytest.raises(OptimizationError, match="max_failure_fraction"):
            RobustConfig(max_failure_fraction=fraction)

    def test_negative_guard_band_rejected(self):
        with pytest.raises(OptimizationError, match="yield_margin_z"):
            RobustConfig(yield_margin_z=-1.0)

    @pytest.mark.parametrize("margin", [math.nan, math.inf, True])
    def test_non_finite_or_bool_guard_band_rejected(self, margin):
        # NaN passes every ordering check; the search would run to the
        # end and blame T_c in an InfeasibleError.
        with pytest.raises(OptimizationError, match="yield_margin_z"):
            RobustConfig(yield_margin_z=margin)

    def test_resolved_is_json_native_and_complete(self):
        import json

        resolved = RobustConfig().resolved()
        assert json.loads(json.dumps(resolved)) == resolved
        assert set(resolved) == {
            "measure", "yield_target", "sigma_within", "sigma_die",
            "samples", "cull_samples", "seed", "max_failure_fraction",
            "yield_margin_z"}

    def test_resolved_clamps_cull_to_samples(self):
        resolved = RobustConfig(samples=10, cull_samples=99).resolved()
        assert resolved["cull_samples"] == 10

    def test_resolved_distinguishes_configs(self):
        base = RobustConfig()
        for change in ({"measure": "cvar"}, {"yield_target": 0.9},
                       {"sigma_within": 0.02}, {"sigma_die": 0.02},
                       {"samples": 80}, {"cull_samples": 4},
                       {"seed": 7}, {"yield_margin_z": 0.0}):
            other = dataclasses.replace(base, **change)
            assert other.resolved() != base.resolved(), change



class TestSharedVariationValidation:
    """RobustConfig and VariationStatistics share one variation check."""

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf,
                                       -1e-9, True])
    @pytest.mark.parametrize("field", ["sigma_die", "sigma_within"])
    def test_bad_sigmas_rejected_by_both(self, field, sigma):
        with pytest.raises(OptimizationError, match=field):
            RobustConfig(**{field: sigma})
        with pytest.raises(OptimizationError, match=field):
            VariationStatistics(**{field: sigma})

    @pytest.mark.parametrize("field,value", [
        ("samples", 2.5), ("samples", 40.0), ("cull_samples", 7.5),
        ("seed", 1.5), ("seed", "3"), ("seed", True), ("samples", None)])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(OptimizationError, match=f"{field} must be"):
            RobustConfig(**{field: value})

    def test_monte_carlo_checks_its_counts_the_same_way(self, s27_problem):
        from repro.analysis.montecarlo import monte_carlo_variation
        from repro.optimize.problem import DesignPoint

        design = DesignPoint(vdd=2.0, vth=0.3, widths={
            name: 4.0 for name in s27_problem.ctx.gates})
        for kwargs, label in (({"seed": 1.5}, "seed"),
                              ({"samples": 2.5}, "samples"),
                              ({"samples": 0}, "samples")):
            with pytest.raises(OptimizationError, match=label):
                monte_carlo_variation(s27_problem, design, **kwargs)

    @settings(max_examples=60, deadline=None)
    @given(sigma_die=st.floats(min_value=0.0, max_value=1.0),
           sigma_within=st.floats(min_value=0.0, max_value=1.0),
           samples=st.integers(min_value=2, max_value=4096),
           cull_samples=st.integers(min_value=2, max_value=4096),
           seed=st.integers(min_value=-2 ** 40, max_value=2 ** 40))
    def test_valid_configs_resolve_unchanged(self, sigma_die, sigma_within,
                                             samples, cull_samples, seed):
        config = RobustConfig(sigma_die=sigma_die, sigma_within=sigma_within,
                              samples=samples, cull_samples=cull_samples,
                              seed=seed)
        assert config.resolved() == {
            "measure": "p95", "yield_target": 0.95,
            "sigma_within": sigma_within, "sigma_die": sigma_die,
            "samples": samples, "cull_samples": min(cull_samples, samples),
            "seed": seed, "max_failure_fraction": 0.5,
            "yield_margin_z": 1.0}
        VariationStatistics(sigma_die=sigma_die, sigma_within=sigma_within)

    @settings(max_examples=60, deadline=None)
    @given(sigma=st.one_of(st.floats(max_value=-1e-300),
                           st.sampled_from([math.nan, math.inf])),
           seed=st.floats(allow_nan=False, allow_infinity=False).filter(
               lambda value: value != int(value)))
    def test_invalid_inputs_raise_labeled_errors(self, sigma, seed):
        with pytest.raises(OptimizationError, match="sigma_die"):
            RobustConfig(sigma_die=sigma)
        with pytest.raises(OptimizationError, match="sigma_within"):
            VariationStatistics(sigma_within=sigma)
        with pytest.raises(OptimizationError, match="seed"):
            RobustConfig(seed=seed)

class TestServeAdmission:
    """Statistical inputs are validated when the request is *built* —
    a malformed robust job never reaches the queue."""

    def test_nominal_request_has_no_robust_config(self):
        request = JobRequest(circuit="s27")
        assert request.robust is None
        assert robust_config_for(request) is None
        assert settings_for(request).robust is None

    def test_robust_request_resolves_its_config(self):
        request = JobRequest(circuit="s27", robust="cvar",
                             yield_target=0.9, robust_samples=16,
                             robust_seed=3)
        config = robust_config_for(request)
        assert config.measure == "cvar"
        assert config.yield_target == 0.9
        assert config.samples == 16
        assert config.seed == 3
        assert settings_for(request).robust == config

    def test_bad_measure_rejected_at_admission(self):
        with pytest.raises(OptimizationError, match="risk measure"):
            JobRequest(circuit="s27", robust="worst")

    def test_bad_yield_target_rejected_at_admission(self):
        with pytest.raises(OptimizationError, match="yield_target"):
            JobRequest(circuit="s27", robust="p95", yield_target=1.2)

    def test_negative_sigma_rejected_at_admission(self):
        with pytest.raises(OptimizationError, match="sigma"):
            JobRequest(circuit="s27", robust="p95", sigma_die=-0.1)

    def test_robust_multi_vth_rejected(self):
        with pytest.raises(OptimizationError, match="n_vth"):
            JobRequest(circuit="s27", robust="p95", n_vth=2)

    def test_robust_request_round_trips_through_dict(self):
        request = JobRequest(circuit="s27", robust="p95",
                             yield_target=0.9, sigma_within=0.02,
                             robust_samples=16, robust_margin_z=0.0)
        clone = JobRequest.from_dict(request.to_dict())
        assert clone == request
        assert robust_config_for(clone) == robust_config_for(request)

    def test_nominal_dict_without_robust_fields_still_loads(self):
        # Forward compatibility: pre-robust payloads (no robust keys)
        # must still be admissible.
        payload = JobRequest(circuit="s27").to_dict()
        for key in ("robust", "yield_target", "sigma_within", "sigma_die",
                    "robust_samples", "robust_cull_samples", "robust_seed",
                    "robust_margin_z"):
            payload.pop(key, None)
        request = JobRequest.from_dict(payload)
        assert request.robust is None


class TestCliBoundary:
    def test_cli_rejects_bad_statistical_inputs(self, capsys):
        from repro.cli import main

        code = main(["robust", "s27", "--yield-target", "1.5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "yield_target" in err

    def test_cli_rejects_negative_sigma(self, capsys):
        from repro.cli import main

        code = main(["optimize", "s27", "--robust", "p95",
                     "--sigma-die", "-0.1"])
        assert code == 1
        assert "sigma" in capsys.readouterr().err
