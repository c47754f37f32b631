"""The evaluation-engine seam: selection, the Evaluator, and the handles.

Parity between the two implementations on real and randomized circuits
lives in ``tests/test_engine_parity.py``; this module covers the layer
itself — name resolution precedence, validation, the shared objective
factory's counters, and the sizing/evaluation value objects.
"""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest

from repro.activity.profiles import uniform_profile
from repro.engine import (
    ENGINE_CHOICES,
    ENGINE_ENV_VAR,
    ENGINE_NAMES,
    Evaluator,
    make_engine,
    resolve_engine_name,
    use_engine,
)
from repro.engine.array import ArrayEngine, array_context_for
from repro.engine.base import EngineEvaluation, _INFEASIBLE
from repro.engine.scalar import ScalarEngine
from repro.errors import OptimizationError
from repro.obs.instrument import (
    FEASIBLE_POINTS,
    OBJECTIVE_EVALUATIONS,
    engine_evaluations_metric,
)
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.optimize.problem import OptimizationProblem
from repro.units import MHZ


# --- name resolution ---------------------------------------------------------


def test_choice_vocabulary():
    assert ENGINE_NAMES == ("scalar", "fast", "incremental", "batch")
    assert ENGINE_CHOICES == ("auto", "scalar", "fast", "incremental",
                              "batch")


def test_default_resolution_is_scalar(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    assert resolve_engine_name() == "scalar"
    assert resolve_engine_name("auto") == "scalar"


def test_explicit_name_passes_through(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
    assert resolve_engine_name("scalar") == "scalar"
    assert resolve_engine_name("fast") == "fast"


def test_env_var_steers_auto(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
    assert resolve_engine_name("auto") == "fast"
    # Whitespace and case are forgiven; "auto" in the env defers again.
    monkeypatch.setenv(ENGINE_ENV_VAR, "  Fast ")
    assert resolve_engine_name("auto") == "fast"
    monkeypatch.setenv(ENGINE_ENV_VAR, "auto")
    assert resolve_engine_name("auto") == "scalar"


def test_use_engine_outranks_env(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
    with use_engine("scalar"):
        assert resolve_engine_name("auto") == "scalar"
        # ... but an explicit setting outranks the override.
        assert resolve_engine_name("fast") == "fast"
    assert resolve_engine_name("auto") == "fast"


def test_use_engine_none_is_a_no_op(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    with use_engine(None):
        assert resolve_engine_name("auto") == "scalar"


def test_use_engine_nests(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    with use_engine("fast"):
        with use_engine("scalar"):
            assert resolve_engine_name("auto") == "scalar"
        assert resolve_engine_name("auto") == "fast"


@pytest.mark.parametrize("bad", ["warp", "FAST", "", "numpy"])
def test_invalid_settings_name_rejected(bad):
    with pytest.raises(OptimizationError, match="unknown engine"):
        resolve_engine_name(bad)


def test_invalid_env_name_rejected(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "warp")
    with pytest.raises(OptimizationError, match=ENGINE_ENV_VAR):
        resolve_engine_name("auto")


def test_invalid_override_name_rejected():
    with pytest.raises(OptimizationError, match="use_engine"):
        with use_engine("warp"):
            pass  # pragma: no cover - never entered


# --- construction ------------------------------------------------------------


def test_make_engine_dispatch(s27_problem, monkeypatch):
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    assert isinstance(make_engine(s27_problem, "scalar"), ScalarEngine)
    assert isinstance(make_engine(s27_problem, "fast"), ArrayEngine)
    assert isinstance(make_engine(s27_problem, "auto"), ScalarEngine)
    with use_engine("fast"):
        assert isinstance(make_engine(s27_problem, "auto"), ArrayEngine)


def test_array_context_is_cached_per_context(s27_problem):
    first = array_context_for(s27_problem.ctx)
    second = array_context_for(s27_problem.ctx)
    assert first is second
    assert make_engine(s27_problem, "fast").arrays is first


def test_array_context_dies_with_its_problem(tech, small_network):
    """Dropped problems free their ArrayContext: repeated fresh builds keep
    no more of them alive than there are live problems."""
    profile = uniform_profile(small_network, probability=0.5, density=0.1)
    arrays = []
    for _ in range(3):
        problem = OptimizationProblem.build(tech, small_network, profile,
                                            frequency=300 * MHZ)
        arrays.append(weakref.ref(make_engine(problem, "fast").arrays))
    gc.collect()
    assert [ref() is None for ref in arrays] == [True, True, False]
    assert arrays[-1]() is array_context_for(problem.ctx)
    del problem
    gc.collect()
    assert arrays[-1]() is None


# --- the value objects -------------------------------------------------------


def test_infeasible_evaluation_has_no_widths():
    assert _INFEASIBLE.energy == math.inf
    assert not _INFEASIBLE.feasible
    with pytest.raises(OptimizationError, match="infeasible"):
        _INFEASIBLE.widths_map()
    assert isinstance(_INFEASIBLE, EngineEvaluation)


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_sizing_handle_roundtrips(s27_problem, engine_name):
    engine = make_engine(s27_problem, engine_name)
    budgets = s27_problem.budgets()
    sizing = engine.size_widths(budgets, 2.5, 0.3)
    assert sizing.feasible
    widths = sizing.widths_map()
    assert set(widths) == set(s27_problem.ctx.gates)
    # The native handle feeds the same engine's measurement directly and
    # agrees with the materialized map.
    via_handle = engine.measure(2.5, 0.3, sizing.widths)
    via_map = engine.measure(2.5, 0.3, widths)
    assert via_handle.energy == pytest.approx(via_map.energy, rel=1e-12)
    assert via_handle.critical_delay == pytest.approx(
        via_map.critical_delay, rel=1e-12)


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_widths_vector_is_canonical_order(s27_problem, engine_name):
    engine = make_engine(s27_problem, engine_name)
    gates = s27_problem.ctx.gates
    source = {name: 1.0 + i for i, name in enumerate(gates)}
    vector = engine.widths_vector(source)
    assert vector.shape == (len(gates),)
    assert list(vector) == [source[name] for name in gates]
    uniform = engine.widths_vector(3.0)
    assert np.all(uniform == 3.0)


def test_evaluate_splits_delay_and_energy_vth(s27_problem):
    engine = make_engine(s27_problem, "scalar")
    budgets = s27_problem.budgets()
    plain = engine.evaluate(budgets, 2.5, 0.3)
    # Sizing at the same Vth but billing leakage at a higher one must
    # reduce static energy while keeping the exact same widths.
    split = engine.evaluate(budgets, 2.5, 0.3, energy_vth=0.4)
    assert split.feasible and plain.feasible
    assert split.widths_map() == pytest.approx(plain.widths_map())
    assert split.static < plain.static


# --- the Evaluator objective -------------------------------------------------


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_evaluator_counts_and_meters(s27_problem, engine_name):
    registry = MetricsRegistry()
    evaluator = s27_problem.evaluator(engine=engine_name)
    with use_metrics(registry):
        good = evaluator(2.5, 0.3)
        bad = evaluator(0.05, 0.6)  # dead drive: infeasible everywhere
    assert good.feasible and not bad.feasible
    assert bad.energy == math.inf
    assert evaluator.evaluations == 2
    assert evaluator.feasible_points == 1
    assert registry.counter(OBJECTIVE_EVALUATIONS) == 2
    assert registry.counter(FEASIBLE_POINTS) == 1
    assert registry.counter(engine_evaluations_metric(engine_name)) == 2
    other = [name for name in ENGINE_NAMES if name != engine_name][0]
    assert registry.counter(engine_evaluations_metric(other)) == 0


def test_evaluator_applies_vth_biases(s27_problem):
    evaluator = s27_problem.evaluator(
        engine="scalar", energy_vth_bias=lambda vth: vth + 0.1)
    reference = s27_problem.evaluator(engine="scalar")
    biased = evaluator(2.5, 0.3)
    plain = reference(2.5, 0.3)
    assert biased.static < plain.static
    assert biased.widths_map() == pytest.approx(plain.widths_map())


def test_evaluator_honors_ambient_override(s27_problem, monkeypatch):
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    with use_engine("fast"):
        evaluator = s27_problem.evaluator()
    assert isinstance(evaluator, Evaluator)
    assert evaluator.engine.name == "fast"
    assert isinstance(evaluator.engine, ArrayEngine)


# --- checkpoint fingerprints record the resolved engine ----------------------


def test_fingerprint_records_resolved_engine(s27_problem, monkeypatch):
    from repro.optimize.heuristic import HeuristicSettings, _search_fingerprint

    settings = HeuristicSettings()
    ranges = ((0.5, 3.3), (0.1, 0.5))
    monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
    resolved = resolve_engine_name(settings.engine)
    fingerprint = _search_fingerprint(s27_problem, settings, *ranges,
                                      engine_name=resolved)
    assert fingerprint["engine"] == "fast"
    monkeypatch.delenv(ENGINE_ENV_VAR)
    scalar_print = _search_fingerprint(
        s27_problem, settings, *ranges,
        engine_name=resolve_engine_name(settings.engine))
    assert scalar_print["engine"] == "scalar"
    assert fingerprint != scalar_print
