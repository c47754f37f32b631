"""Batched multi-design evaluation parity: ArrayEngine batch vs loop.

The batch contract (:mod:`repro.engine.array`): evaluating B designs
with one ``measure_batch`` / ``evaluate_batch`` call is **bit-identical
per row** (``==``, not approx) to looping the single-design ArrayEngine
calls — batching is a pure execution detail, also across the slabs a
large batch is cut into. Against the ScalarEngine
the usual round-off tolerance applies (the fast kernels re-associate
sums). This module mirrors :mod:`tests.test_engine_parity`: randomized
design batches on generated circuits, per-gate voltage rows, budget-
repair corners, the B=1 degenerate batch, fallback accounting, and the
batched consumers (robust estimator, Monte-Carlo, population
annealing).
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.activity.profiles import uniform_profile
from repro.engine import array as array_module
from repro.engine import fingerprint_engine_name, make_engine
from repro.engine.array import ArrayEngine
from repro.engine.base import Evaluator
from repro.experiments.common import build_problem
from repro.fastpath.batch import BatchValue
from repro.fastpath.evaluate import fast_size_widths
from repro.netlist.generator import GeneratorSpec, generate_network
from repro.obs.instrument import BATCH_CALLS, BATCH_FALLBACK, BATCH_ROWS
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.optimize.problem import OptimizationProblem
from repro.technology.process import Technology
from repro.units import MHZ

#: Scalar-engine agreement tolerance (round-off only).
REL = 1e-9


def _generated_problem(seed: int) -> OptimizationProblem:
    spec = GeneratorSpec(name=f"batchpar{seed}", n_inputs=6, n_outputs=5,
                         n_gates=40 + 7 * (seed % 5), depth=6, seed=seed)
    network = generate_network(spec)
    profile = uniform_profile(network, probability=0.5, density=0.1)
    return OptimizationProblem.build(Technology.default(), network, profile,
                                     frequency=250 * MHZ)


def _assert_rows_identical(batched, looped):
    """Batched row == looped single-design evaluation, bitwise."""
    assert len(batched) == len(looped)
    for row, (lhs, rhs) in enumerate(zip(batched, looped)):
        assert lhs.feasible == rhs.feasible, row
        if not lhs.feasible:
            assert lhs.energy == rhs.energy == math.inf
            continue
        assert lhs.energy == rhs.energy, row
        assert lhs.static == rhs.static, row
        assert lhs.dynamic == rhs.dynamic, row
        assert lhs.sizing.repaired == rhs.sizing.repaired, row
        assert lhs.widths_map() == rhs.widths_map(), row


@pytest.mark.parametrize("seed", [3, 5, 8])
def test_evaluate_batch_identical_to_loop(seed):
    """Random corner batches: one batched call == the row loop (==)."""
    problem = _generated_problem(seed)
    budgets = problem.budgets()
    rng = random.Random(2000 + seed)
    method = rng.choice(("closed_form", "bisect"))
    batch = make_engine(problem, "fast", width_method=method)
    fast = make_engine(problem, "fast", width_method=method)
    corners = [(rng.uniform(0.45, 3.3), rng.uniform(0.1, 0.55))
               for _ in range(9)]
    batched = batch.evaluate_batch(budgets, [c[0] for c in corners],
                                   [c[1] for c in corners])
    looped = [fast.evaluate(budgets, vdd, vth) for vdd, vth in corners]
    _assert_rows_identical(batched, looped)


@pytest.mark.parametrize("seed", [4, 7])
def test_evaluate_batch_tracks_scalar_engine(seed):
    """And the batched rows stay within round-off of the ScalarEngine."""
    problem = _generated_problem(seed)
    budgets = problem.budgets()
    rng = random.Random(3000 + seed)
    batch = make_engine(problem, "fast")
    scalar = make_engine(problem, "scalar")
    corners = [(rng.uniform(0.6, 3.3), rng.uniform(0.1, 0.5))
               for _ in range(5)]
    batched = batch.evaluate_batch(budgets, [c[0] for c in corners],
                                   [c[1] for c in corners])
    for row, (vdd, vth) in enumerate(corners):
        reference = scalar.evaluate(budgets, vdd, vth)
        assert batched[row].feasible == reference.feasible, (vdd, vth)
        if not reference.feasible:
            continue
        assert batched[row].energy == pytest.approx(reference.energy,
                                                    rel=REL)
        left = reference.widths_map()
        right = batched[row].widths_map()
        for name in problem.ctx.gates:
            assert right[name] == pytest.approx(left[name], rel=REL), name


def test_measure_batch_per_gate_rows_identical():
    """Per-gate Vth maps (multi-Vth dies), shared width handle."""
    problem = build_problem("s298", 0.1)
    batch = make_engine(problem, "fast")
    fast = make_engine(problem, "fast")
    rng = random.Random(23)
    gates = problem.ctx.gates
    widths = {name: rng.uniform(1.0, 20.0) for name in gates}
    rows = [{name: rng.uniform(0.2, 0.42) for name in gates}
            for _ in range(7)]
    batched = batch.measure_batch([2.0] * len(rows), rows,
                                  [widths] * len(rows))
    for row, vth_map in enumerate(rows):
        reference = fast.measure(2.0, vth_map, widths)
        assert batched[row].static == reference.static
        assert batched[row].dynamic == reference.dynamic
        assert batched[row].critical_delay == reference.critical_delay


def test_measure_batch_distinct_width_rows_identical():
    """Distinct per-row widths (the annealing-population shape)."""
    problem = _generated_problem(11)
    batch = make_engine(problem, "fast")
    fast = make_engine(problem, "fast")
    rng = random.Random(29)
    gates = problem.ctx.gates
    rows = [({name: rng.uniform(1.0, 15.0) for name in gates},
             rng.uniform(0.9, 3.0), rng.uniform(0.15, 0.45))
            for _ in range(6)]
    batched = batch.measure_batch([vdd for _, vdd, _ in rows],
                                  [vth for _, _, vth in rows],
                                  [w for w, _, _ in rows])
    for row, (widths, vdd, vth) in enumerate(rows):
        reference = fast.measure(vdd, vth, widths)
        assert batched[row].static == reference.static
        assert batched[row].dynamic == reference.dynamic
        assert batched[row].critical_delay == reference.critical_delay


def test_repair_corner_batch_identical():
    """The s298 budget-repair corner, batched with benign corners."""
    problem = build_problem("s298", 0.1)
    budgets = problem.budgets()
    batch = make_engine(problem, "fast")
    fast = make_engine(problem, "fast")
    corners = [(0.7, 0.45), (2.5, 0.25), (0.6, 0.5), (3.3, 0.1),
               (0.85, 0.45)]
    looped = [fast.evaluate(budgets, vdd, vth) for vdd, vth in corners]
    # The corner must actually trigger repair, or this test tests nothing.
    repaired = fast.size_widths(budgets, 0.7, 0.45).repaired
    assert repaired, "corner no longer exercises budget repair"
    batched = batch.evaluate_batch(budgets, [c[0] for c in corners],
                                   [c[1] for c in corners])
    _assert_rows_identical(batched, looped)

    # The shared sweep stops early once every row has contention or
    # needs the replay: a batch where every row takes the replay
    # (repaired-feasible, certified, unrepairable), and one where only
    # some do (beside clean rows and a contention row).
    arrays = fast.arrays
    budget_vec = arrays.budgets_to_array(budgets.budgets)
    ceiling = budgets.effective_cycle_time
    contention = (0.02, 0.3)  # no gate can switch: no sweep, no replay
    every = [(0.7, 0.3), (0.5, 0.45), (0.8, 0.4), (1.0, 0.35)]
    some = [(1.0, 0.3), (0.9, 0.3), contention, (1.2, 0.35), (0.6, 0.55),
            (0.8, 0.45)]

    def needs_replay(corner):
        return corner != contention and not fast_size_widths(
            arrays, budget_vec, *corner).feasible

    assert all(needs_replay(corner) for corner in every)
    assert 0 < sum(map(needs_replay, some)) < len(some) - 1
    for rows in (every, some):
        vdd = BatchValue(np.asarray([[v] for v, _ in rows]), per_gate=False)
        vth = BatchValue(np.asarray([[v] for _, v in rows]), per_gate=False)
        for method in ("closed_form", "bisect"):
            sized = fast_size_widths(arrays, budget_vec, vdd, vth,
                                     method=method, repair_ceiling=ceiling)
            for b, corner in enumerate(rows):
                single = fast_size_widths(arrays, budget_vec, *corner,
                                          method=method,
                                          repair_ceiling=ceiling)
                assert bool(sized.feasible[b]) == single.feasible, corner
                assert sized.repaired[b] == single.repaired, corner
                assert np.array_equal(sized.widths[b], single.widths), corner


def test_single_row_batch_degenerate():
    """B=1 must behave exactly like the plain single-design call."""
    problem = build_problem("c17", 0.1)
    budgets = problem.budgets()
    batch = make_engine(problem, "fast")
    fast = make_engine(problem, "fast")
    _assert_rows_identical(batch.evaluate_batch(budgets, [2.2], [0.3]),
                           [fast.evaluate(budgets, 2.2, 0.3)])
    lhs = batch.measure_batch([2.2], [0.3],
                              [{name: 4.0 for name in problem.ctx.gates}])[0]
    rhs = fast.measure(2.2, 0.3, {name: 4.0 for name in problem.ctx.gates})
    assert (lhs.static, lhs.dynamic, lhs.critical_delay) == \
        (rhs.static, rhs.dynamic, rhs.critical_delay)


def test_canonical_vector_rows_identical():
    """Vector (canonical order) voltage rows through measure_batch."""
    problem = build_problem("c17", 0.1)
    batch = make_engine(problem, "fast")
    fast = make_engine(problem, "fast")
    gates = problem.ctx.gates
    rng = random.Random(41)
    widths = {name: rng.uniform(1.0, 8.0) for name in gates}
    rows = [np.asarray([rng.uniform(0.2, 0.4) for _ in gates])
            for _ in range(4)]
    batched = batch.measure_batch([2.2] * len(rows), rows,
                                  [widths] * len(rows))
    for row, vth_vec in enumerate(rows):
        reference = fast.measure(2.2, vth_vec, widths)
        assert batched[row].static == reference.static
        assert batched[row].dynamic == reference.dynamic
        assert batched[row].critical_delay == reference.critical_delay


def test_mixed_rows_fall_back_and_count():
    """Mixed scalar/per-gate rows take the loop; counters say so."""
    problem = build_problem("c17", 0.1)
    batch = make_engine(problem, "fast")
    fast = make_engine(problem, "fast")
    gates = problem.ctx.gates
    widths = {name: 4.0 for name in gates}
    mixed_vth = [0.3, {name: 0.3 for name in gates}]
    registry = MetricsRegistry()
    with use_metrics(registry):
        batched = batch.measure_batch([2.2, 2.2], mixed_vth, [widths] * 2)
    assert registry.counter(BATCH_FALLBACK) == 1
    assert registry.counter(BATCH_CALLS) == 0
    for row, vth in enumerate(mixed_vth):
        reference = fast.measure(2.2, vth, widths)
        assert batched[row].critical_delay == reference.critical_delay


def test_batch_counters_observe_rows():
    """A served batch books one call and a B-row histogram sample."""
    problem = build_problem("c17", 0.1)
    budgets = problem.budgets()
    batch = make_engine(problem, "fast")
    registry = MetricsRegistry()
    with use_metrics(registry):
        batch.evaluate_batch(budgets, [2.0, 2.4, 2.8], [0.3, 0.3, 0.25])
    assert registry.counter(BATCH_CALLS) == 1
    histogram = registry.histogram(BATCH_ROWS)
    assert histogram is not None and histogram.total == 3.0


def test_scalar_engine_fallback_loop_matches():
    """Engines without supports_batch serve the same API via the loop."""
    problem = build_problem("c17", 0.1)
    budgets = problem.budgets()
    scalar = make_engine(problem, "scalar")
    assert not scalar.supports_batch
    batched = scalar.evaluate_batch(budgets, [2.2, 0.7], [0.3, 0.45])
    looped = [scalar.evaluate(budgets, 2.2, 0.3),
              scalar.evaluate(budgets, 0.7, 0.45)]
    _assert_rows_identical(batched, looped)


def test_evaluator_prefetch_identity_and_counters():
    """prefetch() + consumption == plain calls, counters included."""
    problem = build_problem("s27", 0.1)
    budgets = problem.budgets()
    corners = [(2.0, 0.3), (2.4, 0.28), (0.9, 0.42), (3.1, 0.18)]

    def run(prefetched: bool):
        registry = MetricsRegistry()
        with use_metrics(registry):
            evaluator = Evaluator(problem, make_engine(problem, "fast"),
                                  budgets)
            if prefetched:
                # Repeated and already-cached corners are fetched once.
                assert evaluator.prefetch(corners + corners[:2]) \
                    == len(corners)
                assert evaluator.prefetch(corners) == 0
            results = [evaluator(vdd, vth) for vdd, vth in corners]
        return results, registry.counters(), evaluator.evaluations

    plain, plain_counters, plain_evals = run(False)
    fetched, fetched_counters, fetched_evals = run(True)
    _assert_rows_identical(fetched, plain)
    assert fetched_evals == plain_evals
    for name in ("sta_calls", "energy_evaluations", "width_sizings",
                 "objective_evaluations"):
        assert fetched_counters.get(name) == plain_counters.get(name), name


def test_fingerprint_canonicalizes_batch_to_fast():
    assert fingerprint_engine_name("batch") == "fast"
    assert fingerprint_engine_name("fast") == "fast"
    assert fingerprint_engine_name("scalar") == "scalar"


def test_batch_name_is_the_array_engine():
    """"batch" builds the array engine, which fingerprints as "fast"."""
    problem = build_problem("c17", 0.1)
    engine = make_engine(problem, "batch")
    assert type(engine) is ArrayEngine and engine.supports_batch
    assert fingerprint_engine_name(engine.name) == "fast"
    assert not make_engine(problem, "incremental").supports_batch


@pytest.mark.parametrize("method", ["closed_form", "bisect"])
def test_batch_spanning_slabs_identical_to_loop(monkeypatch, method):
    """A batch cut into several slabs: rows on both sides of every slab
    boundary (repair, infeasible and clean corners alike) == the loop,
    and the whole batch still books one call of B rows."""
    problem = build_problem("s298", 0.1)
    budgets = problem.budgets()
    engine = make_engine(problem, "fast", width_method=method)
    n = engine.arrays.n_gates
    # Slabs of 2 rows: 7 rows run as [0, 1] [2, 3] [4, 5] [6].
    monkeypatch.setattr(array_module, "BATCH_BUDGET", 2 * n + 1)
    corners = [(0.9, 0.3), (2.5, 0.25), (0.6, 0.5), (3.3, 0.1),
               (0.7, 0.45), (1.0, 0.35), (0.02, 0.3)]
    looped = [engine.evaluate(budgets, vdd, vth) for vdd, vth in corners]
    # Repaired feasible, clean, infeasible, repaired-then-infeasible and
    # contention corners all take part.
    assert looped[0].sizing.repaired and looped[5].sizing.repaired
    assert not looped[2].feasible and not looped[4].feasible
    registry = MetricsRegistry()
    with use_metrics(registry):
        batched = engine.evaluate_batch(budgets, [c[0] for c in corners],
                                        [c[1] for c in corners])
    _assert_rows_identical(batched, looped)
    assert registry.counter(BATCH_CALLS) == 1
    assert registry.histogram(BATCH_ROWS).total == len(corners)

    rng = random.Random(43)
    gates = problem.ctx.gates
    widths = [{name: rng.uniform(1.0, 20.0) for name in gates}
              for _ in range(5)]
    vth_rows = np.asarray([[rng.uniform(0.2, 0.42) for _ in gates]
                           for _ in range(5)])
    for width_rows in (widths, [widths[0]] * 5):
        batched = engine.measure_batch([2.0] * 5, vth_rows, width_rows)
        for row in range(5):
            reference = engine.measure(2.0, vth_rows[row], width_rows[row])
            assert batched[row] == reference, row


def test_robust_estimator_batched_matches_looped():
    """All dies of a stage in one call == the per-die loop, exactly."""
    from repro.robust.config import RobustConfig
    from repro.robust.estimator import RobustEstimator

    problem = build_problem("s27", 0.1)
    config = RobustConfig(samples=12, cull_samples=5, seed=7)
    widths = {name: 6.0 for name in problem.ctx.gates}
    looped_engine = make_engine(problem, "fast")
    looped_engine.supports_batch = False
    batched = RobustEstimator(problem, config,
                              make_engine(problem, "fast"))
    looped = RobustEstimator(problem, config, looped_engine)
    lhs = batched.estimate(2.0, 0.3, widths)
    rhs = looped.estimate(2.0, 0.3, widths)
    assert lhs.to_dict() == rhs.to_dict()


def test_montecarlo_engine_path_matches_fast_loop(monkeypatch):
    """Batched MC on "fast" (or "batch") == the looped "fast" MC (same
    CRN draws)."""
    from repro.analysis.montecarlo import monte_carlo_variation
    from repro.optimize.problem import DesignPoint

    problem = build_problem("s27", 0.1)
    design = DesignPoint(vdd=2.2, vth=0.3,
                         widths={name: 6.0
                                 for name in problem.ctx.gates})
    batched = monte_carlo_variation(problem, design, samples=16, seed=3,
                                    engine="fast")
    assert batched == monte_carlo_variation(problem, design, samples=16,
                                            seed=3, engine="batch")
    with monkeypatch.context() as patch:
        patch.setattr(ArrayEngine, "supports_batch", False)
        looped = monte_carlo_variation(problem, design, samples=16, seed=3,
                                       engine="fast")
    assert batched.energies == looped.energies
    assert batched.delays == looped.delays
    assert batched.timing_yield == looped.timing_yield
    # ... and the default (scalar-engine) path agrees to round-off.
    legacy = monte_carlo_variation(problem, design, samples=16, seed=3)
    assert batched.timing_yield == legacy.timing_yield
    for lhs, rhs in zip(batched.energies, legacy.energies):
        assert lhs == pytest.approx(rhs, rel=REL)


def test_population_annealing_chains_match_sequential():
    """Chain k of a population run == the sequential run with seed+k."""
    from repro.optimize.annealing import (AnnealingSettings,
                                          optimize_annealing)

    problem = build_problem("s27", 0.1)
    base = dict(passes=1, iterations_per_pass=60, engine="fast")
    population = optimize_annealing(
        problem, AnnealingSettings(seed=5, population=3, **base))
    assert population.details["population"] == 3
    digests = population.details["trajectories"]
    sequential = [optimize_annealing(
        problem, AnnealingSettings(seed=5 + k, **base)).details["trajectory"]
        for k in range(3)]
    assert digests == sequential
    winner = population.details["chain"]
    assert population.details["trajectory"] == sequential[winner]
