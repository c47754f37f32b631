"""Equivalence tests: the vectorized engine vs the scalar reference."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.incremental import IncrementalEngine
from repro.experiments.common import build_problem
from repro.fastpath import (
    ArrayContext,
    fast_size_widths,
    fast_sta,
    fast_total_energy,
)
from repro.optimize.heuristic import HeuristicSettings, optimize_joint
from repro.optimize.width_search import size_widths
from repro.power.energy import total_energy
from repro.timing.sta import analyze_timing


@pytest.fixture(scope="module")
def s298_arrays():
    problem = build_problem("s298", 0.1)
    budgets = problem.budgets()
    arrays = ArrayContext(problem.ctx)
    return problem, budgets, arrays


def test_processing_order_is_reverse_topological(s298_arrays):
    problem, _, arrays = s298_arrays
    network = problem.network
    position = arrays.index
    for name in network.logic_gates:
        for sink in network.fanouts(name):
            # Fanouts are processed earlier (lower index).
            assert position[sink] < position[name]


def test_level_slices_partition_all_gates(s298_arrays):
    _, _, arrays = s298_arrays
    covered = 0
    previous_stop = 0
    for start, stop in arrays.level_slices:
        assert start == previous_stop
        covered += stop - start
        previous_stop = stop
    assert covered == arrays.n_gates


def test_widths_roundtrip(s298_arrays):
    problem, _, arrays = s298_arrays
    widths = {name: 1.0 + index * 0.01
              for index, name in enumerate(problem.ctx.gates)}
    array = arrays.widths_to_array(widths)
    assert arrays.array_to_widths(array) == pytest.approx(widths)


@given(vdd=st.floats(min_value=0.4, max_value=3.3),
       vth=st.floats(min_value=0.1, max_value=0.5))
@settings(max_examples=30, deadline=None)
def test_sizing_matches_scalar(s298_arrays, vdd, vth):
    problem, budgets, arrays = s298_arrays
    scalar = size_widths(problem.ctx, budgets.budgets, vdd, vth)
    fast = fast_size_widths(arrays, arrays.budgets_to_array(
        dict(budgets.budgets)), vdd, vth)
    assert fast.feasible == scalar.feasible
    fast_map = fast.widths_map(arrays)
    for name in problem.ctx.gates:
        assert fast_map[name] == pytest.approx(scalar.widths[name],
                                               rel=1e-9)


@given(vdd=st.floats(min_value=0.5, max_value=3.3),
       vth=st.floats(min_value=0.1, max_value=0.45),
       width=st.floats(min_value=1.0, max_value=40.0))
@settings(max_examples=30, deadline=None)
def test_sta_and_energy_match_scalar(s298_arrays, vdd, vth, width):
    problem, _, arrays = s298_arrays
    widths = {name: width for name in problem.ctx.gates}
    w = arrays.widths_to_array(widths)

    critical, delays = fast_sta(arrays, vdd, vth, w)
    reference = analyze_timing(problem.ctx, vdd, vth, widths)
    assert critical == pytest.approx(reference.critical_delay, rel=1e-9)
    for name in problem.ctx.gates:
        assert delays[arrays.index[name]] == pytest.approx(
            reference.delay(name), rel=1e-9)

    static, dynamic = fast_total_energy(arrays, vdd, vth, w,
                                        problem.frequency)
    energy = total_energy(problem.ctx, vdd, vth, widths, problem.frequency)
    assert static == pytest.approx(energy.static, rel=1e-9)
    assert dynamic == pytest.approx(energy.dynamic, rel=1e-9)


def test_fast_engine_gives_identical_optimum(s27_problem):
    scalar = optimize_joint(s27_problem)
    fast = optimize_joint(s27_problem,
                          settings=HeuristicSettings(engine="fast"))
    assert fast.total_energy == pytest.approx(scalar.total_energy,
                                              rel=1e-12)
    assert fast.design.vdd == pytest.approx(scalar.design.vdd)
    assert fast.feasible


def test_fast_engine_on_random_widths_sta_infinite_corner(s298_arrays):
    # Dead-drive corner: fast STA reports an infinite critical delay.
    problem, _, arrays = s298_arrays
    w = np.ones(arrays.n_gates) * 4.0
    critical, _ = fast_sta(arrays, 0.02, 0.6, w)
    assert critical == float("inf")


def test_batched_warm_bisection_matches_rows(s298_arrays):
    """Warm bisection probes run in the shared level kernel at both
    ranks: each batched row == the single-design call with its seed."""
    from repro.fastpath.batch import BatchValue

    problem, budgets, arrays = s298_arrays
    budget_vec = arrays.budgets_to_array(budgets.budgets)
    ceiling = budgets.effective_cycle_time
    corners = [(1.5, 0.3), (0.9, 0.3), (0.7, 0.45)]
    rng = random.Random(7)
    warm = np.asarray([[rng.uniform(1.0, 20.0) for _ in range(arrays.n_gates)]
                       for _ in corners])
    vdd = BatchValue(np.asarray([[v] for v, _ in corners]), per_gate=False)
    vth = BatchValue(np.asarray([[v] for _, v in corners]), per_gate=False)
    for seeds in (warm, warm[0]):
        batched = fast_size_widths(arrays, budget_vec, vdd, vth,
                                   method="bisect", repair_ceiling=ceiling,
                                   warm=seeds)
        for b, (v, t) in enumerate(corners):
            single = fast_size_widths(arrays, budget_vec, v, t,
                                      method="bisect", repair_ceiling=ceiling,
                                      warm=seeds if seeds.ndim == 1
                                      else seeds[b])
            assert bool(batched.feasible[b]) == single.feasible
            assert batched.repaired[b] == single.repaired
            assert np.array_equal(batched.widths[b], single.widths)


def test_unknown_engine_rejected():
    from repro.errors import OptimizationError

    with pytest.raises(OptimizationError):
        HeuristicSettings(engine="warp")


def test_multiple_circuits_agree():
    rng = random.Random(7)
    for circuit in ("s27", "c17", "s526"):
        problem = build_problem(circuit, 0.1)
        budgets = problem.budgets()
        arrays = ArrayContext(problem.ctx)
        budget_array = arrays.budgets_to_array(dict(budgets.budgets))
        for _ in range(3):
            vdd = rng.uniform(0.5, 3.3)
            vth = rng.uniform(0.1, 0.5)
            scalar = size_widths(problem.ctx, budgets.budgets, vdd, vth)
            fast = fast_size_widths(arrays, budget_array, vdd, vth)
            assert fast.feasible == scalar.feasible, circuit


def _custom_problem(network):
    from repro.activity.profiles import uniform_profile
    from repro.optimize.problem import OptimizationProblem
    from repro.technology.process import Technology
    from repro.units import MHZ

    profile = uniform_profile(network, probability=0.5, density=0.1)
    return OptimizationProblem.build(Technology.default(), network, profile,
                                     frequency=200 * MHZ)


def test_boundary_only_fanout_rows_use_boundary_width():
    """Regression: boundary branches must not gather a real gate's width.

    The PO gate's fanout row holds *only* the boundary branch (sentinel
    index -1). A clamped gather (``np.clip(idx, 0, None)``) would read
    the width of array row 0 — the PO gate itself, given an extreme
    width here — instead of ``BOUNDARY_WIDTH``; the masked gather keeps
    the boundary receiver at fixed unit width. Parity with the scalar
    reference pins the behavior down.
    """
    from repro.netlist.gates import GateType
    from repro.netlist.network import NetworkBuilder

    builder = NetworkBuilder("boundary_only")
    builder.add_input("a")
    builder.add_input("b")
    builder.add_gate("g1", GateType.NAND, ["a", "b"])
    builder.add_gate("g2", GateType.NOR, ["a", "b"])
    builder.add_gate("y", GateType.NAND, ["g1", "g2"])
    problem = _custom_problem(builder.build(outputs=["y"]))
    arrays = ArrayContext(problem.ctx)

    # The premise: y sits at array row 0 and its row is boundary-only.
    row = arrays.index["y"]
    assert row == 0
    lo, hi = arrays.fanout.ptr[row], arrays.fanout.ptr[row + 1]
    assert hi - lo == 1
    assert not arrays.fanout_is_gate[lo:hi].any()

    # Extreme width on row 0 so a sentinel-clamp bug cannot hide.
    widths = {"g1": 2.0, "g2": 3.0, "y": 500.0}
    w = arrays.widths_to_array(widths)
    critical, _ = fast_sta(arrays, 2.5, 0.3, w)
    reference = analyze_timing(problem.ctx, 2.5, 0.3, widths)
    assert critical == pytest.approx(reference.critical_delay, rel=1e-12)
    static, dynamic = fast_total_energy(arrays, 2.5, 0.3, w,
                                        problem.frequency)
    energy = total_energy(problem.ctx, 2.5, 0.3, widths, problem.frequency)
    assert static == pytest.approx(energy.static, rel=1e-12)
    assert dynamic == pytest.approx(energy.dynamic, rel=1e-12)


def test_output_fed_by_primary_input_matches_scalar():
    """A primary input listed as a primary output arrives at 0.0."""
    from repro.netlist.gates import GateType
    from repro.netlist.network import NetworkBuilder

    builder = NetworkBuilder("pi_output")
    builder.add_input("a")
    builder.add_input("b")
    builder.add_gate("g1", GateType.NAND, ["a", "b"])
    builder.add_gate("y", GateType.NOT, ["g1"])
    problem = _custom_problem(builder.build(outputs=["y", "b"]))
    arrays = ArrayContext(problem.ctx)
    assert "b" not in arrays.index  # an output port fed straight by a PI

    widths = {"g1": 4.0, "y": 2.0}
    w = arrays.widths_to_array(widths)
    critical, _ = fast_sta(arrays, 2.5, 0.3, w)
    reference = analyze_timing(problem.ctx, 2.5, 0.3, widths)
    assert critical == pytest.approx(reference.critical_delay, rel=1e-12)
    # The batched kernel and the incremental engine share the one
    # critical-delay reduction: the same arrival, row for row.
    batched, _ = fast_sta(arrays, 2.5, 0.3, np.stack([w] * 3))
    assert batched.tolist() == [critical] * 3
    engine = IncrementalEngine(problem)
    assert engine.begin(2.5, 0.3, widths).critical_delay == critical


def test_unknown_output_raises_timing_error(s27_problem):
    """An output in neither the gate index nor the PIs is a hard error."""
    from repro.errors import TimingError

    arrays = ArrayContext(s27_problem.ctx)  # local copy: we mutate index
    victim = s27_problem.network.outputs[0]
    assert victim in arrays.index
    del arrays.index[victim]
    w = np.ones(arrays.n_gates) * 4.0
    with pytest.raises(TimingError, match="neither a logic gate nor"):
        fast_sta(arrays, 2.5, 0.3, w)
    with pytest.raises(TimingError, match="neither a logic gate nor"):
        fast_sta(arrays, 2.5, 0.3, np.stack([w] * 3))
    # The incremental engine on its own local copy (its constructor
    # needs the full index to map gate names).
    local = ArrayContext(s27_problem.ctx)
    with mock.patch("repro.engine.array.array_context_for",
                    return_value=local):
        engine = IncrementalEngine(s27_problem)
    del local.index[victim]
    with pytest.raises(TimingError, match="neither a logic gate nor"):
        engine.begin(2.5, 0.3, 4.0)


def test_rows_without_fanout_entries_size_and_time_like_scalar():
    """Rows with no fanout entries: a level mixing an empty row with a
    loaded one, and a level whose only row is empty, through sizing,
    STA and energy (batched rows included)."""
    import dataclasses

    from repro.fastpath.batch import BatchValue
    from repro.netlist.gates import GateType
    from repro.netlist.network import NetworkBuilder

    builder = NetworkBuilder("dangling")
    builder.add_input("a")
    builder.add_input("b")
    builder.add_gate("g1", GateType.NAND, ["a", "b"])
    builder.add_gate("g2", GateType.NOR, ["a", "b"])
    builder.add_gate("y", GateType.NAND, ["g1", "g2"])
    builder.add_gate("d", GateType.NOR, ["g1", "g2"])
    builder.add_gate("z", GateType.NOT, ["d"])
    problem = _custom_problem(builder.build(outputs=["y"]))
    budgets = problem.budgets()
    ctx = problem.ctx
    # A sink-less gate normally drives one boundary branch; strip it so
    # the rows of y (level 2, beside d) and z (level 3, alone) are empty.
    for name in ("y", "z"):
        ctx._info[name] = dataclasses.replace(
            ctx.info(name), fanout_names=(), fanout_input_caps=(),
            branch_caps=(), branch_resistances=(), branch_flights=())
    arrays = ArrayContext(ctx)
    plan = arrays.sweep_plan()
    empty = [level for level in plan.levels
             if level.segments.nonempty is not None]
    assert sorted(level.stop - level.start for level in empty) == [1, 2]
    assert any(not level.segments.starts.size for level in empty)

    budget_vec = arrays.budgets_to_array(budgets.budgets)
    ceiling = budgets.effective_cycle_time
    reference = size_widths(ctx, budgets.budgets, 2.5, 0.3,
                            repair_ceiling=ceiling)
    fast = fast_size_widths(arrays, budget_vec, 2.5, 0.3,
                            repair_ceiling=ceiling)
    assert fast.feasible and reference.feasible
    widths = fast.widths_map(arrays)
    for name, width in reference.widths.items():
        assert widths[name] == pytest.approx(width, rel=1e-12)
    rows = BatchValue(np.asarray([[2.5], [2.5]]), per_gate=False)
    batched = fast_size_widths(arrays, budget_vec, rows, 0.3,
                               repair_ceiling=ceiling)
    assert np.array_equal(batched.widths[1], fast.widths)

    critical, _ = fast_sta(arrays, 2.5, 0.3, fast.widths)
    timing = analyze_timing(ctx, 2.5, 0.3, reference.widths)
    assert critical == pytest.approx(timing.critical_delay, rel=1e-12)
    static, dynamic = fast_total_energy(arrays, 2.5, 0.3, fast.widths,
                                        problem.frequency)
    energy = total_energy(ctx, 2.5, 0.3, reference.widths,
                          problem.frequency)
    assert static == pytest.approx(energy.static, rel=1e-12)
    assert dynamic == pytest.approx(energy.dynamic, rel=1e-12)
