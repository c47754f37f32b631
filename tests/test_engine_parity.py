"""Cross-engine equivalence: ScalarEngine vs ArrayEngine, randomized.

The parity contract (:mod:`repro.engine.base`): for any (budgets, Vdd,
Vth) point the engines agree on the feasibility verdict and, on feasible
points, on energies, critical delays and widths to float round-off. This
module exercises the contract through the public :class:`Engine` API —
seeded randomized points on generated circuits (so the topology itself
is randomized), every benchmark circuit, per-gate voltage maps, and
corners chosen to force budget repair.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.activity.profiles import uniform_profile
from repro.engine import make_engine
from repro.experiments.common import build_problem
from repro.netlist.generator import GeneratorSpec, generate_network
from repro.optimize.problem import OptimizationProblem
from repro.technology.process import Technology
from repro.units import MHZ

#: Both-engines agreement tolerance (they sum identical terms in
#: different associations, so only round-off separates them).
REL = 1e-9


def _generated_problem(seed: int) -> OptimizationProblem:
    spec = GeneratorSpec(name=f"parity{seed}", n_inputs=6, n_outputs=5,
                         n_gates=40 + 7 * (seed % 5), depth=6, seed=seed)
    network = generate_network(spec)
    profile = uniform_profile(network, probability=0.5, density=0.1)
    return OptimizationProblem.build(Technology.default(), network, profile,
                                     frequency=250 * MHZ)


def _assert_point_parity(problem, scalar, fast, budgets, vdd, vth):
    lhs = scalar.evaluate(budgets, vdd, vth)
    rhs = fast.evaluate(budgets, vdd, vth)
    assert lhs.feasible == rhs.feasible, (vdd, vth)
    if not lhs.feasible:
        assert lhs.energy == rhs.energy == math.inf
        return
    assert rhs.energy == pytest.approx(lhs.energy, rel=REL)
    assert rhs.static == pytest.approx(lhs.static, rel=REL)
    assert rhs.dynamic == pytest.approx(lhs.dynamic, rel=REL)
    assert rhs.sizing.repaired == lhs.sizing.repaired
    left_widths = lhs.widths_map()
    right_widths = rhs.widths_map()
    for name in problem.ctx.gates:
        assert right_widths[name] == pytest.approx(left_widths[name],
                                                   rel=REL), name


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_random_points_on_generated_circuits(seed):
    """Seeded random (Vdd, Vth, width-method) sweep, random topology."""
    problem = _generated_problem(seed)
    budgets = problem.budgets()
    rng = random.Random(1000 + seed)
    for _ in range(6):
        method = rng.choice(("closed_form", "bisect"))
        scalar = make_engine(problem, "scalar", width_method=method)
        fast = make_engine(problem, "fast", width_method=method)
        vdd = rng.uniform(0.45, 3.3)
        vth = rng.uniform(0.1, 0.55)
        _assert_point_parity(problem, scalar, fast, budgets, vdd, vth)


@pytest.mark.parametrize("circuit", ["s27", "c17", "s298", "s526"])
def test_benchmark_circuits_agree(circuit):
    problem = build_problem(circuit, 0.1)
    budgets = problem.budgets()
    scalar = make_engine(problem, "scalar")
    fast = make_engine(problem, "fast")
    rng = random.Random(17)
    for _ in range(4):
        vdd = rng.uniform(0.5, 3.3)
        vth = rng.uniform(0.1, 0.5)
        _assert_point_parity(problem, scalar, fast, budgets, vdd, vth)


def test_repair_corner_is_exercised_and_agrees():
    """A low-rail / high-Vth corner that forces budget repair on s298."""
    problem = build_problem("s298", 0.1)
    budgets = problem.budgets()
    scalar = make_engine(problem, "scalar")
    fast = make_engine(problem, "fast")
    lhs = scalar.size_widths(budgets, 0.7, 0.45)
    rhs = fast.size_widths(budgets, 0.7, 0.45)
    # The corner must actually trigger repair, or this test tests nothing.
    assert lhs.repaired, "corner no longer exercises budget repair"
    assert rhs.repaired == lhs.repaired
    assert rhs.feasible == lhs.feasible
    left = lhs.widths_map()
    right = rhs.widths_map()
    for name in problem.ctx.gates:
        assert right[name] == pytest.approx(left[name], rel=REL), name


def test_repair_corners_on_generated_circuits():
    """Walk the rail down until repair fires; parity must hold there."""
    problem = _generated_problem(9)
    budgets = problem.budgets()
    scalar = make_engine(problem, "scalar")
    fast = make_engine(problem, "fast")
    exercised = False
    for vdd in (1.2, 1.0, 0.85, 0.7, 0.6):
        lhs = scalar.size_widths(budgets, vdd, 0.45)
        rhs = fast.size_widths(budgets, vdd, 0.45)
        assert rhs.feasible == lhs.feasible, vdd
        assert rhs.repaired == lhs.repaired, vdd
        exercised = exercised or bool(lhs.repaired)
        _assert_point_parity(problem, scalar, fast, budgets, vdd, 0.45)
    assert exercised, "no corner exercised budget repair"


def test_per_gate_vth_maps_agree():
    """Multi-Vth form: a {name: vth} map through measure() and sta()."""
    problem = build_problem("s298", 0.1)
    scalar = make_engine(problem, "scalar")
    fast = make_engine(problem, "fast")
    rng = random.Random(23)
    gates = problem.ctx.gates
    vth_map = {name: rng.choice((0.2, 0.3, 0.42)) for name in gates}
    widths = {name: rng.uniform(1.0, 20.0) for name in gates}
    lhs = scalar.measure(2.0, vth_map, widths)
    rhs = fast.measure(2.0, vth_map, widths)
    assert rhs.static == pytest.approx(lhs.static, rel=REL)
    assert rhs.dynamic == pytest.approx(lhs.dynamic, rel=REL)
    assert rhs.critical_delay == pytest.approx(lhs.critical_delay, rel=REL)


def test_per_gate_vdd_and_vth_maps_agree():
    """Multi-Vdd + multi-Vth simultaneously (rails and thresholds mixed)."""
    problem = _generated_problem(12)
    scalar = make_engine(problem, "scalar")
    fast = make_engine(problem, "fast")
    rng = random.Random(31)
    gates = problem.ctx.gates
    vdd_map = {name: rng.choice((1.8, 2.5)) for name in gates}
    vth_map = {name: rng.choice((0.25, 0.35)) for name in gates}
    widths = {name: rng.uniform(1.0, 12.0) for name in gates}
    lhs = scalar.measure(vdd_map, vth_map, widths)
    rhs = fast.measure(vdd_map, vth_map, widths)
    assert rhs.static == pytest.approx(lhs.static, rel=REL)
    assert rhs.dynamic == pytest.approx(lhs.dynamic, rel=REL)
    assert rhs.critical_delay == pytest.approx(lhs.critical_delay, rel=REL)


def test_canonical_vector_voltages_agree():
    """Vector (canonical ctx.gates order) voltages through the seam."""
    import numpy as np

    problem = build_problem("c17", 0.1)
    scalar = make_engine(problem, "scalar")
    fast = make_engine(problem, "fast")
    gates = problem.ctx.gates
    rng = random.Random(41)
    vth_vec = np.asarray([rng.uniform(0.2, 0.4) for _ in gates])
    widths = {name: rng.uniform(1.0, 8.0) for name in gates}
    vth_map = {name: float(v) for name, v in zip(gates, vth_vec)}
    lhs = scalar.measure(2.2, vth_map, widths)
    rhs = fast.measure(2.2, vth_vec, widths)
    assert rhs.critical_delay == pytest.approx(lhs.critical_delay, rel=REL)
    assert rhs.static == pytest.approx(lhs.static, rel=REL)
    assert rhs.dynamic == pytest.approx(lhs.dynamic, rel=REL)


def test_scalar_engine_accepts_canonical_vector_voltages():
    """The scalar engine maps vdd/vth vectors the way it maps widths:
    bitwise the mapping result, and the array engine's to round-off."""
    import numpy as np

    problem = build_problem("s298", 0.1)
    scalar = make_engine(problem, "scalar")
    fast = make_engine(problem, "fast")
    gates = problem.ctx.gates
    vdd_vec = np.linspace(0.9, 1.1, len(gates))
    vth_vec = np.linspace(0.25, 0.35, len(gates))
    widths = {name: 3.0 for name in gates}
    vdd_map = {name: float(v) for name, v in zip(gates, vdd_vec)}
    vth_map = {name: float(v) for name, v in zip(gates, vth_vec)}
    for vdd, vdd_mapped in ((1.0, 1.0), (vdd_vec, vdd_map)):
        vector = scalar.measure(vdd, vth_vec, widths)
        mapped = scalar.measure(vdd_mapped, vth_map, widths)
        assert vector == mapped
        reference = fast.measure(vdd, vth_vec, widths)
        for lhs, rhs in zip(vector, reference):
            assert rhs == pytest.approx(lhs, rel=REL)
    budgets = problem.budgets()
    sized = scalar.size_widths(budgets, 1.0, vth_vec)
    assert sized.widths_map() == scalar.size_widths(
        budgets, 1.0, vth_map).widths_map()
