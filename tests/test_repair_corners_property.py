"""Property: budget-repair corners agree across every sizing path.

Generated circuits under tight clocks, at corners drawn low enough in
Vdd / high enough in Vth that Procedure 2's budget repair runs, with
global or per-gate voltages. At each corner:

* the scalar reference, the single-design fastpath and each row of one
  batched call return the same ``(feasible, repaired)``, and the same
  widths when the corner is feasible;
* when the critical-delay floor certifies a corner infeasible, the
  repair replay run without the certificate also ends infeasible;
* the floor never exceeds ``fast_sta``'s critical delay of a design
  with widths anywhere in ``[w_min, w_max]``.

The draws must exercise the certificate: the test fails if the floor
never fired.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.activity.profiles import uniform_profile
from repro.engine.array import array_context_for
from repro.fastpath import evaluate
from repro.fastpath.batch import BatchValue
from repro.netlist.generator import GeneratorSpec, generate_network
from repro.optimize.problem import OptimizationProblem
from repro.optimize.width_search import size_widths
from repro.technology.process import Technology
from repro.units import MHZ

#: Scalar and vectorized sizing sum identical terms in different
#: associations; only round-off separates their widths.
REL = 1e-9


@lru_cache(maxsize=None)
def _problem(seed: int, mhz: int):
    spec = GeneratorSpec(name=f"repair{seed}", n_inputs=6, n_outputs=5,
                         n_gates=40 + 7 * (seed % 5), depth=6, seed=seed)
    network = generate_network(spec)
    profile = uniform_profile(network, probability=0.5, density=0.1)
    problem = OptimizationProblem.build(Technology.default(), network,
                                        profile, frequency=mhz * MHZ)
    return problem, problem.budgets()


def _voltages(arrays, corner, per_gate: bool, rng: random.Random):
    """A corner as global floats, or as per-gate ``{name: value}`` maps
    spread around it."""
    vdd, vth = corner
    if not per_gate:
        return vdd, vth
    return ({name: vdd * rng.uniform(0.9, 1.1)
             for name in arrays.gate_names},
            {name: vth + rng.uniform(-0.03, 0.03)
             for name in arrays.gate_names})


def _floor(arrays, vdd, vth) -> float:
    """The certificate's critical-delay floor at one corner (``inf``
    when a gate cannot switch, so no sizing is attempted)."""
    vdd = evaluate._as_values(arrays, vdd)
    vth = evaluate._as_values(arrays, vth)
    drive = evaluate._drive_per_width(arrays, vdd, vth)
    if np.any(drive <= 0.0):
        return math.inf
    k_vdd = arrays.ctx.tech.velocity_saturation_coeff * vdd
    return evaluate._delay_floor(
        arrays, drive, evaluate._slope_coefficients(arrays, vdd, vth), k_vdd)


def _batch(arrays, values, per_gate: bool) -> BatchValue:
    if per_gate:
        return BatchValue(np.stack([arrays.values_to_array(v)
                                    for v in values]), per_gate=True)
    return BatchValue(np.asarray([[v] for v in values]), per_gate=False)


corners = st.tuples(st.floats(0.4, 1.5), st.floats(0.15, 0.55))


def test_repair_corners_agree_and_the_certificate_is_sound():
    fired = []

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 5), mhz=st.sampled_from([250, 500, 1000]),
           corner_list=st.lists(corners, min_size=1, max_size=3),
           per_gate=st.booleans(),
           method=st.sampled_from(["closed_form", "bisect"]),
           spread=st.integers(0, 2 ** 16))
    def check(seed, mhz, corner_list, per_gate, method, spread):
        problem, budgets = _problem(seed, mhz)
        arrays = array_context_for(problem.ctx)
        tech = problem.tech
        budget_vec = arrays.budgets_to_array(budgets.budgets)
        ceiling = budgets.effective_cycle_time
        threshold = ceiling * evaluate._CERTIFY_FACTOR
        rng = random.Random(spread)
        rows = [_voltages(arrays, corner, per_gate, rng)
                for corner in corner_list]

        batched = evaluate.fast_size_widths(
            arrays, budget_vec, _batch(arrays, [r[0] for r in rows], per_gate),
            _batch(arrays, [r[1] for r in rows], per_gate), method=method,
            repair_ceiling=ceiling)
        for b, (vdd, vth) in enumerate(rows):
            scalar = size_widths(problem.ctx, budgets.budgets, vdd, vth,
                                 method=method, repair_ceiling=ceiling)
            fast = evaluate.fast_size_widths(arrays, budget_vec, vdd, vth,
                                             method=method,
                                             repair_ceiling=ceiling)
            assert fast.feasible == scalar.feasible
            assert fast.repaired == scalar.repaired_gates
            assert bool(batched.feasible[b]) == fast.feasible
            assert batched.repaired[b] == fast.repaired
            if fast.feasible:
                assert np.array_equal(batched.widths[b], fast.widths)
                widths = fast.widths_map(arrays)
                for name, width in scalar.widths.items():
                    assert widths[name] == pytest.approx(width, rel=REL)

            floor = _floor(arrays, vdd, vth)
            if math.isinf(floor):
                continue
            if floor > threshold:
                fired.append((seed, mhz, vdd if not per_gate else "map"))
                assert not fast.feasible and fast.repaired == ()
                with mock.patch.object(evaluate, "_CERTIFY_FACTOR", math.inf):
                    walked = evaluate.fast_size_widths(
                        arrays, budget_vec, vdd, vth, method=method,
                        repair_ceiling=ceiling)
                assert not walked.feasible

            for _ in range(2):
                w = np.asarray([rng.uniform(tech.width_min, tech.width_max)
                                for _ in range(arrays.n_gates)])
                critical, _ = evaluate.fast_sta(arrays, vdd, vth, w)
                assert floor <= critical * (1.0 + 1e-12)
            for extreme in (tech.width_min, tech.width_max):
                critical, _ = evaluate.fast_sta(
                    arrays, vdd, vth, np.full(arrays.n_gates, extreme))
                assert floor <= critical * (1.0 + 1e-12)

    check()
    assert fired, "no drawn corner exercised the infeasibility certificate"
