"""The one variation sampler and the one die loop.

:class:`~repro.robust.sampler.VthSampler` draws dies as ``(B, n)``
canonical-order arrays; :func:`~repro.robust.sampler.measure_dies`
measures them through any engine, batching where the engine can and
quarantining exactly the dies whose measurement faults.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.montecarlo import monte_carlo_variation
from repro.engine import EngineMeasurement, make_engine, use_engine
from repro.errors import TimingError
from repro.obs.instrument import BATCH_CALLS
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.optimize.problem import DesignPoint
from repro.robust.sampler import MIN_VTH, VthSampler, measure_dies


@pytest.fixture(scope="module")
def sampler(s27_problem):
    return VthSampler(s27_problem.ctx.gates, 0.015, 0.010, 3)


@pytest.fixture(scope="module")
def widths(s27_problem):
    return {name: 4.0 for name in s27_problem.ctx.gates}


def test_blocks_are_rows_of_the_whole_draw(sampler):
    whole = sampler.offsets(0, 9)
    assert whole.shape == (9, len(sampler.gates))
    assert (np.vstack([sampler.offsets(0, 4), sampler.offsets(4, 9)])
            == whole).all()


def test_thresholds_take_scalar_map_and_vector_nominals(sampler):
    offsets = sampler.offsets(0, 5)
    nominal = np.linspace(0.2, 0.4, len(sampler.gates))
    as_map = dict(zip(sampler.gates, nominal.tolist()))
    by_vector = sampler.thresholds(nominal, offsets)
    assert (sampler.thresholds(as_map, offsets) == by_vector).all()
    assert (sampler.thresholds(0.3, offsets)
            == np.maximum(0.3 + offsets, MIN_VTH)).all()


def test_batched_dies_equal_the_loop(s27_problem, sampler, widths):
    rows = sampler.thresholds(0.3, sampler.offsets(0, 8))
    registry = MetricsRegistry()
    with use_metrics(registry):
        batched = measure_dies(make_engine(s27_problem, "batch"), 2.0, rows,
                               widths)
    assert registry.counter(BATCH_CALLS) == 1
    looped = measure_dies(make_engine(s27_problem, "scalar"), 2.0, rows,
                          widths)
    fast = measure_dies(make_engine(s27_problem, "fast"), 2.0, rows, widths)
    assert batched == fast
    for lhs, rhs in zip(batched, looped):
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_a_faulting_batch_falls_back_to_quarantining_single_dies(
        s27_problem, sampler, widths, monkeypatch):
    engine = make_engine(s27_problem, "batch")
    rows = sampler.thresholds(0.3, sampler.offsets(0, 6))
    clean = measure_dies(engine, 2.0, rows, widths)
    measure = engine.measure

    def faulty_batch(*args):
        raise TimingError("injected batch fault")

    def faulty_measure(vdd, vth, widths):
        if vth[0] == rows[1][0]:
            raise TimingError("injected die fault")
        if vth[0] == rows[4][0]:
            return EngineMeasurement(static=math.nan, dynamic=0.0,
                                     critical_delay=1.0)
        return measure(vdd, vth, widths)

    monkeypatch.setattr(engine, "measure_batch", faulty_batch)
    monkeypatch.setattr(engine, "measure", faulty_measure)
    dies = measure_dies(engine, 2.0, rows, widths)
    assert dies[1] is None and dies[4] is None
    assert [die for k, die in enumerate(dies) if k not in (1, 4)] == \
        [die for k, die in enumerate(clean) if k not in (1, 4)]


def test_monte_carlo_default_engine_is_scalar_not_auto(s27_problem, widths):
    design = DesignPoint(vdd=2.0, vth=0.3, widths=widths)
    scalar = monte_carlo_variation(s27_problem, design, samples=12, seed=4,
                                   engine="scalar")
    with use_engine("batch"):
        default = monte_carlo_variation(s27_problem, design, samples=12,
                                        seed=4)
    assert default == scalar
