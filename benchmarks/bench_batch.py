"""Bench: batched multi-design evaluation vs the single-design loop.

Times the two workloads the batch axis was built for, on s298:

* **full-grid evaluation** — every corner of a Vdd x Vth grid sized and
  scored via one ``evaluate_batch`` call vs the looped ArrayEngine,
  asserting bit-identical energies/feasibility per corner and a >= 3x
  speedup;
* **robust die stage** — all 40 Monte-Carlo dies of one robust estimate
  measured via ``measure_batch`` vs the per-die loop, identical
  estimates asserted, >= 2x speedup.

Also records a gather note: STA reads sink widths with one fancy index
into a padded width vector (the boundary sentinel points at a slot
holding ``BOUNDARY_WIDTH``; see ``ArrayContext.sweep_plan``) instead of
a fill + boolean-mask double gather per call; the microbenchmark below
times the gather-heavy STA inner loop to document the effect in this
bench's artifact.

Speedup floors are asserted only on hosts with >= 2 cores (mirroring
``bench_parallel.py``: a loaded single-core runner times nothing
honestly); the equality contract is asserted everywhere. Results land
in ``benchmarks/results/`` and ``BENCH_batch.json`` at the repo root.
"""

import math
import os
import shutil
import time
from pathlib import Path

import numpy as np

from repro.analysis.report import format_table
from repro.engine import make_engine
from repro.experiments.common import build_problem
from repro.robust.config import RobustConfig
from repro.robust.estimator import RobustEstimator

REPO_ROOT = Path(__file__).resolve().parents[1]

CIRCUIT = "s298"
GRID = 12  # 12 x 12 = 144 corners
DIES = 40

#: CI-gated speedup floors (see ci/check_batch_parity.py).
GRID_SPEEDUP_FLOOR = 3.0
ROBUST_SPEEDUP_FLOOR = 2.0


def _cores() -> int:
    return os.cpu_count() or 1


def _timed(run):
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def _grid_corners(problem):
    tech = problem.tech
    vdds = np.linspace(tech.vdd_min, tech.vdd_max, GRID)
    vths = np.linspace(tech.vth_min, tech.vth_max, GRID)
    return [(float(vdd), float(vth)) for vdd in vdds for vth in vths]


def test_batched_evaluation_speedup(benchmark, record_artifact, record_json):
    problem = build_problem(CIRCUIT, 0.1)
    budgets = problem.budgets()
    corners = _grid_corners(problem)

    batch = make_engine(problem, "fast")
    # The looped baseline: the same engine without its batched path, so
    # the robust estimator measures its dies one at a time.
    fast = make_engine(problem, "fast")
    fast.supports_batch = False

    # Full grid: one batched kernel invocation vs the corner loop.
    looped, looped_s = _timed(
        lambda: [fast.evaluate(budgets, vdd, vth) for vdd, vth in corners])
    batched, batched_s = _timed(
        lambda: batch.evaluate_batch(budgets, [c[0] for c in corners],
                                     [c[1] for c in corners]))
    assert len(batched) == len(looped)
    for row, (lhs, rhs) in enumerate(zip(batched, looped)):
        assert lhs.feasible == rhs.feasible, corners[row]
        assert lhs.energy == rhs.energy or (math.isinf(lhs.energy)
                                            and math.isinf(rhs.energy))
    feasible = [row for row in looped if row.feasible]
    assert feasible, "grid produced no feasible corner"
    best_energy = min(row.energy for row in feasible)
    grid_speedup = looped_s / batched_s

    # Robust die stage: all 40 dies of one estimate per kernel call.
    config = RobustConfig(samples=DIES, cull_samples=DIES)
    nominal = min((row for row in looped if row.feasible),
                  key=lambda row: row.energy)
    corner = corners[looped.index(nominal)]
    widths = nominal.widths_map()
    looped_estimate, robust_loop_s = _timed(
        lambda: RobustEstimator(problem, config, fast).estimate(
            corner[0], corner[1], widths))
    batched_estimate, robust_batch_s = _timed(
        lambda: RobustEstimator(problem, config, batch).estimate(
            corner[0], corner[1], widths))
    assert batched_estimate.to_dict() == looped_estimate.to_dict()
    robust_speedup = robust_loop_s / robust_batch_s

    # Gather note: the boundary-sink gather. Time the gather-heavy STA
    # at fixed widths — the hot path the sweep plan's padded gather
    # serves — and archive the per-call cost.
    gates = problem.ctx.gates
    sta_widths = {name: 8.0 for name in gates}
    calls = 200
    _, sta_s = _timed(lambda: [fast.sta(2.0, 0.3, sta_widths)
                               for _ in range(calls)])
    gather_note = (f"fanout gather: sweep-plan padded width index "
                   f"(was fill + boolean-mask double gather); "
                   f"STA now {1e6 * sta_s / calls:.0f} us/call on "
                   f"{CIRCUIT}")

    benchmark.pedantic(
        lambda: batch.evaluate_batch(budgets, [c[0] for c in corners],
                                     [c[1] for c in corners]),
        rounds=1, iterations=1)

    gated = _cores() >= 2
    if gated:
        assert grid_speedup >= GRID_SPEEDUP_FLOOR, \
            f"grid batch delivered only {grid_speedup:.2f}x"
        assert robust_speedup >= ROBUST_SPEEDUP_FLOOR, \
            f"robust batch delivered only {robust_speedup:.2f}x"

    rows = [[f"grid {GRID}x{GRID} ({len(corners)} corners)",
             f"{looped_s:.2f}", f"{batched_s:.2f}",
             f"{grid_speedup:.2f}x"],
            [f"robust stage ({DIES} dies)", f"{robust_loop_s:.3f}",
             f"{robust_batch_s:.3f}", f"{robust_speedup:.2f}x"]]
    record_artifact("batch", format_table(
        headers=["workload", "looped (s)", "batched (s)", "speedup"],
        rows=rows,
        title=f"Batched multi-design evaluation on {CIRCUIT} "
              f"(bit-identical results asserted)") + "\n" + gather_note)
    path = record_json(
        "batch",
        results=[
            {"unit": "grid looped", "evaluations": len(corners),
             "wall_s": looped_s, "best_energy": best_energy},
            {"unit": "grid batched", "evaluations": len(corners),
             "wall_s": batched_s, "best_energy": best_energy},
            {"unit": "robust looped", "evaluations": DIES,
             "wall_s": robust_loop_s,
             "best_energy": looped_estimate.mean},
            {"unit": "robust batched", "evaluations": DIES,
             "wall_s": robust_batch_s,
             "best_energy": batched_estimate.mean},
        ],
        circuit=CIRCUIT, grid=GRID, dies=DIES,
        grid_speedup=grid_speedup, robust_speedup=robust_speedup,
        grid_speedup_floor=GRID_SPEEDUP_FLOOR,
        robust_speedup_floor=ROBUST_SPEEDUP_FLOOR,
        cores=_cores(), floors_gated=gated,
        gather_note=gather_note,
        sta_us_per_call=1e6 * sta_s / calls)
    shutil.copyfile(path, REPO_ROOT / "BENCH_batch.json")
