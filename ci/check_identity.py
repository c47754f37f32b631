"""CI gate: the optimum does not depend on how it was computed.

Usage::

    python ci/check_identity.py CASE [--jobs N]

Each case builds a small problem, runs it two ways and requires the
same result: serial and on the worker pool, batched and looped, pruned
and unpruned, interrupted-and-resumed and uninterrupted, crash-injected
and clean. Each case also proves that the mechanism it compares ran (a
batched kernel, a pruned cell, a respawned worker, a cancel that landed
mid-search): the identity of a path with itself proves nothing.

``search``
    s27 grid: serial == pooled; pruned keeps the design with fewer
    evaluations. Random, surrogate and hyperband land within 5% of the
    grid optimum with at least 2x fewer evaluations, and are
    jobs- and resume-invariant.
``robust``
    s27 p95 search: jobs- and resume-invariant including every
    per-corner statistic; a nominal checkpoint refuses a robust resume;
    a fault plan quarantines samples into a labeled degraded result.
``batch``
    s27: batched runs under ``"fast"`` and ``"batch"`` == the looped
    path (``supports_batch`` off) in design, checkpoint bytes, pooled
    runs, serve cache keys, robust search and Monte-Carlo; the floors
    of ``BENCH_batch.json`` hold.
``incremental``
    s298: annealing on the incremental engine reproduces the fast
    engine's trajectory; bound pruning keeps the argmin serially and
    pooled at a net saving; the floors of
    ``benchmarks/results/incremental.json`` hold.
``parallel``
    Table 1 and an s298 Monte-Carlo sweep on a pool whose first task's
    worker is SIGKILLed == serial, and each pooled run respawned a
    worker and retried the task.

Exits nonzero with a one-line diagnosis on the first divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, NoReturn

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.analysis.montecarlo import monte_carlo_variation
from repro.engine import use_engine
from repro.engine.array import ArrayEngine
from repro.errors import CheckpointError, RunCancelled
from repro.experiments.common import build_problem
from repro.experiments.table1 import run_table1
from repro.obs.instrument import (BATCH_CALLS, INCREMENTAL_MOVES,
                                  POOL_TASKS_RETRIED, POOL_WORKER_RESPAWNS,
                                  PRUNED_CELLS)
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.optimize.annealing import AnnealingSettings, optimize_annealing
from repro.optimize.baseline import optimize_fixed_vth
from repro.optimize.heuristic import HeuristicSettings, optimize_joint
from repro.robust import RobustConfig
from repro.runtime.controller import RunController
from repro.runtime.fallback import DegradedResult
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.runtime.pool import CRASH_TASKS_ENV, multiprocessing_available
from repro.runtime.supervisor import ParallelPlan, use_parallel
from repro.serve.jobs import (JobRequest, request_fingerprint,
                              search_fingerprint_for)

#: The grid of the search and batch cases.
GRID = dict(grid_vdd=13, grid_vth=11, refine_iters=6, refine_rounds=1)
#: Evaluation budget of each adaptive strategy in the search case.
BUDGET = 12
ADAPTIVE = ("random", "surrogate", "hyperband")
#: An adaptive optimum may sit at most this far above the grid's ...
TOLERANCE = 0.05
#: ... after at most 1/EFFICIENCY of the grid's evaluations.
EFFICIENCY = 2
#: The incremental case's circuit and the parallel case's Monte-Carlo
#: sample count.
CIRCUIT = "s298"
SAMPLES = 32

#: ``details`` entries that belong to a result's identity where the
#: result carries them: the robust statistics and the annealing
#: trajectory.
DETAIL_KEYS = ("robust", "trajectory", "accepts_per_pass")
#: Entries of ``details["robust"]`` that record how the dies were
#: measured (batched or one per call), not what was measured.
EXECUTION_SHAPE = ("batched", "samples_per_call")


class Divergence(Exception):
    """One check failed; ``main`` reports it and exits 1."""


def fail(message: str) -> NoReturn:
    raise Divergence(message)


def step(message: str) -> None:
    print(f"  {message}", flush=True)


# -- comparators ------------------------------------------------------------


def _key(result, full: bool, shape: bool) -> Dict[str, str]:
    key = {"vdd": result.design.vdd, "vth": result.design.vth,
           "widths": dict(result.design.widths),
           "energy": result.energy.total}
    if full:
        key["evaluations"] = result.evaluations
        key.update((name, result.details.get(name)) for name in DETAIL_KEYS)
        if not shape and key["robust"] is not None:
            key["robust"] = {name: value
                             for name, value in key["robust"].items()
                             if name not in EXECUTION_SHAPE}
    return {name: json.dumps(value, sort_keys=True)
            for name, value in key.items()}


def expect_same(what: str, lhs, rhs, *, full: bool = True,
                shape: bool = True) -> None:
    """``lhs`` and ``rhs`` agree on the design key (Vdd, Vth, widths,
    energy) and, when ``full``, also on the evaluation count and the
    :data:`DETAIL_KEYS`, byte for byte in JSON. ``shape=False`` leaves
    out the :data:`EXECUTION_SHAPE` entries, for runs that measure the
    same dies batched and looped."""
    left, right = _key(lhs, full, shape), _key(rhs, full, shape)
    for name in left:
        if left[name] != right[name]:
            fail(f"{what}: {name} diverged: {left[name][:200]} vs "
                 f"{right[name][:200]}")


# -- shared legs ------------------------------------------------------------


def pooled(problem, settings, jobs: int):
    """``optimize_joint`` with ``settings`` on a ``jobs``-worker pool."""
    return optimize_joint(problem, settings=dataclasses.replace(
        settings, parallel=ParallelPlan(jobs=jobs, heartbeat_s=0.05)))


def cancel_and_resume(problem, settings, *, after: int):
    """Cancel a checkpointed run at its ``after``-th progress event,
    then resume it from the checkpoint; the resumed result."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cancelled.ckpt"
        events = []

        def progress(event):
            events.append(event)
            if len(events) == after:
                controller.cancel()

        controller = RunController(progress=progress, checkpoint_path=path)
        try:
            optimize_joint(problem, settings=dataclasses.replace(
                settings, controller=controller))
        except RunCancelled:
            pass
        else:
            fail(f"the cancel at progress event {after} never fired; the "
                 "resume leg tested nothing")
        if not path.exists():
            fail("no checkpoint written before the cancel")
        resumed = optimize_joint(problem, settings=settings,
                                 resume_from=path)
    if resumed.details.get("resumed_corners", 0) <= 0:
        fail("the resume replayed no corners; the cancel landed after the "
             "search finished")
    return resumed


@contextlib.contextmanager
def counting():
    """A fresh metrics registry for the runs inside the block."""
    registry = MetricsRegistry()
    with use_metrics(registry):
        yield registry


def expect_fired(count: float, name: str, *, fired: bool = True) -> None:
    """A mechanism counter is > 0 (``fired``) or == 0 (a reference run
    that must not use the mechanism)."""
    if fired and count <= 0:
        fail(f"{name} = {count}: the mechanism never fired, so the identity "
             "proved nothing")
    if not fired and count:
        fail(f"{name} = {count} on the reference run, which must not use "
             "the mechanism")


def read_archive(path: Path, bench: str, *keys: str) -> dict:
    """An archived bench result, with ``keys`` required."""
    if not path.exists():
        fail(f"{path.relative_to(REPO)} missing; regenerate it with "
             f"'python -m pytest benchmarks/{bench}'")
    document = json.loads(path.read_text())
    for key in keys:
        if key not in document:
            fail(f"{path.relative_to(REPO)} has no {key!r}")
    return document


def expect_floor(what: str, speedup: float, floor: float) -> None:
    if speedup < floor:
        fail(f"{what} {speedup:.2f}x is below the {floor}x floor")


# -- cases ------------------------------------------------------------------


def case_search(jobs: int) -> None:
    problem = build_problem("s27", 0.1)
    grid = HeuristicSettings(engine="fast", **GRID)
    reference = optimize_joint(problem, settings=grid)

    step(f"grid: serial vs --jobs {jobs}, unpruned and pruned")
    expect_same("unpruned grid, serial vs pooled", reference,
                pooled(problem, grid, jobs))
    pruned = pooled(problem, dataclasses.replace(grid, prune=True), jobs)
    expect_same("pruned pooled grid vs unpruned serial", reference, pruned,
                full=False)
    if pruned.evaluations >= reference.evaluations:
        fail(f"pruning saved nothing: {pruned.evaluations} vs "
             f"{reference.evaluations} evaluations")

    for strategy in ADAPTIVE:
        settings = dataclasses.replace(grid, strategy=strategy,
                                       search_budget=BUDGET)
        result = optimize_joint(problem, settings=settings)
        gap = (result.energy.total - reference.energy.total) \
            / reference.energy.total
        step(f"{strategy}: {result.evaluations} evaluations, {gap:+.2%} vs "
             f"the grid's {reference.evaluations}; serial vs --jobs {jobs}; "
             "cancel and resume")
        if gap > TOLERANCE:
            fail(f"{strategy} landed {gap:+.2%} above the grid optimum "
                 f"(tolerance {TOLERANCE:.0%})")
        if result.evaluations * EFFICIENCY > reference.evaluations:
            fail(f"{strategy} used {result.evaluations} evaluations; the "
                 f"bar is {reference.evaluations / EFFICIENCY:.0f}")
        expect_same(f"{strategy}, serial vs pooled", result,
                    pooled(problem, settings, jobs))
        expect_same(f"{strategy}, resumed vs uninterrupted", result,
                    cancel_and_resume(problem, settings, after=9))


def case_robust(jobs: int) -> None:
    problem = build_problem("s27", 0.1)
    nominal = HeuristicSettings(engine="fast", grid_vdd=9, grid_vth=7,
                                refine_iters=4, refine_rounds=1)
    robust = dataclasses.replace(nominal, robust=RobustConfig())
    reference = optimize_joint(problem, settings=robust)

    step(f"p95: serial vs --jobs {jobs}, and cancel and resume "
         f"({reference.details['robust']['corners']} corners)")
    expect_same("robust search, serial vs pooled", reference,
                pooled(problem, robust, jobs))
    # At event 30, 17 replayed corners carry Monte-Carlo statistics
    # that the resume must restore rather than re-sample.
    expect_same("robust search, resumed vs uninterrupted", reference,
                cancel_and_resume(problem, robust, after=30))

    step("a nominal checkpoint refuses a robust resume")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "nominal.ckpt"
        optimize_joint(problem, settings=dataclasses.replace(
            nominal, controller=RunController(checkpoint_path=path)))
        try:
            optimize_joint(problem, settings=robust, resume_from=path)
        except CheckpointError:
            pass
        else:
            fail("a robust search resumed from a nominal checkpoint")

    step("a fault plan degrades with a label (scalar engine: the faults "
         "live at its seams)")
    plan = [FaultSpec(seam="energy", kind="nan", at_call=40, count=60)]
    with use_engine("scalar"), FaultInjector(plan) as injector:
        degraded = optimize_joint(problem, settings=dataclasses.replace(
            robust, engine="scalar"))
    expect_fired(len(injector.triggered), "triggered faults")
    if not isinstance(degraded, DegradedResult):
        fail("the fault-injected robust search returned an unlabeled "
             "result")
    if degraded.degradation.get("stage") != "robust_estimate":
        fail(f"unexpected degradation stage: {degraded.degradation}")
    expect_fired(degraded.details["robust"]["samples_quarantined"],
                 "samples_quarantined")


#: (label, engine name, batched): the looped reference first.
BATCH_LEGS = (("looped fast", "fast", False), ("batched fast", "fast", True),
              ("batched batch", "batch", True))


@contextlib.contextmanager
def batching(enabled: bool):
    """Batched runs, or the looped reference: the array engine without
    its batched path."""
    ArrayEngine.supports_batch = enabled
    try:
        yield
    finally:
        ArrayEngine.supports_batch = True


def case_batch(jobs: int) -> None:
    problem = build_problem("s27", 0.1)

    def legs_agree(what: str, **overrides):
        """Every batch leg, checkpointed, == the looped reference in
        result and checkpoint bytes; the reference."""
        runs = {}
        with tempfile.TemporaryDirectory() as tmp:
            for label, engine, batched in BATCH_LEGS:
                path = Path(tmp) / f"{label.replace(' ', '-')}.ckpt"
                settings = HeuristicSettings(
                    engine=engine, controller=RunController(
                        checkpoint_path=path), **GRID, **overrides)
                with counting() as registry, batching(batched):
                    result = optimize_joint(problem, settings=settings)
                expect_fired(registry.counter(BATCH_CALLS),
                             f"{BATCH_CALLS} of the {label} {what}",
                             fired=batched)
                runs[label] = (result, path.read_bytes())
        (reference, reference_bytes), *others = runs.values()
        for (label, _, _), (result, ckpt_bytes) in zip(BATCH_LEGS[1:],
                                                       others):
            expect_same(f"{what}, {label} vs looped fast", reference, result,
                        shape=False)
            if ckpt_bytes != reference_bytes:
                fail(f"{what} checkpoint files differ between {label} and "
                     "looped fast; the runs are not interchangeable on "
                     "resume")
        return reference

    step("grid: results and checkpoint bytes, batched vs looped")
    reference = legs_agree("grid")

    step(f"grid: serial looped vs --jobs {jobs}, batched and looped")
    for label, engine, batched in BATCH_LEGS:
        with batching(batched):
            result = pooled(problem, HeuristicSettings(engine=engine,
                                                       **GRID), jobs)
        expect_same(f"{label}, serial vs pooled", reference, result)

    step("serve cache keys equal for fast and batch requests")
    requests = [JobRequest(circuit="s27", engine=engine, **GRID)
                for engine in ("fast", "batch")]
    fingerprints = [search_fingerprint_for(r) for r in requests]
    if fingerprints[0] != fingerprints[1]:
        fail(f"checkpoint fingerprints differ: {fingerprints}")
    digests = [request_fingerprint(r)[1] for r in requests]
    if digests[0] != digests[1]:
        fail(f"serve cache keys differ: {digests}")

    step("robust search and Monte-Carlo, batched vs looped")
    # 10 samples cap the Wilson z=1 lower bound at ~0.90, so the yield
    # target must sit below that for the tiny budget to be feasible.
    legs_agree("robust search", robust=RobustConfig(
        samples=10, cull_samples=4, seed=3, yield_target=0.80))
    outcomes = {}
    for label, engine, batched in BATCH_LEGS:
        with counting() as registry, batching(batched):
            outcomes[label] = monte_carlo_variation(
                problem, reference.design, samples=24, seed=0,
                engine=engine)
        expect_fired(registry.counter(BATCH_CALLS),
                     f"{BATCH_CALLS} of the {label} Monte-Carlo",
                     fired=batched)
        if outcomes[label] != outcomes["looped fast"]:
            fail(f"Monte-Carlo diverged:\n  looped fast: "
                 f"{outcomes['looped fast']}\n  {label}: {outcomes[label]}")

    step("BENCH_batch.json floors")
    bench = read_archive(REPO / "BENCH_batch.json", "bench_batch.py",
                         "grid_speedup", "robust_speedup",
                         "grid_speedup_floor", "robust_speedup_floor",
                         "cores")
    grid_x, robust_x = bench["grid_speedup"], bench["robust_speedup"]
    if bench["cores"] >= 2:
        expect_floor("grid speedup", grid_x, bench["grid_speedup_floor"])
        expect_floor("robust speedup", robust_x,
                     bench["robust_speedup_floor"])
    elif min(grid_x, robust_x) <= 1.0:
        fail(f"batching is not faster than the loop even on a loaded "
             f"single-core host (grid {grid_x:.2f}x, robust "
             f"{robust_x:.2f}x)")
    step(f"grid {grid_x:.2f}x, robust {robust_x:.2f}x (floors "
         f"{'enforced' if bench['cores'] >= 2 else 'waived on 1 core'})")


def case_incremental(jobs: int) -> None:
    problem = build_problem(CIRCUIT, 0.1)

    step(f"{CIRCUIT} annealing: fast vs incremental")
    def anneal(engine):
        return optimize_annealing(problem, settings=AnnealingSettings(
            passes=2, iterations_per_pass=250, seed=11, engine=engine))

    with counting() as registry:
        delta = anneal("incremental")
    expect_same("annealing, incremental vs fast", anneal("fast"), delta)
    expect_fired(registry.counter(INCREMENTAL_MOVES), INCREMENTAL_MOVES)

    step(f"{CIRCUIT} grid: pruned vs unpruned, serial and --jobs {jobs}")
    grid = HeuristicSettings(engine="fast", grid_vdd=9, grid_vth=7,
                             refine_iters=6, refine_rounds=1)
    plain = optimize_joint(problem, settings=grid)
    with counting() as registry:
        pruned = optimize_joint(problem, settings=dataclasses.replace(
            grid, prune=True))
    expect_same("pruned grid vs unpruned", plain, pruned, full=False)
    expect_same("pruned grid, serial vs pooled", pruned,
                pooled(problem, dataclasses.replace(grid, prune=True), jobs))
    expect_fired(registry.counter(PRUNED_CELLS), PRUNED_CELLS)
    expect_fired(pruned.details.get("pruned_cells", 0),
                 "details['pruned_cells']")
    if pruned.evaluations + pruned.details["prune_probes"] \
            >= plain.evaluations:
        fail(f"pruning was not a net saving: {pruned.evaluations} + "
             f"{pruned.details['prune_probes']} probes vs "
             f"{plain.evaluations} unpruned")

    step("benchmarks/results/incremental.json floors")
    archive = read_archive(REPO / "benchmarks" / "results"
                           / "incremental.json", "bench_incremental.py",
                           "delta_speedup", "delta_floor",
                           "anneal_speedups", "anneal_floor")
    expect_floor("archived delta-move speedup", archive["delta_speedup"],
                 archive["delta_floor"])
    expect_floor("archived c2670 annealing speedup",
                 archive["anneal_speedups"].get("c2670", 0.0),
                 archive["anneal_floor"])


def case_parallel(jobs: int) -> None:
    os.environ[CRASH_TASKS_ENV] = "first"
    plan = ParallelPlan(jobs=jobs, heartbeat_s=0.05)
    problem = build_problem(CIRCUIT, 0.1)
    design = optimize_fixed_vth(problem).design
    runs = (("table1", run_table1),
            (f"{CIRCUIT} Monte-Carlo ({SAMPLES} samples)",
             lambda: monte_carlo_variation(problem, design, samples=SAMPLES,
                                           seed=0)))
    for what, run in runs:
        step(f"{what}: serial vs --jobs {jobs} with a SIGKILLed worker")
        serial = run()
        with counting() as registry, use_parallel(plan):
            result = run()
        if result != serial:
            fail(f"{what} diverged:\n  serial: {serial}\n  pooled: {result}")
        expect_fired(registry.counter(POOL_WORKER_RESPAWNS),
                     f"{POOL_WORKER_RESPAWNS} of the pooled {what}")
        expect_fired(registry.counter(POOL_TASKS_RETRIED),
                     f"{POOL_TASKS_RETRIED} of the pooled {what}")


CASES: Dict[str, Callable[[int], None]] = {
    "search": case_search, "robust": case_robust, "batch": case_batch,
    "incremental": case_incremental, "parallel": case_parallel}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("case", choices=sorted(CASES))
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker-pool size of the pooled runs "
                             "(default 4)")
    args = parser.parse_args()
    print(f"check_identity {args.case} (--jobs {args.jobs})", flush=True)
    try:
        if not multiprocessing_available():
            fail("multiprocessing unavailable; the gate cannot exercise "
                 "the pool")
        CASES[args.case](args.jobs)
    except Divergence as error:
        print(f"check_identity {args.case}: {error}", file=sys.stderr)
        return 1
    print(f"check_identity {args.case}: identity holds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
