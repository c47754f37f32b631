"""CI gate: batched evaluation is a pure execution detail.

Usage::

    python ci/check_batch_parity.py [--jobs 4]

The array engine (``engine="fast"``, also named ``"batch"``) evaluates
grid rounds, robust dies and Monte-Carlo samples in batches. Five
assertions on s27 compare its batched runs, under both names, against
the *looped* reference: the same engine with ``supports_batch`` patched
to False, so every row goes through the single-design calls.

1. **Grid identity** — the grid search lands on the identical design
   (point, widths, energy, evaluation count), and the checkpoint files
   the runs write are **byte-identical** (``"batch"`` fingerprints as
   ``"fast"``, so the files are interchangeable).
2. **Jobs invariance** — the same holds at ``--jobs N`` on the worker
   pool, batched and looped, against the serial looped reference.
3. **Serve cache keys** — ``request_fingerprint`` digests (and the
   checkpoint fingerprints they extend) are equal for ``"fast"`` and
   ``"batch"`` requests: a cached result satisfies either name.
4. **Robust + Monte-Carlo identity** — a robust (yield-constrained)
   search and a Monte-Carlo sweep produce identical outcomes (and
   robust checkpoint bytes) through the batched die/sample stages.
5. **Benchmark floors** — ``BENCH_batch.json`` is present, well formed,
   and (when it was measured on >= 2 cores) meets the speedup floors it
   declares.

The gate also proves that the batched path actually ran
(``engine.batch.calls`` > 0 on every batched run) and that the
reference did not (``engine.batch.calls`` == 0) — parity of a loop with
itself would prove nothing.

Exits nonzero with a one-line diagnosis on any divergence.
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
from typing import NoReturn

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_batch.json"

REFERENCE = dict(grid_vdd=13, grid_vth=11, refine_iters=6, refine_rounds=1)

#: (label, engine name, batched): the looped reference first.
LEGS = (("looped fast", "fast", False), ("batched fast", "fast", True),
        ("batched batch", "batch", True))


def fail(message: str) -> NoReturn:
    print(f"check_batch_parity: {message}", file=sys.stderr)
    raise SystemExit(1)


def _same(lhs, rhs) -> bool:
    return (lhs.design.vdd == rhs.design.vdd
            and lhs.design.vth == rhs.design.vth
            and lhs.design.widths == rhs.design.widths
            and lhs.energy.total == rhs.energy.total
            and lhs.evaluations == rhs.evaluations)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args()

    from repro.activity.profiles import uniform_profile
    from repro.analysis.montecarlo import monte_carlo_variation
    from repro.engine.array import ArrayEngine
    from repro.netlist.benchmarks import benchmark_circuit
    from repro.obs.instrument import BATCH_CALLS
    from repro.obs.metrics import MetricsRegistry, use_metrics
    from repro.optimize.heuristic import HeuristicSettings, optimize_joint
    from repro.optimize.problem import OptimizationProblem
    from repro.robust.config import RobustConfig
    from repro.runtime.controller import RunController
    from repro.runtime.pool import multiprocessing_available
    from repro.runtime.supervisor import ParallelPlan
    from repro.serve.jobs import JobRequest, request_fingerprint, \
        search_fingerprint_for
    from repro.technology.process import Technology
    from repro.units import MHZ

    network = benchmark_circuit("s27")
    profile = uniform_profile(network, probability=0.5, density=0.1)
    problem = OptimizationProblem.build(Technology.default(), network,
                                        profile, frequency=300 * MHZ)

    @contextlib.contextmanager
    def batching(enabled):
        """Batched runs, or the looped reference: the array engine
        without its batched path."""
        ArrayEngine.supports_batch = enabled
        try:
            yield
        finally:
            ArrayEngine.supports_batch = True

    def run(engine, *, checkpoint=None, batched=True, **overrides):
        """One search; asserts whether the batched kernels ran."""
        settings = HeuristicSettings(engine=engine, **REFERENCE, **overrides)
        if checkpoint is not None:
            settings = dataclasses.replace(settings, controller=RunController(
                checkpoint_path=checkpoint))
        registry = MetricsRegistry()
        with use_metrics(registry), batching(batched):
            result = optimize_joint(problem, settings=settings)
        calls = registry.counter(BATCH_CALLS)
        if batched and calls < 1:
            fail(f"the batched {engine} run never entered a batched kernel "
                 f"({BATCH_CALLS} == 0); parity of the fallback loop "
                 "proves nothing")
        if not batched and calls:
            fail(f"the looped reference batched ({BATCH_CALLS} == "
                 f"{calls}); it must run the single-design calls")
        return result

    def runs(tmp, **overrides):
        """The looped reference and the batched runs under both names,
        each with its checkpoint bytes."""
        results = {}
        for label, engine, batched in LEGS:
            path = Path(tmp) / f"{label.replace(' ', '-')}.ckpt"
            result = run(engine, checkpoint=path, batched=batched,
                         **overrides)
            results[label] = (result, path.read_bytes())
        return results

    print("[1/5] grid identity and checkpoint bytes, batched vs looped")
    with tempfile.TemporaryDirectory() as tmp:
        grid = runs(tmp)
    reference, reference_bytes = grid.pop("looped fast")
    for label, (result, ckpt_bytes) in grid.items():
        if not _same(reference, result):
            fail(f"grid diverged: {label} {result.design.vdd}/"
                 f"{result.design.vth} ({result.evaluations} evals) vs "
                 f"looped {reference.design.vdd}/{reference.design.vth} "
                 f"({reference.evaluations} evals)")
        if ckpt_bytes != reference_bytes:
            fail(f"checkpoint files differ between {label} and looped "
                 "fast — the runs are not interchangeable on resume")

    print(f"[2/5] jobs invariance at --jobs {args.jobs}, batched and "
          "looped")
    if not multiprocessing_available():
        fail("multiprocessing unavailable; the parity gate cannot "
             "exercise the pool")
    plan = ParallelPlan(jobs=args.jobs, heartbeat_s=0.05)
    for label, engine, batched in LEGS:
        with batching(batched):
            pooled = optimize_joint(problem, settings=HeuristicSettings(
                engine=engine, parallel=plan, **REFERENCE))
        if not _same(reference, pooled):
            fail(f"{label} diverged between serial and --jobs "
                 f"{args.jobs}")

    print("[3/5] serve cache keys equal for fast and batch requests")
    requests = {engine: JobRequest(circuit="s27", engine=engine,
                                   **REFERENCE)
                for engine in ("fast", "batch")}
    prints = {engine: search_fingerprint_for(request)
              for engine, request in requests.items()}
    if prints["fast"] != prints["batch"]:
        fail(f"checkpoint fingerprints differ: {prints}")
    digests = {engine: request_fingerprint(request)[1]
               for engine, request in requests.items()}
    if digests["fast"] != digests["batch"]:
        fail(f"serve cache keys differ: {digests}")

    print("[4/5] robust search and Monte-Carlo identity")
    # 10 samples cap the Wilson z=1 lower bound at ~0.90, so the yield
    # target must sit below that for the tiny CI budget to be feasible.
    robust = RobustConfig(samples=10, cull_samples=4, seed=3,
                          yield_target=0.80)
    with tempfile.TemporaryDirectory() as tmp:
        robust_runs = runs(tmp, robust=robust)
    robust_ref, robust_bytes = robust_runs.pop("looped fast")
    for label, (result, ckpt_bytes) in robust_runs.items():
        if not _same(robust_ref, result):
            fail(f"robust search diverged between {label} and looped fast")
        if ckpt_bytes != robust_bytes:
            fail(f"robust checkpoints differ between {label} and looped "
                 "fast — per-corner robust stats are not batch-invariant")

    def monte_carlo(engine, batched):
        registry = MetricsRegistry()
        with use_metrics(registry), batching(batched):
            outcome = monte_carlo_variation(problem, reference.design,
                                            samples=24, seed=0,
                                            engine=engine)
        if bool(registry.counter(BATCH_CALLS)) != batched:
            fail(f"monte-carlo on {engine} (batched={batched}) booked "
                 f"{registry.counter(BATCH_CALLS)} batched calls")
        return outcome

    looped_mc = monte_carlo("fast", False)
    for engine in ("fast", "batch"):
        batched_mc = monte_carlo(engine, True)
        if batched_mc != looped_mc:
            fail(f"monte-carlo diverged:\n  looped fast:  {looped_mc}\n"
                 f"  batched {engine}: {batched_mc}")

    print("[5/5] BENCH_batch.json floors")
    if not BENCH_PATH.exists():
        fail(f"{BENCH_PATH} missing — run benchmarks/bench_batch.py")
    bench = json.loads(BENCH_PATH.read_text())
    for key in ("grid_speedup", "robust_speedup", "grid_speedup_floor",
                "robust_speedup_floor", "cores"):
        if key not in bench:
            fail(f"BENCH_batch.json missing {key!r}")
    grid_x, robust_x = bench["grid_speedup"], bench["robust_speedup"]
    if bench["cores"] >= 2:
        if grid_x < bench["grid_speedup_floor"]:
            fail(f"grid speedup {grid_x:.2f}x is below the "
                 f"{bench['grid_speedup_floor']}x floor")
        if robust_x < bench["robust_speedup_floor"]:
            fail(f"robust speedup {robust_x:.2f}x is below the "
                 f"{bench['robust_speedup_floor']}x floor")
    elif min(grid_x, robust_x) <= 1.0:
        fail(f"batching is not faster than the loop even on a loaded "
             f"single-core host (grid {grid_x:.2f}x, robust "
             f"{robust_x:.2f}x)")

    print(f"batch parity holds: batched == looped grid/robust/MC results, "
          f"byte-identical checkpoints, equal cache keys, "
          f"grid {grid_x:.2f}x / robust {robust_x:.2f}x "
          f"(floors {'enforced' if bench['cores'] >= 2 else 'waived on 1 core'})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
