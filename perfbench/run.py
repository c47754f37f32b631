"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload joint_c5315 --seed 5315 \
        --seconds 28 --trace 0
    python3 perfbench/run.py --workload all          # every workload

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer ones from a separate traced run. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). End-to-end times
are seconds at a reference host speed (``clock.py``); the lines before
the last give their wall-clock medians too. The exit code is 1
when an output check failed and 2 when the program cannot be found.
README.md beside this file explains the workloads and the layer map.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Pinned before numpy is imported: one BLAS/OpenMP thread, fixed str
#: hashing (PYTHONHASHSEED only takes effect at interpreter start, hence
#: the re-exec).
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _prepare() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {SRC}\n")
        sys.exit(2)
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(SRC))


if __name__ == "__main__":
    _prepare()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

#: Workload seeds used when ``--seed`` is not given; 5315 makes the
#: joint workload's circuit the suite's own c5315.
DEFAULT_SEEDS = {"joint_c5315": 5315, "robust_s298": 0, "anneal_c2670": 1,
                 "serve_mix": 0}
#: A run times at least this many units, so no end-to-end metric is a
#: single measurement.
MIN_UNITS = 3
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = (("setup_s", "s"), ("latency_p50_s", "s"),
              ("throughput_per_s", "1/s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("netlist.generate_ms", "ms"), ("context.build_ms", "ms"),
    ("timing.budgets_ms", "ms"), ("timing.budgeting_runs", "count"),
    ("engine.init_ms", "ms"),
    ("engine.size_widths.calls", "count"),
    ("engine.size_widths.p50_ms", "ms"), ("engine.size_widths.p90_ms", "ms"),
    ("engine.size_widths.share", "ratio"),
    ("engine.repairs_per_sizing", "ratio"),
    ("engine.sta.calls", "count"), ("engine.sta.p50_ms", "ms"),
    ("engine.total_energy.calls", "count"),
    ("engine.total_energy.p50_ms", "ms"),
    ("engine.measure_batch.calls", "count"),
    ("engine.measure_batch.rows_mean", "count"),
    ("engine.measure_batch.p50_ms", "ms"),
    ("engine.measure_batch.share", "ratio"),
    ("engine.apply_move.calls", "count"), ("engine.apply_move.p50_us", "us"),
    ("engine.apply_move.share", "ratio"),
    ("engine.cone_gates_per_move", "count"),
    ("engine.full_refreshes", "count"),
    ("search.evaluations", "count"), ("search.feasible_ratio", "ratio"),
    ("search.self_share", "ratio"),
    ("robust.samples", "count"), ("robust.cull_ratio", "ratio"),
    ("robust.sampler_share", "ratio"),
    ("anneal.moves", "count"), ("anneal.accept_ratio", "ratio"),
    ("anneal.self_share", "ratio"),
    ("checkpoint.flushes_per_miss", "count"),
    ("checkpoint.flush_p50_ms", "ms"), ("checkpoint.share", "ratio"),
    ("serve.cache.hit_ratio", "ratio"), ("serve.cache.get_p50_ms", "ms"),
    ("serve.cache.put_p50_ms", "ms"), ("serve.journal.append_p50_ms", "ms"),
    ("serve.journal.appends_per_job", "count"),
    ("serve.queue_wait_ms", "ms"), ("serve.miss_p50_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("machine.calibration_ms", "ms"), ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
)


def machine_record(seed: int) -> Dict[str, object]:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as stream:
            model = next((line.split(":", 1)[1].strip() for line in stream
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed}


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_units(workload, seconds: float, trace: bool):
    """Warm up, then time units until ``seconds`` would be exceeded.

    With ``trace`` every second unit runs traced (wrappers installed,
    counters on); the others give the untraced baseline of the
    tracing overhead. Each traced unit solves the same input variant as
    the untraced unit before it, so both halves cover the same inputs.
    """
    from clock import HostClock
    from repro.obs.metrics import MetricsRegistry, use_metrics
    from tracing import NullRecorder, SpanRecorder, installed

    workload.warm_up()
    clock = HostClock()
    recorder = SpanRecorder() if trace else NullRecorder()
    registry = MetricsRegistry()
    units: List[Tuple[object, bool]] = []
    #: Wall seconds of each whole unit, to stop the run in time.
    walls: List[float] = []
    peak_rss_mb = 0.0
    start = time.perf_counter()
    while len(units) < MIN_UNITS or (
            time.perf_counter() - start + median(walls) <= seconds):
        traced = trace and len(units) % 2 == 1
        index = len(units) // 2 if trace else len(units)
        unit_start = time.perf_counter()
        if traced:
            recorder.group = f"unit-{len(units)}"
            clock.recorder = recorder
            with installed(recorder), use_metrics(registry), \
                    recorder.span("unit"):
                outcome = workload.unit(recorder, clock, index)
            clock.recorder = NullRecorder()
        else:
            outcome = workload.unit(NullRecorder(), clock, index)
        walls.append(time.perf_counter() - unit_start)
        units.append((outcome, traced))
        # Free this unit's cyclic garbage now, outside any timed region,
        # so the next unit does not pay for it and peak RSS does not
        # depend on when the collector happened to run.
        gc.collect()
        if len(units) == MIN_UNITS:
            # Memory still grows with every unit (see README.md), so the
            # peak is read at a fixed unit count, not at the end of a run
            # whose length depends on the host's speed.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return units, recorder, registry, peak_rss_mb, clock.calibrations


def end_to_end(workload, units, peak_rss_mb: float) -> Dict[str, float]:
    done = [outcome for outcome, _ in units if outcome.failure is None]
    busy = sum((outcome.setup_s or 0.0) + outcome.op_s for outcome in done)
    return {
        "setup_s": median(workload.setup_samples),
        "latency_p50_s": median([outcome.op_s for outcome in done]),
        "throughput_per_s": len(done) / busy if busy else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(workload, units, recorder, registry,
              calibrations: List[float]) -> Dict[str, float]:
    from repro.obs import instrument as obs
    from tracing import SpanStats

    stats = SpanStats(recorder.spans)
    traced = [outcome for outcome, is_traced in units if is_traced]
    untraced = [outcome for outcome, is_traced in units if not is_traced]
    service_registry = getattr(workload, "registry", None)
    serve = service_registry is not None
    # The service counts into its own registry over the whole stream;
    # solver counters cover the traced units only.
    counters = (service_registry if serve else registry).counters()
    counted = len(units) if serve else max(len(traced), 1)
    per_unit = max(len(traced), 1)
    op_total = sum(outcome.op_s for outcome in traced) or 1.0

    def count(name: str) -> float:
        return counters.get(name, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def ms(name: str, q: float = 50.0) -> float:
        return stats.percentile(name, q) * 1e3

    batch_rows = registry.histogram(obs.BATCH_ROWS)
    misses = [outcome for outcome, _ in units if not outcome.hit]
    miss_traced = sum(outcome.op_s for outcome in traced if not outcome.hit)
    values = {
        "netlist.generate_ms": ms("netlist.generate"),
        "context.build_ms": ms("context.build"),
        "timing.budgets_ms": ms("timing.budgets"),
        "timing.budgeting_runs": count(obs.BUDGETING_RUNS) / counted,
        "engine.init_ms": ms("engine.init"),
        "engine.size_widths.calls": stats.calls("engine.size_widths")
        / per_unit,
        "engine.size_widths.p50_ms": ms("engine.size_widths"),
        "engine.size_widths.p90_ms": ms("engine.size_widths", 90.0),
        "engine.size_widths.share": stats.total("engine.size_widths")
        / op_total,
        "engine.repairs_per_sizing": ratio(count(obs.BUDGET_REPAIRS),
                                           count(obs.WIDTH_SIZINGS)),
        "engine.sta.calls": stats.calls("engine.sta") / per_unit,
        "engine.sta.p50_ms": ms("engine.sta"),
        "engine.total_energy.calls": stats.calls("engine.total_energy")
        / per_unit,
        "engine.total_energy.p50_ms": ms("engine.total_energy"),
        "engine.measure_batch.calls": stats.calls("engine.measure_batch")
        / per_unit,
        "engine.measure_batch.rows_mean": ratio(batch_rows.total,
                                                batch_rows.count)
        if batch_rows else 0.0,
        "engine.measure_batch.p50_ms": ms("engine.measure_batch"),
        "engine.measure_batch.share": stats.total("engine.measure_batch")
        / op_total,
        "engine.apply_move.calls": stats.calls("engine.apply_move")
        / per_unit,
        "engine.apply_move.p50_us": ms("engine.apply_move") * 1e3,
        "engine.apply_move.share": stats.total("engine.apply_move")
        / op_total,
        "engine.cone_gates_per_move": ratio(
            count(obs.INCREMENTAL_CONE_GATES), count(obs.INCREMENTAL_MOVES)),
        "engine.full_refreshes": count(obs.INCREMENTAL_FULL_REFRESHES)
        / counted,
        "search.evaluations": count(obs.OBJECTIVE_EVALUATIONS) / counted,
        "search.feasible_ratio": ratio(count(obs.FEASIBLE_POINTS),
                                       count(obs.OBJECTIVE_EVALUATIONS)),
        "search.self_share": stats.self_time["search"] / op_total,
        "robust.samples": count(obs.ROBUST_SAMPLES) / counted,
        "robust.cull_ratio": ratio(count(obs.ROBUST_CORNERS_CULLED),
                                   count(obs.ROBUST_ESTIMATES)),
        "robust.sampler_share": stats.self_time["robust.estimate"] / op_total,
        "anneal.moves": count(obs.ANNEALING_MOVES) / counted,
        "anneal.accept_ratio": ratio(count(obs.ANNEALING_ACCEPTS),
                                     count(obs.ANNEALING_MOVES)),
        "anneal.self_share": stats.self_time["anneal"] / op_total,
        "checkpoint.flushes_per_miss": ratio(count(obs.CHECKPOINT_FLUSHES),
                                             len(misses)) if serve else 0.0,
        "checkpoint.flush_p50_ms": ms("checkpoint.save"),
        "checkpoint.share": ratio(stats.total("checkpoint.save"),
                                  miss_traced),
        "serve.cache.hit_ratio": ratio(
            count(obs.SERVE_CACHE_HITS),
            count(obs.SERVE_CACHE_HITS) + count(obs.SERVE_CACHE_MISSES)),
        "serve.cache.get_p50_ms": ms("serve.cache.get"),
        "serve.cache.put_p50_ms": ms("serve.cache.put"),
        "serve.journal.append_p50_ms": ms("serve.journal.append"),
        "serve.journal.appends_per_job": stats.calls("serve.journal.append")
        / per_unit if serve else 0.0,
        "serve.queue_wait_ms": median(
            getattr(workload, "queue_waits", [])) * 1e3,
        "serve.miss_p50_ms": median([o.op_wall_s for o in misses]) * 1e3
        if serve else 0.0,
        "serve.hit_p50_ms": median(
            [o.op_wall_s for o, _ in units if o.hit]) * 1e3,
        "machine.calibration_ms": median(calibrations),
        "trace.overhead_share": ratio(
            median([o.op_s for o in traced]) - median(
                [o.op_s for o in untraced]),
            median([o.op_s for o in untraced])),
        "trace.unattributed_share": ratio(stats.self_time["unit"],
                                          stats.total("unit")),
    }
    return values


def self_time_report(recorder, units) -> List[str]:
    """Per-span self time, share of traced unit time, and calls/unit."""
    from tracing import SpanStats

    stats = SpanStats(recorder.spans)
    traced = max(sum(1 for _, is_traced in units if is_traced), 1)
    total = stats.total("unit") or 1.0
    lines = [f"{'span':28s} {'calls/unit':>11s} {'self ms/unit':>13s} "
             f"{'self share':>10s} {'p50 ms':>9s}"]
    for name, self_s in sorted(stats.self_time.items(),
                               key=lambda item: -item[1]):
        lines.append(f"{name:28s} {stats.calls(name) / traced:11.1f} "
                     f"{self_s * 1e3 / traced:13.2f} {self_s / total:10.3f} "
                     f"{stats.percentile(name, 50.0) * 1e3:9.3f}")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import make_workload

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workload = make_workload(name, seed, workdir)
    try:
        units, recorder, registry, peak_rss_mb, calibrations = run_units(
            workload, seconds, trace)
        errors = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine = dict(machine_record(seed), workload=name, calibration_ms=[
        round(value, 3) for value in statistics.quantiles(
            calibrations, n=4)])
    failures = [outcome.failure for outcome, _ in units if outcome.failure]
    if len(failures) == len(units):
        errors.append("no operation succeeded")
    if trace:
        values = per_layer(workload, units, recorder, registry,
                           calibrations)
        units_of = dict(PER_LAYER)
    else:
        values = end_to_end(workload, units, peak_rss_mb)
        units_of = dict(END_TO_END)
    metrics = {key: {"value": value, "unit": units_of[key]}
               for key, value in values.items()}
    result = {"correct": not errors, "attempted": len(units),
              "failed": len(failures), "metrics": metrics}

    print(f"machine {json.dumps(machine, sort_keys=True)}")
    kinds = "traced/untraced" if trace else "units"
    print(f"{name}: {len(units)} {kinds} "
          f"({sum(1 for _, t in units if t)} traced), "
          f"{len(failures)} failed, seed {seed}")
    print("  unit wall seconds: " + " ".join(
        f"{outcome.op_wall_s:.3f}{'t' if is_traced else ''}"
        for outcome, is_traced in units))
    print("  unit reference seconds: " + " ".join(
        f"{outcome.op_s:.3f}{'t' if is_traced else ''}"
        for outcome, is_traced in units))
    print("  wall-clock latency_p50_s " + str(median(
        [o.op_wall_s for o, _ in units if o.failure is None])))
    for failure in failures:
        print(f"  failed: {failure}")
    for error in errors:
        print(f"  INCORRECT: {error}")
    if trace:
        print("\n".join(self_time_report(recorder, units)))
        recorder.write(OUT_DIR / f"{name}-seed{seed}-spans.jsonl")
    for key, metric in metrics.items():
        print(f"  {key:32s} {metric['value']:14.6g} {metric['unit']}")
    with open(OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json",
              "w") as stream:
        json.dump({"machine": machine, **result}, stream, indent=1)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def run_all(seed: Optional[int], seconds: float, trace: bool) -> int:
    """Every workload, each in its own process; one combined result."""
    from workloads import WORKLOAD_NAMES

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seconds", str(seconds),
                   "--trace", str(int(trace))]
        if seed is not None:
            command += ["--seed", str(seed)]
        completed = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True, check=False)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0,
                      "metrics": {}}
        combined["correct"] &= bool(result["correct"])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    from workloads import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    return run_workload(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
