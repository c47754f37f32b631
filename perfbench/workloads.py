"""The benchmark's workloads and the output checks that hold for any seed.

Each workload turns the workload seed into the program's inputs, runs
the program through its public API one *unit* at a time (one optimizer
call with fresh inputs, or one served job), and checks every output
against an independent reference — never against a number recorded for
one seed. README.md beside this file says why each workload exists.

A labeled :class:`~repro.runtime.fallback.DegradedResult`, an
:class:`~repro.errors.InfeasibleError` or a served job that ends in any
state but DONE is a *failed* operation; a wrong output is an *error*.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.activity.profiles import uniform_profile
from repro.engine import make_engine
from repro.errors import InfeasibleError
from repro.netlist.benchmarks import (ISCAS85_LIKE_SPECS, ISCAS_LIKE_SPECS,
                                      PAPER_CIRCUITS)
from repro.netlist.generator import GeneratorSpec, generate_network
from repro.obs.metrics import MetricsRegistry
from repro.optimize import heuristic
from repro.optimize.annealing import AnnealingSettings, optimize_annealing
from repro.optimize.heuristic import HeuristicSettings
from repro.optimize.problem import OptimizationProblem
from repro.robust import RobustConfig
from repro.robust.estimator import estimate_design
from repro.robust.optimize import optimize_robust
from repro.runtime.fallback import DegradedResult
from repro.serve.jobs import DONE, JobRequest, problem_for, settings_for
from repro.serve.service import OptimizationService
from repro.technology.process import Technology
from repro.units import MHZ

from tracing import NullRecorder

#: Relative tolerance between the fast engines and the scalar reference.
ENERGY_RTOL = 1e-9
#: Uniform input transition density and signal probability.
ACTIVITY = 0.1
PROBABILITY = 0.5
#: Circuit of the discarded warm-up unit of the solver workloads.
WARM_UP_CIRCUIT = "s298"
#: serve_mix: the job catalogue (circuit x strategy), the activities its
#: misses draw from, and the stride of its cache hits.
SERVE_CIRCUITS = PAPER_CIRCUITS
SERVE_STRATEGIES = ("surrogate", "random")
SERVE_ACTIVITIES = (0.05, 0.1, 0.2)
HIT_EVERY = 3
#: Fresh builds timed per set-up sample of serve_mix: one build of a
#: Table 1 circuit takes 10-30 ms, too short for a steady single shot.
SERVE_SETUP_REPEATS = 8


def suite_spec(name: str, seed: Optional[int] = None) -> GeneratorSpec:
    """The generator spec of a suite circuit; ``seed`` replaces its own."""
    inputs, outputs, gates, depth, own_seed = {
        **ISCAS_LIKE_SPECS, **ISCAS85_LIKE_SPECS}[name]
    return GeneratorSpec(name=name, n_inputs=inputs, n_outputs=outputs,
                         n_gates=gates, depth=depth,
                         seed=own_seed if seed is None else seed)


def clock_for(depth: int) -> float:
    """Depth-scaled clock (300 MHz at depth 11), as in bench_scaling.py."""
    return 300 * MHZ * 11 / max(depth, 11)


def build_problem(spec: GeneratorSpec, engine: str, recorder):
    """Fresh generate + context + Procedure 1 + engine, uncached."""
    with recorder.span("netlist.generate"):
        network = generate_network(spec)
    with recorder.span("context.build"):
        profile = uniform_profile(network, probability=PROBABILITY,
                                  density=ACTIVITY)
        problem = OptimizationProblem.build(
            Technology.default(), network, profile,
            frequency=clock_for(network.depth))
    with recorder.span("timing.budgets"):
        budgets = problem.budgets()
    with recorder.span("engine.init"):
        make_engine(problem, engine)
    return problem, budgets


@dataclasses.dataclass
class Outcome:
    """What one timed unit did.

    Times are in seconds at the reference host speed (``clock.py``);
    ``op_wall_s`` is the operation's wall time as measured.
    """

    #: Set-up seconds (fresh inputs), or None when the unit has none.
    setup_s: Optional[float]
    #: Seconds of the operation a user waits for (solve or job).
    op_s: float
    op_wall_s: float
    #: Label of a failed operation (None when it succeeded).
    failure: Optional[str] = None
    #: Whether a served job was answered from the result cache.
    hit: bool = False


class SolverWorkload:
    """One optimizer call per unit, each on freshly built inputs."""

    #: Span name of the optimizer call in the traced run.
    solve_span = "solve"
    #: Fresh builds timed per set-up sample; the unit solves the first,
    #: and the sample is their mean.
    setup_repeats = 1

    def __init__(self, name: str, spec: GeneratorSpec, engine: str) -> None:
        self.name = name
        self.spec = spec
        self.engine = engine
        self.setup_samples: List[float] = []
        #: Nominal energies returned per input variant (one each).
        self.energies: Dict[int, set] = {}
        self.errors: List[str] = []

    # -- one unit ----------------------------------------------------------

    def variant(self, index: int) -> int:
        """The input variant unit number ``index`` solves."""
        return 0

    def solve(self, problem, budgets, variant: int):
        raise NotImplementedError

    def unit(self, recorder, clock, index: int) -> Outcome:
        """Build fresh inputs and solve input variant ``index``."""
        def build():
            built = build_problem(self.spec, self.engine, recorder)
            for _ in range(self.setup_repeats - 1):
                build_problem(self.spec, self.engine, recorder)
            return built

        def attempt():
            try:
                with recorder.span(self.solve_span):
                    return self.solve(problem, budgets, variant)
            except InfeasibleError as exc:
                return exc

        clock.calibrate()
        (problem, budgets), _, setup_s = clock.time(build)
        setup_s /= self.setup_repeats
        self.setup_samples.append(setup_s)
        variant = self.variant(index)
        result, op_wall_s, op_s = clock.time(attempt)
        if isinstance(result, InfeasibleError):
            return Outcome(setup_s, op_s, op_wall_s,
                           failure=f"InfeasibleError: {result}")
        if isinstance(result, DegradedResult):
            return Outcome(setup_s, op_s, op_wall_s, failure="degraded: "
                           f"{dict(result.degradation).get('stage')}")
        with recorder.span("check"):
            self.errors.extend(self.check(problem, result))
        self.energies.setdefault(variant, set()).add(result.total_energy)
        return Outcome(setup_s, op_s, op_wall_s)

    def warm_up(self) -> None:
        """One discarded unit on a small circuit: imports, lazy set-up."""
        problem, budgets = build_problem(suite_spec(WARM_UP_CIRCUIT),
                                         self.engine, NullRecorder())
        try:
            self.solve(problem, budgets, self.variant(0))
        except InfeasibleError:
            pass

    # -- checks ------------------------------------------------------------

    def check(self, problem, result) -> List[str]:
        return check_design(problem, result.design, result.total_energy)

    def finish(self) -> List[str]:
        """Cross-unit checks; returns every error seen in the run."""
        for key, energies in self.energies.items():
            if len(energies) > 1:
                self.errors.append(f"{self.name}: repetitions of input "
                                   f"{key} returned energies "
                                   f"{sorted(energies)}")
        return self.errors


def check_design(problem, design, energy: float) -> List[str]:
    """Re-evaluate ``design`` on the scalar reference path."""
    errors = []
    reference = design.evaluate_energy(problem).total
    if not math.isclose(reference, energy, rel_tol=ENERGY_RTOL, abs_tol=0.0):
        errors.append(f"{problem.network.name}: energy {energy!r} != "
                      f"scalar reference {reference!r}")
    delay = design.evaluate_timing(problem).critical_delay
    if not delay <= problem.cycle_time * (1.0 + ENERGY_RTOL):
        errors.append(f"{problem.network.name}: critical delay {delay!r} "
                      f"misses T_c {problem.cycle_time!r}")
    return errors


class JointWorkload(SolverWorkload):
    """Procedure 1 + 2 (``optimize_joint``) on the fast engine."""

    def __init__(self, name: str, spec: GeneratorSpec,
                 settings: HeuristicSettings):
        super().__init__(name, spec, settings.engine)
        self.settings = settings

    def solve(self, problem, budgets, variant: int):
        return heuristic.optimize_joint(problem, self.settings,
                                        budgets=budgets)


class RobustWorkload(SolverWorkload):
    """Yield-constrained p95 optimization (``optimize_robust``).

    Units rotate through ``seeds`` (Monte-Carlo and strategy seed): how
    many corners the cull stops early depends on the dies drawn, so one
    seed's solve costs up to a fifth more or less than another's, and a
    run's median over a fixed rotation is steadier than one seed's.
    """

    #: One s298 build takes 10-20 ms, too short for a steady single shot.
    setup_repeats = 10

    def __init__(self, name: str, spec: GeneratorSpec, config: RobustConfig,
                 settings: HeuristicSettings, seeds: Tuple[int, ...]):
        super().__init__(name, spec, settings.engine)
        self.config = config
        self.settings = settings
        self.seeds = seeds

    def variant(self, index: int) -> int:
        return self.seeds[index % len(self.seeds)]

    def solve(self, problem, budgets, variant: int):
        return optimize_robust(
            problem, dataclasses.replace(self.config, seed=variant),
            dataclasses.replace(self.settings, seed=variant),
            budgets=budgets)

    def check(self, problem, result) -> List[str]:
        errors = super().check(problem, result)
        errors.extend(check_verification(problem, result, self.config,
                                         self.engine))
        return errors


def check_verification(problem, result, config: RobustConfig,
                       engine: str) -> List[str]:
    """Re-run the recorded fresh-seed verification; it must reproduce."""
    recorded = result.details["robust"]["verification"]
    verification = dataclasses.replace(
        config, seed=recorded["seed"], cull_samples=config.samples,
        yield_margin_z=0.0)
    estimate = estimate_design(problem, result.design, verification,
                               engine=engine).to_dict()
    return [f"{problem.network.name}: verification {key} {recorded[key]!r}"
            f" != re-estimated {estimate[key]!r}"
            for key in ("p95", "timing_yield")
            if estimate[key] != recorded[key]]


class AnnealWorkload(SolverWorkload):
    """Simulated annealing on the incremental (delta-move) engine."""

    solve_span = "anneal"

    def __init__(self, name: str, spec: GeneratorSpec,
                 settings: AnnealingSettings):
        super().__init__(name, spec, settings.engine)
        self.settings = settings

    def solve(self, problem, budgets, variant: int):
        return optimize_annealing(problem, self.settings)


class ServeWorkload:
    """A closed loop of one client against an in-process service.

    The client submits a job, steps the service until the job is
    terminal, then submits the next. Every ``HIT_EVERY``-th job repeats
    an earlier successful request (a result-cache hit); the others are
    distinct requests that solve, flush the search checkpoint and fill
    the cache. Misses walk seed-shuffled passes over the catalogue
    (every circuit x strategy once per pass), so the mix of work is the
    same for every seed; the seed draws the order, the strategy seeds
    and the activities.
    """

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.catalogue = [(circuit, strategy) for circuit in SERVE_CIRCUITS
                          for strategy in SERVE_STRATEGIES]
        self.registry = MetricsRegistry()
        self.setup_samples: List[float] = []
        self.service = OptimizationService(workdir / "stream", pool_jobs=1,
                                           registry=self.registry)
        self._seen: set = set()
        #: Catalogue entries left in the current seed-shuffled pass.
        self._pass: List[Tuple[str, str]] = []
        self._requests = self._stream()
        #: (job id, request) of every DONE miss, in stream order.
        self.done_misses: List[Tuple[str, JobRequest]] = []
        #: (hit job id, first miss job id) of every cache hit.
        self.hits: List[Tuple[str, str]] = []
        self._miss_of: Dict[JobRequest, str] = {}
        self.queue_waits: List[float] = []
        self.errors: List[str] = []

    def _miss_request(self, circuit: str, strategy: str) -> JobRequest:
        while True:
            request = JobRequest(
                circuit=circuit, strategy=strategy, engine="fast",
                activity=self.rng.choice(SERVE_ACTIVITIES),
                seed=self.rng.randrange(2 ** 31))
            if request not in self._seen:
                self._seen.add(request)
                return request

    def _stream(self) -> Iterator[JobRequest]:
        for index in itertools.count(1):
            if index % HIT_EVERY == 0 and self.done_misses:
                yield self.rng.choice(self.done_misses)[1]
                continue
            if not self._pass:
                self._pass = list(self.catalogue)
                self.rng.shuffle(self._pass)
            yield self._miss_request(*self._pass.pop())

    def warm_up(self) -> None:
        """One discarded miss and its hit, on a throwaway root."""
        service = OptimizationService(self.workdir / "warm-up", pool_jobs=1)
        request = JobRequest(circuit=self.catalogue[0][0], engine="fast",
                             strategy=self.catalogue[0][1])
        for _ in range(2):
            job = service.submit(request)
            while not job.terminal:
                service.step()
        service.close()

    def unit(self, recorder, clock, index: int) -> Outcome:
        """Serve the stream's next job (``index`` is not used)."""
        request = next(self._requests)
        clock.calibrate()
        job, op_wall_s, op_s = clock.time(lambda: self._serve(request))
        _, _, setup_s = clock.time(
            lambda: self._setup(request.circuit, recorder))
        self.setup_samples.append(setup_s / SERVE_SETUP_REPEATS)
        hit = bool(job.detail.get("cached"))
        if job.state != DONE:
            return Outcome(None, op_s, op_wall_s, hit=hit,
                           failure=f"{job.job_id} ended {job.state}")
        if hit:
            first = self._miss_of.get(request)
            if first is None:
                self.errors.append(f"{job.job_id}: cache hit without a "
                                   "prior miss for its request")
            else:
                self.hits.append((job.job_id, first))
        else:
            self._miss_of.setdefault(request, job.job_id)
            self.done_misses.append((job.job_id, request))
        return Outcome(None, op_s, op_wall_s, hit=hit)

    def _serve(self, request: JobRequest):
        """Submit ``request`` and step the service until it is terminal."""
        job = self.service.submit(request)
        submitted = time.perf_counter()
        waited = None
        while not job.terminal:
            if waited is None:
                # One client: the next step takes the job at once.
                waited = time.perf_counter() - submitted
                self.queue_waits.append(waited)
            if not self.service.step():
                raise RuntimeError(f"{job.job_id} is {job.state} but the "
                                   "service queue is empty")
        return job

    def _setup(self, circuit: str, recorder) -> None:
        """What a fresh daemon pays before its first solve of ``circuit``.

        The circuit's inputs built uncached, as the solver workloads do,
        and a service constructed on a fresh root. One sample per job,
        spread over the run like the jobs themselves, each timing
        ``SERVE_SETUP_REPEATS`` such set-ups.
        """
        for repeat in range(SERVE_SETUP_REPEATS):
            build_problem(suite_spec(circuit), "fast", recorder)
            with recorder.span("serve.init"):
                OptimizationService(
                    self.workdir / f"setup-{len(self.setup_samples)}-{repeat}",
                    pool_jobs=1).close()

    def result_payload(self, job_id: str) -> Optional[dict]:
        path = self.service.root / "results" / f"{job_id}.json"
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            return None

    def finish(self) -> List[str]:
        self.errors.extend(check_hits(self.hits, self.result_payload))
        if self.done_misses:
            job_id, request = self.done_misses[0]
            self.errors.extend(check_resolve(
                request, self.result_payload(job_id)))
        self.service.close()
        return self.errors


def check_hits(hits, payload_of) -> List[str]:
    """Every hit's payload must equal its first miss's payload."""
    errors = []
    for hit_id, miss_id in hits:
        hit, miss = payload_of(hit_id), payload_of(miss_id)
        if hit is None or miss is None:
            errors.append(f"{hit_id}: missing cache payload "
                          f"(hit {hit is not None}, miss {miss is not None})")
        elif hit != miss:
            errors.append(f"{hit_id}: payload differs from its first miss "
                          f"{miss_id}")
    return errors


def check_resolve(request: JobRequest, payload: Optional[dict]) -> List[str]:
    """A served miss must equal the same request solved in-process."""
    if payload is None:
        return [f"{request.circuit}: served result payload missing"]
    served = payload["summary"]["total_energy"]
    reference = heuristic.optimize_joint(problem_for(request),
                                         settings_for(request)).total_energy
    if served != reference:
        return [f"{request.circuit}: served energy {served!r} != "
                f"in-process re-solve {reference!r}"]
    return []


def make_workload(name: str, seed: int, workdir: Path):
    """The named workload, generated from ``seed``."""
    if name == "joint_c5315":
        return JointWorkload(name, suite_spec("c5315", seed=seed),
                             HeuristicSettings(engine="fast"))
    if name == "robust_s298":
        # 80 % yield with a z=2 guard band: the fresh-seed verification
        # of the winner then met its target on every seed tried (0-103).
        # With RobustConfig's own 95 % / z=1 it missed on seed 12, and a
        # miss turns every unit of that run into a failed operation.
        return RobustWorkload(
            name, suite_spec("s298"),
            RobustConfig(yield_target=0.8, yield_margin_z=2.0),
            HeuristicSettings(strategy="surrogate", engine="batch"),
            seeds=tuple(8 * seed + offset for offset in range(8)))
    if name == "anneal_c2670":
        return AnnealWorkload(
            name, suite_spec("c2670"),
            AnnealingSettings(seed=seed, engine="incremental"))
    if name == "serve_mix":
        return ServeWorkload(name, seed, workdir)
    raise KeyError(name)


WORKLOAD_NAMES = ("joint_c5315", "robust_s298", "anneal_c2670", "serve_mix")
