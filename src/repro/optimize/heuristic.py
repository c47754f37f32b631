"""Procedure 2: the joint (Vdd, Vth, widths) heuristic (§4.3).

All searches over the (Vdd, Vth) plane share the same inner loop
(Procedure 1 budgets + minimum-width sizing, see
:mod:`repro.optimize.width_search`) and the same objective (total energy
per cycle, eqs. A1 + A2). Which corners get evaluated is pluggable
behind the :mod:`repro.search` strategy seam:

* ``"grid"`` (default) — a coarse exhaustive grid over the plane
  followed by coordinate-descent ternary refinement around the best
  cell. Deterministic, never misses the global basin at grid
  resolution, and is what the experiments use.
  :class:`repro.search.grid.GridStrategy` is the exact pre-seam scan
  (PR 5 bound pruning included), bit-identical serial and sharded.
* ``"random"`` / ``"surrogate"`` / ``"hyperband"`` — budgeted adaptive
  samplers (uniform counter-seeded sampling; quadratic response surface
  seeded from the closed-form lower bounds; successive halving over
  annealing hyperparameters). Each ends with one refinement pass and is
  held to the grid argmin's energy by the parity harness
  (``tests/test_search_parity.py``) at a fraction of the evaluations.
* ``"paper"`` — the published nested binary search: M bisection steps
  on ``Vdd``, M on ``Vth``, range halving steered by feasibility and
  energy improvement, exactly as in the Procedure 2 pseudocode. It
  steers per evaluation (no round structure to shard), so it stays a
  dedicated code path rather than a seam strategy. The ablation bench
  (``benchmarks/bench_ablation_search.py``) compares it to the grid.

The returned design is always re-verified with a full STA pass at the
chosen point; the Procedure 1 + minimum-width construction guarantees the
verification passes (budget sums bound every path by ``b * T_c``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.engine import (ENGINE_CHOICES, fingerprint_engine_name,
                          resolve_engine_name)
from repro.errors import InfeasibleError, OptimizationError
from repro.obs import trace
from repro.obs.instrument import WARM_START_SKIPPED
from repro.obs.logs import get_logger
from repro.obs.metrics import current_metrics
from repro.optimize.problem import (
    DesignPoint,
    OptimizationProblem,
    OptimizationResult,
)
from repro.power.energy import total_energy
from repro.robust.config import RobustConfig
from repro.robust.objective import (RobustEvaluator, corner_key,
                                    robust_details)
from repro.runtime.checkpoint import CHECKPOINT_EVERY, SearchCheckpoint
from repro.runtime.controller import RunController, resolve_controller
from repro.runtime.supervisor import ParallelPlan, resolve_parallel
from repro.search import (STRATEGY_CHOICES, make_strategy, run_search,
                          search_config)
# Re-exported here for backward compatibility: the grid internals grew
# up in this module before moving to the strategy package.
from repro.search.grid import (grid_cells as _grid_cells,
                               grid_lower_bounds as _grid_lower_bounds,
                               linspace as _linspace,
                               prune_cells as _prune_cells)
from repro.timing.budgeting import BudgetResult
from repro.timing.sta import analyze_timing

logger = get_logger("optimize.heuristic")


@dataclass(frozen=True)
class HeuristicSettings:
    """Tuning knobs of Procedure 2."""

    strategy: str = "grid"
    #: Adaptive strategies (random/surrogate/hyperband): total objective
    #: evaluations to spend before the final refinement pass (None =
    #: per-strategy default, see :data:`repro.search.DEFAULT_BUDGETS`)
    #: and the RNG seed of the counter-seeded proposal streams.
    search_budget: Optional[int] = None
    seed: int = 0
    #: Paper strategy: bisection steps per voltage loop (the paper's M).
    m_steps: int = 12
    #: Grid strategy: grid resolution on each axis.
    grid_vdd: int = 15
    grid_vth: int = 13
    #: Grid strategy: ternary-refinement iterations per coordinate pass.
    refine_iters: int = 18
    #: Coordinate-descent passes after the grid.
    refine_rounds: int = 2
    #: Width solver: "closed_form" (exact) or "bisect" (paper-faithful).
    width_method: str = "closed_form"
    #: Evaluation engine: "scalar" (reference), "fast" (vectorized
    #: NumPy, budget repair included — equivalent to float round-off;
    #: grid rounds are evaluated as one batch, and "batch" is an alias),
    #: "incremental" (fast plus delta moves, for the annealer), or
    #: "auto" (honor :func:`repro.engine.use_engine` / the
    #: ``REPRO_ENGINE`` environment variable, defaulting to "scalar").
    engine: str = "auto"
    #: Grid strategy: skip cells whose admissible closed-form lower
    #: bound (dynamic energy at all-minimum widths + leakage floor,
    #: vectorized pre-pass) exceeds the best energy found by a few probe
    #: evaluations. The bound is a true lower bound on any feasible
    #: sizing's energy, so pruning never changes the argmin — the CI
    #: parity gate (``ci/check_identity.py incremental``) proves the
    #: pruned and unpruned scans pick the identical cell at any
    #: ``--jobs`` count. Costs ``prune_probes + 1`` extra sizings
    #: (probed cells are re-evaluated in scan order so the best-point
    #: trajectory is untouched).
    prune: bool = False
    prune_probes: int = 8
    #: Bisect-only: seed each cell's per-gate bisection brackets from
    #: the nearest already-solved cell (the previous feasible evaluation
    #: — grid scans visit adjacent cells consecutively). Changes the
    #: bisection discretization (within solver tolerance, not
    #: bit-identical), so it is opt-in, excluded from the cross-engine
    #: parity gates, and forces the grid phase serial.
    warm_start: bool = False
    #: Optional search-range overrides (defaults: technology bounds).
    vdd_range: Optional[Tuple[float, float]] = None
    vth_range: Optional[Tuple[float, float]] = None
    #: Optional run control (deadline/cancel/progress/checkpointing).
    #: When None, the ambient controller installed via
    #: :func:`repro.runtime.use_controller` applies, if any.
    controller: Optional[RunController] = None
    #: Optional parallel execution of the grid phase on the supervised
    #: worker pool. When None, the ambient plan installed via
    #: :func:`repro.runtime.use_parallel` applies, if any. Results are
    #: jobs-invariant: the grid cells are pure shard functions and the
    #: merge is canonical, so any jobs count (with or without worker
    #: crashes) yields the serial design. Only the ``"grid"`` strategy
    #: shards; the paper bisection and the refinement are sequential by
    #: construction.
    parallel: Optional[ParallelPlan] = None
    #: Optional statistical objective: when set, every corner is scored
    #: by the configured risk measure (mean/p95/CVaR energy under Vth
    #: variation) with the timing-yield target enforced as feasibility
    #: (see :mod:`repro.robust`). The resolved config joins the
    #: checkpoint fingerprint, so nominal and robust searches can never
    #: share a checkpoint or a serve cache slot.
    robust: Optional[RobustConfig] = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGY_CHOICES + ("paper",):
            raise OptimizationError(f"unknown strategy {self.strategy!r}")
        for name in ("search_budget", "m_steps", "grid_vdd", "grid_vth",
                     "refine_iters", "refine_rounds", "prune_probes"):
            value = getattr(self, name)
            if value is None and name == "search_budget":
                continue
            if isinstance(value, bool) \
                    or not isinstance(value, numbers.Integral):
                raise OptimizationError(
                    f"{name} must be an integer, got {value!r}")
        if self.search_budget is not None and self.search_budget < 1:
            raise OptimizationError(
                f"search_budget must be >= 1, got {self.search_budget}")
        if self.m_steps < 2:
            raise OptimizationError(f"m_steps must be >= 2, got {self.m_steps}")
        if self.grid_vdd < 2 or self.grid_vth < 2:
            raise OptimizationError("grid must be at least 2x2")
        if min(self.refine_iters, self.refine_rounds) < 0:  # 0 = skip
            raise OptimizationError(
                f"refine_iters and refine_rounds must be >= 0, got "
                f"{self.refine_iters} and {self.refine_rounds}")
        if self.engine not in ENGINE_CHOICES:
            raise OptimizationError(f"unknown engine {self.engine!r}")
        if self.prune_probes < 1:
            raise OptimizationError(
                f"prune_probes must be >= 1, got {self.prune_probes}")


@dataclass
class _SearchState:
    """Mutable bookkeeping shared by the search strategies."""

    best_energy: float = math.inf
    best_point: Optional[Tuple[float, float]] = None
    best_widths: Optional[Mapping[str, float]] = None
    evaluations: int = 0
    feasible_points: int = 0
    #: Robust searches: per-corner estimate records (sample counters,
    #: yield CI), keyed by :func:`repro.robust.objective.corner_key`.
    robust_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)


def _make_objective(problem: OptimizationProblem, budgets: BudgetResult,
                    settings: HeuristicSettings,
                    state: _SearchState,
                    engine_name: str = "auto",
                    energy_vth_bias: Callable[[float], float] | None = None,
                    delay_vth_bias: Callable[[float], float] | None = None,
                    warm_starts: Optional[bool] = None,
                    ) -> Callable[[float, float], float]:
    """Objective: total energy at (vdd, vth), inf when sizing fails.

    A thin wrapper over the shared :class:`repro.engine.Evaluator` (the
    single evaluate-loop implementation, on whichever engine
    ``engine_name`` names) that tracks the running best in ``state``.
    The two bias hooks let the variation-aware optimizer evaluate delay
    at the slow-corner threshold and leakage at the leaky-corner
    threshold while the search variable remains the nominal Vth
    (Figure 2a).
    """
    if warm_starts is None:
        warm_starts = settings.warm_start
    evaluator = problem.evaluator(budgets, engine_name,
                                  width_method=settings.width_method,
                                  delay_vth_bias=delay_vth_bias,
                                  energy_vth_bias=energy_vth_bias,
                                  warm_starts=warm_starts)
    if settings.robust is not None:
        evaluator = RobustEvaluator(evaluator, settings.robust,
                                    stats=state.robust_stats)

    def objective(vdd: float, vth: float) -> float:
        state.evaluations += 1
        evaluation = evaluator(vdd, vth)
        if evaluation.feasible:
            state.feasible_points += 1
            if evaluation.energy < state.best_energy:
                state.best_energy = evaluation.energy
                state.best_point = (vdd, vth)
                state.best_widths = evaluation.widths_map()
        return evaluation.energy

    # Batch-capable engines pre-evaluate whole strategy rounds through
    # this hook (a no-op elsewhere); the per-corner calls then consume
    # the cache with identical results and counters.
    objective.prefetch = evaluator.prefetch
    objective.engine = evaluator.engine
    return objective


def _ranges(problem: OptimizationProblem,
            settings: HeuristicSettings) -> Tuple[Tuple[float, float],
                                                  Tuple[float, float]]:
    tech = problem.tech
    vdd_range = settings.vdd_range or (tech.vdd_min, tech.vdd_max)
    vth_range = settings.vth_range or (tech.vth_min, tech.vth_max)
    if vdd_range[0] >= vdd_range[1] or vth_range[0] >= vth_range[1]:
        raise OptimizationError(
            f"bad search ranges vdd={vdd_range}, vth={vth_range}")
    return vdd_range, vth_range


def _ternary_min(function: Callable[[float], float], low: float, high: float,
                 iterations: int) -> float:
    """Ternary search for the minimizer of a (near) unimodal function."""
    for _ in range(iterations):
        third = (high - low) / 3.0
        left = low + third
        right = high - third
        if function(left) <= function(right):
            high = right
        else:
            low = left
    return 0.5 * (low + high)


def _refine(objective: Callable[[float, float], float], state: _SearchState,
            vdd_range: Tuple[float, float], vth_range: Tuple[float, float],
            settings: HeuristicSettings) -> None:
    """Coordinate-descent ternary refinement around the best grid cell."""
    if state.best_point is None:
        return
    vdd_step = (vdd_range[1] - vdd_range[0]) / (settings.grid_vdd - 1)
    vth_step = (vth_range[1] - vth_range[0]) / (settings.grid_vth - 1)
    for _ in range(settings.refine_rounds):
        vdd_best, vth_best = state.best_point
        low = max(vdd_range[0], vdd_best - vdd_step)
        high = min(vdd_range[1], vdd_best + vdd_step)
        vdd_candidate = _ternary_min(
            lambda vdd: objective(vdd, state.best_point[1]),
            low, high, settings.refine_iters)
        objective(vdd_candidate, state.best_point[1])
        vdd_best, vth_best = state.best_point
        low = max(vth_range[0], vth_best - vth_step)
        high = min(vth_range[1], vth_best + vth_step)
        vth_candidate = _ternary_min(
            lambda vth: objective(state.best_point[0], vth),
            low, high, settings.refine_iters)
        objective(state.best_point[0], vth_candidate)


#: Pattern-search step halvings before the descent stops; six halvings
#: of the initial quarter-span step leave ~0.4% resolution per axis,
#: matching what the grid's local refinement achieves.
_DESCEND_SHRINKS = 6


def _descend(objective: Callable[[float, float], float],
             state: _SearchState,
             vdd_range: Tuple[float, float],
             vth_range: Tuple[float, float]) -> None:
    """Feasibility-frontier descent from an adaptive strategy's best.

    The energy minimum lives in a *diagonal* valley: dynamic energy
    pulls Vdd toward the feasibility frontier, but hugging the frontier
    blows the widths (and with them the capacitance) up, so the optimum
    sits where Vdd and Vth rise together off the wall. Coordinate-wise
    ternary refinement stalls on such valleys, so the descent is a
    Hooke-Jeeves pattern search: exploratory ±step probes per axis pick
    a downhill move, and each accepted move is followed by a *pattern*
    (momentum) step that doubles down along the achieved direction —
    which is what lets the walk track the diagonal. When no probe
    improves, the step halves; after ``_DESCEND_SHRINKS`` halvings the
    resolution is ~0.4% of each axis span and the search stops.
    Deterministic in ``state.best_point`` and driven through
    ``objective`` like every other phase, so checkpoint replay and
    resume-identity work unchanged. Infeasible probes read as +inf and
    simply never attract a move.
    """
    if state.best_point is None:
        # No feasible sample in budget: probe the fastest corners the
        # way the prune pre-pass does, so the descent has a start.
        objective(vdd_range[1], 0.5 * (vth_range[0] + vth_range[1]))
        if state.best_point is None:
            objective(vdd_range[1], vth_range[0])
        if state.best_point is None:
            return
    ranges = (vdd_range, vth_range)

    def clipped(point: Tuple[float, float], axis: int,
                delta: float) -> Tuple[float, float]:
        moved = list(point)
        moved[axis] = min(max(moved[axis] + delta, ranges[axis][0]),
                          ranges[axis][1])
        return (moved[0], moved[1])

    def explore(point: Tuple[float, float], value: float,
                steps: List[float]) -> Tuple[Tuple[float, float], float]:
        for axis in range(2):
            for sign in (1.0, -1.0):
                probe = clipped(point, axis, sign * steps[axis])
                if probe[axis] == point[axis]:
                    continue  # clipped onto the boundary: no move
                energy = objective(*probe)
                if energy < value:
                    point, value = probe, energy
                    break
        return point, value

    steps = [0.25 * (vdd_range[1] - vdd_range[0]),
             0.25 * (vth_range[1] - vth_range[0])]
    base = state.best_point
    base_energy = state.best_energy
    shrinks = 0
    while shrinks < _DESCEND_SHRINKS:
        point, value = explore(base, base_energy, steps)
        if value >= base_energy:
            steps = [0.5 * step for step in steps]
            shrinks += 1
            continue
        previous, base, base_energy = base, point, value
        pattern = (min(max(2.0 * base[0] - previous[0], vdd_range[0]),
                       vdd_range[1]),
                   min(max(2.0 * base[1] - previous[1], vth_range[0]),
                       vth_range[1]))
        pattern_energy = objective(*pattern)
        if pattern_energy < base_energy:
            point, value = explore(pattern, pattern_energy, steps)
            if value < base_energy:
                base, base_energy = point, value


def _paper_search(objective: Callable[[float, float], float],
                  state: _SearchState,
                  vdd_range: Tuple[float, float],
                  vth_range: Tuple[float, float],
                  settings: HeuristicSettings) -> None:
    """The published feasibility/improvement-steered nested bisection."""
    vdd_low, vdd_high = vdd_range
    previous_outer_best = math.inf
    for _ in range(settings.m_steps):
        vdd = 0.5 * (vdd_low + vdd_high)
        vth_low, vth_high = vth_range
        inner_best = math.inf
        previous_inner_best = math.inf
        for _ in range(settings.m_steps):
            vth = 0.5 * (vth_low + vth_high)
            energy = objective(vdd, vth)
            improved = energy < previous_inner_best
            if improved:
                previous_inner_best = energy
                inner_best = min(inner_best, energy)
            if math.isfinite(energy) and improved:
                # Feasible and improving: raise Vth to shave more leakage.
                vth_low = vth
            else:
                vth_high = vth
        if math.isfinite(inner_best) and inner_best < previous_outer_best:
            previous_outer_best = inner_best
            # Feasible and improving: push the supply further down.
            vdd_high = vdd
        else:
            vdd_low = vdd


def _search_fingerprint(problem: OptimizationProblem,
                        settings: HeuristicSettings,
                        vdd_range: Tuple[float, float],
                        vth_range: Tuple[float, float],
                        engine_name: str) -> Dict[str, object]:
    """Identity of a search for checkpoint validation.

    Two searches with equal fingerprints perform the identical
    deterministic evaluation sequence, which is what makes corner-level
    resume exact; any field differing makes a checkpoint unusable. The
    engine is recorded by its *resolved* name — ``engine="auto"`` under
    ``REPRO_ENGINE=fast`` fingerprints as ``"fast"`` — so a resumed run
    can never silently switch engines. The ``search`` entry is the
    resolved strategy config (:func:`repro.search.search_config` — name,
    budget, seed, shape knobs), so a checkpoint — and, downstream, a
    serve cache entry keyed off this same fingerprint — can never cross
    strategies silently.
    """
    return {
        "search": search_config(settings),
        "network": problem.network.name,
        "gate_count": problem.network.gate_count,
        "frequency_hz": problem.frequency,
        "skew_factor": problem.skew_factor,
        "strategy": settings.strategy,
        "m_steps": settings.m_steps,
        "grid_vdd": settings.grid_vdd,
        "grid_vth": settings.grid_vth,
        "refine_iters": settings.refine_iters,
        "refine_rounds": settings.refine_rounds,
        "width_method": settings.width_method,
        # Canonicalized: "batch" is an alias of "fast", so their
        # checkpoints (and serve cache entries, which reuse this
        # fingerprint) are interchangeable.
        "engine": fingerprint_engine_name(engine_name),
        "prune": settings.prune,
        "prune_probes": settings.prune_probes,
        "warm_start": settings.warm_start,
        "vdd_range": list(vdd_range),
        "vth_range": list(vth_range),
        "robust": (settings.robust.resolved()
                   if settings.robust is not None else None),
    }


def _open_checkpoint(problem: OptimizationProblem,
                     settings: HeuristicSettings,
                     controller: Optional[RunController],
                     resume_from, vdd_range, vth_range,
                     engine_name: str) -> Optional[SearchCheckpoint]:
    """Load (or create) the search checkpoint, if one was requested.

    ``resume_from`` wins over the controller's ``checkpoint_path``; a
    nonexistent ``resume_from`` file starts a fresh checkpoint at that
    path, so ``--resume run.ckpt`` is idempotent across interruptions.
    """
    path = None
    if resume_from is not None:
        path = Path(resume_from)
    elif controller is not None and controller.checkpoint_path is not None:
        path = controller.checkpoint_path
    if path is None:
        return None
    every = (controller.checkpoint_every if controller is not None
             else CHECKPOINT_EVERY)
    fingerprint = _search_fingerprint(problem, settings, vdd_range, vth_range,
                                      engine_name)
    if path.exists():
        return SearchCheckpoint.load(path, fingerprint, every=every)
    return SearchCheckpoint(fingerprint, path=path, every=every)


def optimize_joint(problem: OptimizationProblem,
                   settings: HeuristicSettings | None = None,
                   budgets: BudgetResult | None = None,
                   seeds: "Tuple[Tuple[float, float], ...]" = (),
                   resume_from: str | Path | None = None,
                   _energy_vth_bias: Callable[[float], float] | None = None,
                   _delay_vth_bias: Callable[[float], float] | None = None,
                   ) -> OptimizationResult:
    """Run Procedure 2 on ``problem`` and return the optimized design.

    ``seeds`` are extra (Vdd, Vth) candidates evaluated alongside the
    search — sweeps warm-start each point with the previous optimum so a
    relaxed problem can never appear worse than a tighter one.

    ``resume_from`` names a checkpoint file: if it exists, the search
    resumes from the last completed corner recorded there (and keeps
    checkpointing to the same file); if not, a fresh checkpoint is
    written there as the search runs. ``settings.controller`` (or the
    ambient :func:`repro.runtime.use_controller` controller) adds
    wall-clock deadlines, cooperative cancellation, and progress
    callbacks; the checkpoint is flushed before a deadline or
    cancellation propagates, so the run can be resumed.

    Raises :class:`InfeasibleError` when no (Vdd, Vth, widths) point in
    the technology's ranges meets the cycle time. For ``n_vth > 1`` use
    :func:`repro.optimize.multivth.optimize_multi_vth`, which builds on
    this single-Vth optimizer.
    """
    settings = settings or HeuristicSettings()
    controller = resolve_controller(settings.controller)
    engine_name = resolve_engine_name(settings.engine)
    # The corner-bias hooks are closures and cannot cross a process
    # boundary; variation-aware searches run their rounds in-process.
    plan = resolve_parallel(settings.parallel)
    parallel_search = (plan is not None and plan.active
                       and settings.strategy != "paper"
                       and _energy_vth_bias is None
                       and _delay_vth_bias is None)
    # Warm starts chain each evaluation to the previous feasible one,
    # which a sharded round cannot reproduce. Parallelism wins: the
    # warm start is skipped, loudly.
    warm_start_skipped = settings.warm_start and parallel_search
    if warm_start_skipped:
        current_metrics().incr(WARM_START_SKIPPED)
        logger.warning(
            "%s: warm_start=True skipped — warm starts are serial-only "
            "and a parallel plan (jobs=%d) is active; drop --jobs to "
            "keep warm starts", problem.network.name, plan.jobs)
    # The bound pre-pass assumes the plain objective (energy billed at
    # the search Vth); variation-aware searches scan unpruned.
    # ... and so do robust searches: the admissible bound is a bound on
    # the *nominal* energy, not on a risk measure over variation.
    prune_active = (settings.prune and settings.strategy == "grid"
                    and settings.robust is None
                    and _energy_vth_bias is None
                    and _delay_vth_bias is None)
    if budgets is None:
        budgets = problem.budgets()
    state = _SearchState()
    raw_objective = _make_objective(
        problem, budgets, settings, state,
        engine_name=engine_name,
        energy_vth_bias=_energy_vth_bias,
        delay_vth_bias=_delay_vth_bias,
        warm_starts=settings.warm_start and not warm_start_skipped)
    vdd_range, vth_range = _ranges(problem, settings)
    checkpoint = _open_checkpoint(problem, settings, controller, resume_from,
                                  vdd_range, vth_range, engine_name)
    resumed_corners = checkpoint.completed if checkpoint is not None else 0

    if checkpoint is None and controller is None:
        objective = raw_objective
    else:
        where = f"{problem.network.name} (Vdd, Vth) search"

        def objective(vdd: float, vth: float) -> float:
            if controller is not None:
                controller.check(where)
            if checkpoint is not None:
                cached = checkpoint.lookup(vdd, vth)
                if cached is not None:
                    # Replay the recorded evaluation without recomputing.
                    # Updating the running best here (not seeding it up
                    # front) matters: the refinement steers by the best
                    # point *as it evolves*, so resume must rebuild that
                    # trajectory corner by corner to stay on the exact
                    # path of the interrupted run. The widths of a
                    # replayed best are recovered from the checkpoint
                    # snapshot after the search.
                    energy, feasible = cached
                    state.evaluations += 1
                    if feasible:
                        state.feasible_points += 1
                    if energy < state.best_energy:
                        state.best_energy = energy
                        state.best_point = (vdd, vth)
                        state.best_widths = None
                    if settings.robust is not None:
                        # Restore the corner's Monte-Carlo bookkeeping
                        # instead of re-sampling, so a resumed run
                        # reports byte-identical robust counters.
                        stat = checkpoint.robust_stats.get(
                            corner_key(vdd, vth))
                        if stat is not None:
                            state.robust_stats[corner_key(vdd, vth)] = \
                                dict(stat)
                    return energy
            feasible_before = state.feasible_points
            energy = raw_objective(vdd, vth)
            if checkpoint is not None:
                if settings.robust is not None:
                    # Nominal-infeasible corners never draw samples and
                    # have no stat to persist.
                    stat = state.robust_stats.get(corner_key(vdd, vth))
                    if stat is not None:
                        checkpoint.note_robust_stat(corner_key(vdd, vth),
                                                    stat)
                checkpoint.record(
                    vdd, vth, energy,
                    feasible=state.feasible_points > feasible_before,
                    best_energy=state.best_energy,
                    best_point=state.best_point,
                    best_widths=state.best_widths)
            if controller is not None:
                controller.report(phase=settings.strategy,
                                  evaluations=state.evaluations,
                                  best_energy=state.best_energy)
            return energy

        raw_prefetch = getattr(raw_objective, "prefetch", None)
        if raw_prefetch is not None:
            def _prefetch(corners):
                # Corners already in the checkpoint replay from the
                # record; only fresh corners are worth batching.
                if checkpoint is not None:
                    corners = [corner for corner in corners
                               if checkpoint.lookup(corner[0], corner[1])
                               is None]
                return raw_prefetch(corners)

            objective.prefetch = _prefetch

    strategy = None
    tracer = trace.current_tracer()
    try:
        with tracer.span("optimize_joint", network=problem.network.name,
                         strategy=settings.strategy,
                         engine=engine_name) as root:
            if seeds:
                with tracer.span("seeds", count=len(seeds)):
                    for seed_vdd, seed_vth in seeds:
                        objective(seed_vdd, seed_vth)
            if settings.strategy == "paper":
                with tracer.span("paper_search", m_steps=settings.m_steps):
                    _paper_search(objective, state, vdd_range, vth_range,
                                  settings)
            else:
                strategy = make_strategy(problem, budgets, settings,
                                         engine_name, vdd_range, vth_range,
                                         prune_active)
                run_search(strategy, problem=problem, budgets=budgets,
                           settings=settings, state=state,
                           engine_name=engine_name, objective=objective,
                           checkpoint=checkpoint, controller=controller,
                           plan=plan, parallel=parallel_search)
                if settings.strategy == "grid":
                    with tracer.span("refine",
                                     rounds=settings.refine_rounds):
                        _refine(objective, state, vdd_range, vth_range,
                                settings)
                else:
                    # The pattern search both escapes the sampled
                    # best's basin and polishes to refine-level
                    # resolution, so the adaptive path skips the
                    # grid-step ternary refinement entirely.
                    with tracer.span("descend", shrinks=_DESCEND_SHRINKS):
                        _descend(objective, state, vdd_range, vth_range)
            # Refine once more around the overall best (a seed may have
            # won; the adaptive strategies' descent already polishes).
            if settings.strategy == "grid":
                with tracer.span("refine", rounds=settings.refine_rounds):
                    _refine(objective, state, vdd_range, vth_range, settings)
            root.annotate(evaluations=state.evaluations,
                          feasible_points=state.feasible_points,
                          best_energy=state.best_energy)
    finally:
        # Persist progress even when a deadline, cancellation, SIGINT,
        # or model error aborts the search mid-corner.
        if checkpoint is not None:
            checkpoint.flush()

    if state.best_point is None:
        raise InfeasibleError(
            f"{problem.network.name}: no (Vdd, Vth) point meets "
            f"T_c = {problem.cycle_time:.3e} s — even the fastest corner "
            f"fails; relax the clock or widen the technology ranges")

    vdd, vth = state.best_point
    if state.best_widths is None and checkpoint is not None \
            and checkpoint.best_point == state.best_point:
        # The winning corner was replayed from the checkpoint cache; its
        # widths come from the persisted best snapshot.
        state.best_widths = checkpoint.best_widths
    if state.best_widths is None:
        # Defensive re-derivation: size the winning corner once more.
        state.best_energy = math.inf
        raw_objective(vdd, vth)
    if state.best_widths is None:
        raise InfeasibleError(
            f"{problem.network.name}: the recorded best corner "
            f"(Vdd={vdd:.4f} V, Vth={vth:.4f} V) is no longer sizable")
    design = DesignPoint(vdd=vdd, vth=vth, widths=dict(state.best_widths))
    energy = total_energy(problem.ctx, vdd,
                          vth if _energy_vth_bias is None
                          else _energy_vth_bias(vth),
                          design.widths, problem.frequency)
    if not math.isfinite(energy.total):
        # Never report a silently-wrong optimum: a corrupted model
        # evaluation (e.g. an injected NaN) must surface as a typed
        # error so fallback policies can react.
        raise OptimizationError(
            f"{problem.network.name}: non-finite energy "
            f"{energy.total!r} at the chosen optimum "
            f"(Vdd={vdd:.4f} V, Vth={vth:.4f} V)")
    timing = analyze_timing(problem.ctx, vdd,
                            vth if _delay_vth_bias is None
                            else _delay_vth_bias(vth),
                            design.widths)
    if not math.isfinite(timing.critical_delay):
        raise OptimizationError(
            f"{problem.network.name}: non-finite critical delay "
            f"{timing.critical_delay!r} at the chosen optimum")
    details: Dict[str, object] = {
        "strategy": settings.strategy,
        "search": search_config(settings),
        "engine": engine_name,
        "feasible_points": state.feasible_points,
        "budget_rescale": budgets.rescale_factor,
        "budget_paths": budgets.paths_processed,
        "width_method": settings.width_method,
    }
    if parallel_search:
        details["parallel_jobs"] = plan.jobs
    if prune_active and strategy is not None:
        details["pruned_cells"] = len(strategy.pruned)
        details["prune_probes"] = strategy.prune_probes_used
    if settings.warm_start:
        details["warm_start"] = not warm_start_skipped
        if warm_start_skipped:
            details["warm_start_skipped"] = True
    if settings.robust is not None:
        details["robust"] = robust_details(
            settings.robust, state.robust_stats, state.best_point,
            engine=getattr(raw_objective, "engine", None))
    if checkpoint is not None:
        checkpoint.flush()
        details["checkpoint"] = str(checkpoint.path)
        details["resumed_corners"] = resumed_corners
    result = OptimizationResult(problem=problem, design=design, energy=energy,
                                timing=timing, evaluations=state.evaluations,
                                details=details)
    if settings.robust is not None:
        summary = details["robust"]
        if summary["samples_quarantined"] or summary["corners_degraded"]:
            # Statistical degradation is never silent: quarantined
            # samples or deadline-partial estimates taint the result
            # with an explicit label (the estimates themselves stay
            # usable — that is the graceful half of the contract).
            from repro.runtime.fallback import _degrade
            result = _degrade(result, {
                "stage": "robust_estimate",
                "samples_quarantined": summary["samples_quarantined"],
                "corners_degraded": summary["corners_degraded"],
            })
    return result
