"""The round loop: evaluate whatever a strategy proposes, in order.

``run_search`` is the one evaluation loop behind every seam strategy.
Each iteration asks the strategy for a round of candidates, evaluates
them — serially through the (checkpoint/controller-aware) objective, or
sharded over the supervised pool — and feeds the results back through
``observe`` in canonical proposal order. Because round *composition* is
the strategy's business (a pure function of config + history) and round
*evaluation* is the driver's, jobs-invariance holds for every strategy
the way PR 3 proved it for the grid: shard functions are pure, the
merge is canonical, and the strategy never sees the jobs count.

The parallel path is the old ``_parallel_grid_search`` generalized to
one round of arbitrary candidates: corners already in the checkpoint
are excluded from sharding and replayed through ``objective`` during
the merge; fresh corners are chunked ``chunk_ranges``-style, evaluated
by the workers, and applied to the search state in exactly the serial
order — so the best-point trajectory, the checkpoint log, and the
refinement that follows are identical to ``jobs=1``. Completed chunks
are checkpointed as they finish, so a crash mid-round resumes at chunk
granularity.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import OptimizationError
from repro.obs import trace
from repro.obs.instrument import search_metric
from repro.obs.metrics import current_metrics
from repro.robust.objective import RobustEvaluator, corner_key
from repro.runtime.supervisor import run_sharded
from repro.runtime.tasks import Task, chunk_ranges
from repro.search.base import Candidate, SearchStrategy

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.optimize.problem import OptimizationProblem
    from repro.robust.config import RobustConfig
    from repro.runtime.checkpoint import SearchCheckpoint
    from repro.runtime.controller import RunController
    from repro.runtime.supervisor import ParallelPlan
    from repro.timing.budgeting import BudgetResult


def _shard_init(problem: "OptimizationProblem", budgets: "BudgetResult",
                engine_name: str, width_method: str,
                robust: "Optional[RobustConfig]" = None):
    """Worker initializer: one evaluator per worker.

    Robust searches wrap the worker's evaluator exactly the way the
    serial path does (counter-seeded common random numbers make every
    worker draw the identical per-sample offsets), so shard results are
    a pure function of the candidates — the jobs-invariance contract.
    """
    evaluator = problem.evaluator(budgets, engine_name,
                                  width_method=width_method)
    if robust is not None:
        evaluator = RobustEvaluator(evaluator, robust)
    return evaluator


def _shard_task(evaluator, cells: Tuple[Tuple[int, float, float], ...]
                ) -> Dict[str, object]:
    """One pure shard: evaluate a contiguous canonical-order chunk.

    Returns per-candidate ``(position, energy, feasible)`` plus the
    widths of every *chunk-local* improvement (feasible candidates that
    beat all prior feasible candidates of the chunk, scanned in
    canonical order). Any candidate that improves the *global* running
    best necessarily improves its chunk-local prefix too — earlier
    candidates were merged before it, so the global best at its merge
    is at most their minimum — so the merge always finds the winning
    candidate's widths here without every feasible candidate shipping
    its (large) width map across the queue.

    Robust shards additionally return the per-candidate estimate
    records (``robust``) so the main process can merge the Monte-Carlo
    bookkeeping into the search state and checkpoint.
    """
    out_cells = []
    improvements: Dict[int, Dict[str, float]] = {}
    robust: Dict[int, Dict[str, object]] = {}
    take = getattr(evaluator, "take_stat", None)
    prefetch = getattr(evaluator, "prefetch", None)
    if prefetch is not None and len(cells) > 1:
        # Batch-capable engines evaluate the whole chunk in one kernel
        # invocation; the loop below then consumes the cache. A no-op
        # (and bit-identical) everywhere else.
        prefetch([(vdd, vth) for _, vdd, vth in cells])
    chunk_best = math.inf
    for position, vdd, vth in cells:
        evaluation = evaluator(vdd, vth)
        out_cells.append((position, evaluation.energy, evaluation.feasible))
        if take is not None:
            stat = take(vdd, vth)
            if stat is not None:
                robust[position] = stat
        if evaluation.feasible and evaluation.energy < chunk_best:
            chunk_best = evaluation.energy
            improvements[position] = dict(evaluation.widths_map())
    out: Dict[str, object] = {"cells": out_cells,
                              "improvements": improvements}
    if take is not None:
        out["robust"] = robust
    return out


def _observe_serial(strategy: SearchStrategy, candidate: Candidate,
                    state, objective) -> None:
    """Evaluate one candidate through ``objective`` and feed it back.

    Feasibility is read off the ``state.feasible_points`` delta, which
    works uniformly for fresh evaluations and checkpoint replays (the
    replay branch books feasible corners the same way).
    """
    feasible_before = state.feasible_points
    energy = objective(candidate.vdd, candidate.vth)
    strategy.observe(candidate, energy,
                     state.feasible_points > feasible_before)


def _parallel_round(strategy: SearchStrategy, candidates: List[Candidate],
                    problem: "OptimizationProblem", budgets: "BudgetResult",
                    settings, state, engine_name: str,
                    checkpoint: Optional["SearchCheckpoint"],
                    controller: Optional["RunController"],
                    plan: "ParallelPlan", objective,
                    round_index: int) -> None:
    fresh = [(position, candidate.vdd, candidate.vth)
             for position, candidate in enumerate(candidates)
             if checkpoint is None
             or checkpoint.lookup(candidate.vdd, candidate.vth) is None]

    what = f"{problem.network.name} {strategy.name} search"
    computed: Dict[int, Tuple[float, bool, Optional[Dict[str, float]]]] = {}
    robust_stats: Dict[int, Dict[str, object]] = {}
    if fresh:
        prefix = (strategy.name if round_index == 0
                  else f"{strategy.name}[r{round_index}]")
        tasks = []
        for start, stop in chunk_ranges(len(fresh), plan.jobs * 4):
            tasks.append(Task(key=f"{prefix}[{start}:{stop}]", index=start,
                              fn=_shard_task,
                              args=(tuple(fresh[start:stop]),)))

        def on_result(result) -> None:
            # Crash-safety: persist finished chunks immediately (in
            # completion order — record() is keyed, so the canonical
            # re-record during the merge below is a dedup that neither
            # counts toward nor triggers a save).
            if checkpoint is None or not result.ok:
                return
            for position, energy, feasible in result.value["cells"]:
                widths = result.value["improvements"].get(position)
                point = (candidates[position].vdd, candidates[position].vth)
                stat = result.value.get("robust", {}).get(position)
                if stat is not None:
                    checkpoint.note_robust_stat(corner_key(*point), stat)
                checkpoint.record(
                    point[0], point[1], energy, feasible=feasible,
                    best_energy=energy if widths is not None else math.inf,
                    best_point=point if widths is not None else None,
                    best_widths=widths)
            checkpoint.flush()

        run = run_sharded(tasks, init_fn=_shard_init,
                          init_args=(problem, budgets, engine_name,
                                     settings.width_method,
                                     getattr(settings, "robust", None)),
                          plan=plan, controller=controller,
                          on_result=on_result, what=what)
        run.raise_if_quarantined(what)
        for result in run.results:
            for position, energy, feasible in result.value["cells"]:
                computed[position] = (energy, feasible,
                                      result.value["improvements"]
                                      .get(position))
            robust_stats.update(result.value.get("robust") or {})

    for position, candidate in enumerate(candidates):
        if position not in computed:
            _observe_serial(strategy, candidate, state, objective)
            continue
        energy, feasible, widths = computed[position]
        stat = robust_stats.get(position)
        if stat is not None:
            key = corner_key(candidate.vdd, candidate.vth)
            sink = getattr(state, "robust_stats", None)
            if sink is not None:
                sink[key] = dict(stat)
            if checkpoint is not None:
                checkpoint.note_robust_stat(key, stat)
        state.evaluations += 1
        if feasible:
            state.feasible_points += 1
            if energy < state.best_energy:
                if widths is None:  # pragma: no cover - see shard docstring
                    raise OptimizationError(
                        f"{what}: winning candidate {position} "
                        f"returned no widths")
                state.best_energy = energy
                state.best_point = (candidate.vdd, candidate.vth)
                state.best_widths = widths
        if checkpoint is not None:
            checkpoint.record(candidate.vdd, candidate.vth, energy,
                              feasible=feasible,
                              best_energy=state.best_energy,
                              best_point=state.best_point,
                              best_widths=state.best_widths)
        if controller is not None:
            controller.report(phase=strategy.name,
                              evaluations=state.evaluations,
                              best_energy=state.best_energy)
        strategy.observe(candidate, energy, feasible)


def run_search(strategy: SearchStrategy, *,
               problem: "OptimizationProblem", budgets: "BudgetResult",
               settings, state, engine_name: str, objective,
               checkpoint: Optional["SearchCheckpoint"],
               controller: Optional["RunController"],
               plan: Optional["ParallelPlan"], parallel: bool) -> int:
    """Drive ``strategy`` to completion; returns the number of rounds."""
    tracer = trace.current_tracer()
    metrics = current_metrics()
    round_index = 0
    while not strategy.done():
        candidates = strategy.propose(strategy.proposal_batch)
        if not candidates:
            break
        metrics.incr(search_metric(strategy.name, "proposals"),
                     len(candidates))
        span_name, attributes = strategy.round_span(
            round_index, plan.jobs if parallel and plan is not None else 1)
        with tracer.span(span_name, **attributes):
            if parallel and plan is not None and len(candidates) > 1:
                _parallel_round(strategy, candidates, problem, budgets,
                                settings, state, engine_name, checkpoint,
                                controller, plan, objective, round_index)
            else:
                prefetch = getattr(objective, "prefetch", None)
                if prefetch is not None and len(candidates) > 1:
                    # Submit the whole strategy round as one batched
                    # evaluation; the per-candidate loop below consumes
                    # the cache (counters, checkpointing and the best-
                    # point trajectory are untouched — the batch engine
                    # is bit-identical per row).
                    prefetch([(c.vdd, c.vth) for c in candidates])
                for candidate in candidates:
                    _observe_serial(strategy, candidate, state, objective)
        metrics.incr(search_metric(strategy.name, "observations"),
                     len(candidates))
        if checkpoint is not None:
            checkpoint.note_strategy_state(strategy.state())
        round_index += 1
    return round_index
