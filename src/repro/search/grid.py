"""The exhaustive grid as a :class:`SearchStrategy` (the exact reference).

This is the pre-seam grid scan of ``optimize_joint`` verbatim — one
round containing every unpruned cell in canonical (vdd-outer) scan
order — so the refactor is provably behavior-preserving: the strategy
proposes the identical evaluation sequence the old loop ran, serially
and at any ``--jobs`` count (``tests/test_search_parity.py`` asserts
bit-identical results against recorded pre-refactor optima).

The PR 5 bound-based pruning is folded in as a strategy concern: the
admissible closed-form lower bound (:func:`grid_lower_bounds`) and the
feasibility-bisection probe cut (:func:`prune_cells`) run during
construction, and pruned cells are simply never proposed — exactly as
the old loop skipped them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.obs import trace
from repro.obs.instrument import PRUNED_CELLS
from repro.obs.metrics import current_metrics
from repro.search.base import Candidate, SearchStrategy

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.optimize.problem import OptimizationProblem
    from repro.timing.budgeting import BudgetResult


def linspace(low: float, high: float, count: int) -> List[float]:
    if count == 1:
        return [0.5 * (low + high)]
    step = (high - low) / (count - 1)
    return [low + index * step for index in range(count)]


def grid_cells(vdd_range: Tuple[float, float],
               vth_range: Tuple[float, float],
               settings) -> List[Tuple[int, float, float]]:
    """The grid corners, indexed in canonical (vdd-outer) scan order.

    Serial scan, parallel sharding and the bound-based prune pre-pass all
    work off this one list, so "cell index" means the same corner
    everywhere.
    """
    cells: List[Tuple[int, float, float]] = []
    for vdd in linspace(*vdd_range, settings.grid_vdd):
        for vth in linspace(*vth_range, settings.grid_vth):
            cells.append((len(cells), vdd, vth))
    return cells


def grid_lower_bounds(problem: "OptimizationProblem",
                      cells: List[Tuple[int, float, float]]) -> List[float]:
    """Admissible per-cell lower bound on total energy (J/cycle).

    Every energy term of eqs. A1 + A2 is monotonically increasing in
    each gate width — static is ``Vdd * sum(w * I_off) / f``, and both
    dynamic terms charge loads that only grow with the widths they
    gather — so evaluating them at all-minimum widths bounds any sizing
    the solver can return, feasible or not. The width-dependent load
    sums are computed once (vectorized, via the fastpath's gate-load
    and input-net load helpers); each cell then costs two scalar
    device-model calls. Cells whose drive is non-positive at minimum
    stack loading are infeasible for *every* width assignment and bound
    to ``inf``.
    """
    import numpy as np

    from repro.engine.array import array_context_for
    from repro.fastpath.evaluate import _currents, _input_load, _loads

    arrays = array_context_for(problem.ctx)
    tech = problem.tech
    n = arrays.n_gates
    wmin = np.full(n, tech.width_min)
    load, _, _ = _loads(arrays, wmin)
    activity_load = float(np.sum(arrays.activity * load))
    input_load = float(np.sum(arrays.input_activity
                              * _input_load(arrays, wmin)))
    width_sum = float(np.sum(wmin))
    stacks = [(float(fanin), 1.0 + tech.stack_derating * (fanin - 1))
              for fanin in np.unique(arrays.fanin_count)]
    frequency = problem.frequency

    bounds: List[float] = []
    for _, vdd, vth in cells:
        current, off = _currents(arrays, vdd, vth)
        if any(current / stack - fanin * off <= 0.0
               for fanin, stack in stacks):
            bounds.append(math.inf)
            continue
        bounds.append(vdd * width_sum * off / frequency
                      + 0.5 * vdd * vdd * (activity_load + input_load))
    return bounds


def prune_cells(problem: "OptimizationProblem", budgets: "BudgetResult",
                settings, engine_name: str,
                cells: List[Tuple[int, float, float]],
                vdd_range: Tuple[float, float],
                vth_range: Tuple[float, float]) -> Tuple[Set[int], int]:
    """The bound-based cut: ``(pruned cell indices, probes spent)``.

    A short feasibility bisection along the Vdd axis (at the middle Vth
    column, falling back to the fastest corner) finds a cheap feasible
    design whose energy ``U`` is an upper bound on the grid optimum;
    any cell whose *lower* bound exceeds ``U`` is strictly worse than
    the optimum and is skipped. The probes run on a private evaluator —
    they never touch the search state or the checkpoint — so the
    surviving scan's best-point trajectory is exactly the unpruned one
    minus provably-losing corners. The margin ``U * (1 + 1e-9)`` keeps
    any exact tie for the minimum unpruned — and absorbs the few-ulp
    summation-order slack between the closed-form bound and the
    engine's per-gate sums — so the argmin (including tie-breaking by
    scan order) is invariant.
    """
    bounds = grid_lower_bounds(problem, cells)
    pruned = {index for index, bound in enumerate(bounds)
              if not math.isfinite(bound)}
    if len(pruned) == len(cells):
        return pruned, 0

    vdd_values = linspace(*vdd_range, settings.grid_vdd)
    vth_values = linspace(*vth_range, settings.grid_vth)
    mid_vth = vth_values[len(vth_values) // 2]
    prober = problem.evaluator(budgets, engine_name,
                               width_method=settings.width_method)
    upper = math.inf
    probes = 0

    def probe(vdd: float, vth: float) -> bool:
        nonlocal upper, probes
        probes += 1
        evaluation = prober(vdd, vth)
        if evaluation.feasible and evaluation.energy < upper:
            upper = evaluation.energy
        return evaluation.feasible

    lo, hi = 0, len(vdd_values) - 1
    if probe(vdd_values[hi], mid_vth):
        # Walk the feasibility boundary down: the lowest feasible Vdd
        # probed has the smallest energy, hence the tightest cut.
        while probes < settings.prune_probes and lo < hi - 1:
            mid = (lo + hi) // 2
            if probe(vdd_values[mid], mid_vth):
                hi = mid
            else:
                lo = mid
    else:
        # Mid-Vth column fails even at max Vdd; the fastest corner is
        # the last hope for a feasibility witness.
        probe(vdd_values[-1], vth_values[0])

    if math.isfinite(upper):
        cut = upper * (1.0 + 1e-9)
        pruned.update(index for index, bound in enumerate(bounds)
                      if bound > cut)
    return pruned, probes


class GridStrategy(SearchStrategy):
    """One exhaustive round over the canonical scan order."""

    name = "grid"

    def __init__(self, problem: "OptimizationProblem",
                 budgets: "BudgetResult", settings, engine_name: str,
                 vdd_range: Tuple[float, float],
                 vth_range: Tuple[float, float],
                 prune_active: bool):
        self._settings = settings
        self.cells = grid_cells(vdd_range, vth_range, settings)
        self.pruned: Set[int] = set()
        self.prune_probes_used = 0
        self._prune_active = prune_active
        if prune_active:
            tracer = trace.current_tracer()
            with tracer.span("prune_bounds", cells=len(self.cells)):
                self.pruned, self.prune_probes_used = prune_cells(
                    problem, budgets, settings, engine_name, self.cells,
                    vdd_range, vth_range)
            current_metrics().incr(PRUNED_CELLS, len(self.pruned))
        self._observed = 0
        self._proposed = False
        self._live = [cell for cell in self.cells
                      if cell[0] not in self.pruned]
        self.proposal_batch = len(self._live)

    def propose(self, batch: int) -> List[Candidate]:
        if self._proposed:
            return []
        self._proposed = True
        return [Candidate(vdd=vdd, vth=vth, tag=index)
                for index, vdd, vth in self._live]

    def observe(self, candidate: Candidate, energy: float,
                feasible: bool) -> None:
        self._observed += 1

    def done(self) -> bool:
        return self._proposed and self._observed >= len(self._live)

    def state(self) -> Dict[str, object]:
        return {"proposed": self._proposed, "observed": self._observed}

    def restore(self, state: Dict[str, object]) -> None:
        self._proposed = bool(state.get("proposed", False))
        self._observed = int(state.get("observed", 0))

    def config(self) -> Dict[str, object]:
        # The grid's shape knobs live at the fingerprint top level
        # (grid_vdd/grid_vth/prune/prune_probes, unchanged since PR 1);
        # the seed and budget deliberately do not appear — they cannot
        # affect an exhaustive scan, so equal scans must keep hitting
        # the same serve cache slot across seeds.
        return {"name": self.name}

    def round_span(self, round_index: int, jobs: int
                   ) -> Tuple[str, Dict[str, object]]:
        # The historical span name and attributes, so recorded traces
        # and ``repro trace-report`` goldens read identically.
        return "grid_search", {"vdd_points": self._settings.grid_vdd,
                               "vth_points": self._settings.grid_vth,
                               "pruned": len(self.pruned),
                               "jobs": jobs}
