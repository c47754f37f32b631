"""The incremental engine: exact delta re-evaluation of single-gate moves.

:class:`IncrementalEngine` wraps an :class:`~repro.engine.array
.ArrayEngine` and adds a *stateful* API for move-based optimizers (the
annealer's hot loop):

* :meth:`begin` installs a concrete design point with one full
  vectorized evaluation,
* :meth:`apply_move` changes one gate's width and re-derives only what
  that width can touch — the mutated gate's own delay terms, its fanin
  drivers' external-cap/load terms, the downstream arrival cone in
  topological level order (with early termination as soon as a
  recomputed delay *and* arrival are unchanged), and the static/dynamic
  energy terms referencing the mutated width,
* :meth:`apply_voltage` changes ``Vdd``/``Vth`` and falls back to the
  inner engine's vectorized full evaluation (reusing the width-only
  parasitics, which a voltage move cannot change).

**Recompute, don't accumulate.** Every affected value is recomputed
from scratch through the *same* fastpath helpers (per-gate delay and
energy terms, the critical-delay and input-net reductions) and, for
per-row parasitics, the same ``reduceat`` segment reductions as the
kernels — never adjusted by a delta — so the maintained state is a pure
function of ``(widths, Vdd, Vth)`` and every measurement is
bit-identical to a fresh :func:`~repro.fastpath.evaluate.fast_sta` /
:func:`~repro.fastpath.evaluate.fast_total_energy` evaluation. That
exactness is what lets the annealer swap engines without perturbing its
accepted-move trajectory, and it makes reverts trivial: re-applying the
previous width restores the previous state exactly.

The stateless :class:`~repro.engine.base.Engine` API delegates to the
inner array engine, so ``"incremental"`` behaves like ``"fast"``
anywhere an optimizer does not drive the move API.

Observability: ``engine.incremental.moves`` / ``.cone_gates`` /
``.full_refreshes`` counters (see :mod:`repro.obs.instrument`) plus a
span around each full refresh.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.array import ArrayEngine
from repro.engine.base import Engine, EngineMeasurement, EngineSizing
from repro.errors import OptimizationError
from repro.fastpath.arrays import Segments
from repro.fastpath.evaluate import (
    _critical,
    _currents,
    _drive_per_width,
    _energy_terms,
    _energy_totals,
    _fixed_delays,
    _loads,
    _propagate,
    _slope_coefficients,
)
from repro.obs import trace
from repro.obs.instrument import (
    INCREMENTAL_CONE_GATES,
    INCREMENTAL_FULL_REFRESHES,
    INCREMENTAL_MOVES,
)
from repro.obs.metrics import current_metrics
from repro.optimize.problem import OptimizationProblem
from repro.timing.budgeting import BudgetResult


def _rows_of(value, rows):
    """The ``rows`` selection of a scalar-or-vector per-gate quantity."""
    if isinstance(value, np.ndarray):
        return value[rows]
    return value


class _MovePlan:
    """Precomputed constants for one gate's width move.

    ``rows`` are the gate itself plus its fanin drivers — exactly the
    rows whose external-cap/RC/load/switching terms reference the moved
    width. All fanout-CSR gathers below are frozen at construction; per
    move only the sink widths are re-gathered, and the per-row segment
    reductions run over the identical entry sequences (hence identical
    ``reduceat`` segments) as the full-range kernel.
    """

    __slots__ = ("rows", "ptr", "is_gate", "gate_sinks", "caps", "res",
                 "half_branch_cap", "wire_plus_boundary", "flight",
                 "self_cap", "activity", "segments")

    def __init__(self, arrays, rows: np.ndarray):
        fanout = arrays.fanout
        pieces = [np.arange(fanout.ptr[r], fanout.ptr[r + 1])
                  for r in rows]
        entries = (np.concatenate(pieces) if pieces
                   else np.empty(0, dtype=np.int64))
        lengths = np.asarray([len(piece) for piece in pieces],
                             dtype=np.int64)
        self.rows = rows
        self.ptr = np.concatenate(([0], np.cumsum(lengths)))
        self.is_gate = arrays.fanout_is_gate[entries]
        entry_sinks = fanout.indices[entries]
        self.gate_sinks = entry_sinks[self.is_gate]
        self.caps = arrays.fanout_cap[entries]
        self.res = arrays.branch_res[entries]
        self.half_branch_cap = 0.5 * arrays.branch_cap[entries]
        self.wire_plus_boundary = (arrays.wire_cap[rows]
                                   + arrays.boundary_cap[rows])
        self.segments = Segments(self.ptr)
        # Flight is width-independent: reduce it once, here.
        self.flight = self.segments.reduce(np.maximum,
                                           arrays.branch_flight[entries])
        self.self_cap = arrays.self_cap[rows]
        self.activity = arrays.activity[rows]

    def parasitics(self, w: np.ndarray, boundary_width: float
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ext, wire_rc, flight) for :attr:`rows` at widths ``w``.

        Mirrors :meth:`repro.fastpath.arrays.FanoutRows.parasitics` term
        by term over the same entry order, so every per-row value is
        bit-identical to the full-range kernel's row.
        """
        sink_w = np.full(self.is_gate.shape, boundary_width)
        sink_w[self.is_gate] = w[self.gate_sinks]
        cap_entries = np.where(self.is_gate, sink_w * self.caps, 0.0)
        rc_entries = self.res * (self.half_branch_cap + sink_w * self.caps)
        ext = (self.wire_plus_boundary
               + self.segments.reduce(np.add, cap_entries))
        rc = self.segments.reduce(np.maximum, rc_entries)
        return ext, rc, self.flight


class IncrementalEngine(Engine):
    """Delta evaluation for move-based searches (see module docstring)."""

    name = "incremental"
    #: Capability flag duck-typed by optimizers (no import needed).
    supports_moves = True

    def __init__(self, problem: OptimizationProblem,
                 width_method: str = "closed_form", bisect_steps: int = 24):
        super().__init__(problem)
        self._inner = ArrayEngine(problem, width_method=width_method,
                                  bisect_steps=bisect_steps)
        self.width_method = width_method
        self.bisect_steps = bisect_steps
        arrays = self.arrays = self._inner.arrays
        n = arrays.n_gates
        self._frequency = problem.frequency
        self._boundary_width = float(arrays.ctx.BOUNDARY_WIDTH)

        # Topological bookkeeping: the level-group ordinal of each row
        # (fanouts always sit at a strictly smaller ordinal — the STA
        # sweep's processing direction) and plain-list adjacency for the
        # cone walk.
        group = np.empty(n, dtype=np.int64)
        for ordinal, (start, stop) in enumerate(arrays.level_slices):
            group[start:stop] = ordinal
        self._group: List[int] = group.tolist()
        view = arrays.python_view()
        self._fanin_rows: List[List[int]] = [
            view.fanin_idx[view.fanin_ptr[i]:view.fanin_ptr[i + 1]]
            for i in range(n)]
        self._fanout_rows: List[List[int]] = [
            [sink for sink in
             view.fanout_idx[view.fanout_ptr[i]:view.fanout_ptr[i + 1]]
             if sink >= 0]
            for i in range(n)]

        self._plans: List[Optional[_MovePlan]] = [None] * n
        self._w: Optional[np.ndarray] = None

        #: Diagnostics mirrored into the metrics registry.
        self.moves = 0
        self.cone_gates = 0
        self.full_refreshes = 0
        self.early_stops = 0

    # -- stateless Engine API: delegate to the inner array engine -----------

    def size_widths(self, budgets: BudgetResult, vdd, vth, *,
                    warm=None) -> EngineSizing:
        return self._inner.size_widths(budgets, vdd, vth, warm=warm)

    def sta(self, vdd, vth, widths) -> float:
        return self._inner.sta(vdd, vth, widths)

    def total_energy(self, vdd, vth, widths) -> Tuple[float, float]:
        return self._inner.total_energy(vdd, vth, widths)

    def widths_vector(self, source) -> np.ndarray:
        return self._inner.widths_vector(source)

    # -- stateful move API ---------------------------------------------------

    def begin(self, vdd, vth, widths) -> EngineMeasurement:
        """Install a design point; one full evaluation seeds the state."""
        self._vdd = self._inner._values(vdd)
        self._vth = self._inner._values(vth)
        self._w = np.array(self._inner._internal_widths(widths), dtype=float)
        with trace.span("incremental_refresh", reason="begin"):
            self._refresh(recompute_parasitics=True)
        return self.measurement()

    def measurement(self) -> EngineMeasurement:
        """The current design point's (static, dynamic, critical delay)."""
        self._require_state()
        return EngineMeasurement(static=self._static, dynamic=self._dynamic,
                                 critical_delay=self._critical)

    def apply_move(self, gate: str, new_width: float) -> EngineMeasurement:
        """Set ``gate``'s width and delta-re-evaluate; returns the new
        measurement. Re-applying the previous width reverts exactly
        (every maintained value is a pure function of the state)."""
        self._require_state()
        arrays = self.arrays
        row = arrays.index.get(gate)
        if row is None:
            raise OptimizationError(f"unknown gate {gate!r}")
        w = self._w
        w[row] = new_width

        plan = self._plans[row]
        if plan is None:
            local = [row]
            for fanin in self._fanin_rows[row]:
                if fanin not in local:
                    local.append(fanin)
            plan = _MovePlan(arrays, np.asarray(sorted(local),
                                                dtype=np.int64))
            self._plans[row] = plan
        rows = plan.rows

        # Local terms: external cap / wire RC / load / switching / fixed
        # of the moved gate and its fanin drivers, recomputed from
        # scratch through the kernel helpers.
        ext, rc, flight = plan.parasitics(w, self._boundary_width)
        load = w[rows] * plan.self_cap + ext
        self._rc[rows] = rc
        self._load[rows] = load
        self._fixed[rows] = _fixed_delays(_rows_of(self._k_vdd, rows),
                                          self._drive[rows], w[rows], load,
                                          rc, flight)

        # Energy terms referencing the moved width: the gate's own
        # leakage scales with w; the local rows' switched loads changed.
        self._static_terms[rows], self._dynamic_terms[rows] = _energy_terms(
            plan.activity, _rows_of(self._vdd, rows), w[rows],
            _rows_of(self._off, rows), load, self._frequency)

        cone = self._propagate(rows)
        self._totals()

        self.moves += 1
        self.cone_gates += cone
        metrics = current_metrics()
        metrics.incr(INCREMENTAL_MOVES)
        metrics.incr(INCREMENTAL_CONE_GATES, cone)
        return self.measurement()

    def apply_voltage(self, vdd=None, vth=None) -> EngineMeasurement:
        """Change the rails; falls back to a vectorized full refresh.

        The width-only parasitics (external caps, wire RC, flight,
        loads) are pure functions of the unchanged widths and are
        reused — the refresh recomputes everything a voltage reaches.
        """
        self._require_state()
        if vdd is not None:
            self._vdd = self._inner._values(vdd)
        if vth is not None:
            self._vth = self._inner._values(vth)
        with trace.span("incremental_refresh", reason="voltage"):
            self._refresh(recompute_parasitics=False)
        return self.measurement()

    def snapshot(self) -> Tuple:
        """An O(N) copy of the mutable state, for :meth:`restore`."""
        self._require_state()
        return (self._vdd, self._vth, self._w.copy(), self._rc.copy(),
                self._flight_vec.copy(), self._load.copy(),
                self._fixed.copy(), self._delays.copy(),
                self._arrivals.copy(), self._static_terms.copy(),
                self._dynamic_terms.copy(), self._drive, self._off,
                self._slope_k, self._k_vdd, self._static, self._dynamic,
                self._critical)

    def restore(self, token: Tuple) -> EngineMeasurement:
        """Reinstall a :meth:`snapshot` (the annealer's voltage revert)."""
        (self._vdd, self._vth, self._w, self._rc, self._flight_vec,
         self._load, self._fixed, self._delays, self._arrivals,
         self._static_terms, self._dynamic_terms, self._drive, self._off,
         self._slope_k, self._k_vdd, self._static, self._dynamic,
         self._critical) = token
        return self.measurement()

    # -- internals -----------------------------------------------------------

    def _require_state(self) -> None:
        if self._w is None:
            raise OptimizationError(
                "incremental engine has no design point: call begin() "
                "before apply_move()/apply_voltage()/measurement()")

    def _refresh(self, recompute_parasitics: bool) -> None:
        """Full re-evaluation at the current (w, Vdd, Vth).

        The same kernel helpers as ``fast_sta`` + ``fast_total_energy``
        (the same sweep plan and propagation), so the refreshed state is
        bit-identical to the inner engine's.
        """
        arrays = self.arrays
        vdd, vth, w = self._vdd, self._vth, self._w

        currents = _currents(arrays, vdd, vth)
        self._drive = _drive_per_width(arrays, vdd, vth, currents)
        self._off = currents[1]
        self._slope_k = _slope_coefficients(arrays, vdd, vth)
        self._k_vdd = arrays.ctx.tech.velocity_saturation_coeff * vdd

        if recompute_parasitics:
            self._load, self._rc, self._flight_vec = _loads(arrays, w)
        self._fixed = _fixed_delays(self._k_vdd, self._drive, w,
                                    self._load, self._rc, self._flight_vec)
        self._delays, self._arrivals = _propagate(arrays, self._slope_k,
                                                  self._fixed)
        self._static_terms, self._dynamic_terms = _energy_terms(
            arrays.activity, vdd, w, self._off, self._load, self._frequency)
        self._totals()

        self.full_refreshes += 1
        current_metrics().incr(INCREMENTAL_FULL_REFRESHES)

    def _propagate(self, seed_rows: np.ndarray) -> int:
        """Recompute the arrival cone of the seeds, level by level.

        Processes level groups in descending ordinal (the STA sweep's
        direction: fanouts live at strictly smaller ordinals), stopping
        a branch as soon as a row's recomputed delay *and* arrival both
        equal the stored values. Returns the number of rows recomputed.
        """
        delays = self._delays
        arrivals = self._arrivals
        group = self._group
        slope_k = self._slope_k
        slope_is_vec = isinstance(slope_k, np.ndarray)
        fixed = self._fixed
        pending: Dict[int, set] = {}
        for row in seed_rows:
            pending.setdefault(group[row], set()).add(int(row))

        cone = 0
        while pending:
            ordinal = max(pending)
            for row in sorted(pending.pop(ordinal)):
                cone += 1
                max_fanin_delay = 0.0
                max_fanin_arrival = 0.0
                for fanin in self._fanin_rows[row]:
                    if delays[fanin] > max_fanin_delay:
                        max_fanin_delay = delays[fanin]
                    if arrivals[fanin] > max_fanin_arrival:
                        max_fanin_arrival = arrivals[fanin]
                slope = slope_k[row] if slope_is_vec else slope_k
                new_delay = slope * max_fanin_delay + fixed[row]
                new_arrival = max_fanin_arrival + new_delay
                if new_delay == delays[row] and new_arrival == arrivals[row]:
                    self.early_stops += 1
                    continue
                delays[row] = new_delay
                arrivals[row] = new_arrival
                for sink in self._fanout_rows[row]:
                    pending.setdefault(group[sink], set()).add(sink)
        return cone

    def _totals(self) -> None:
        """The measurement of the current state, reduced as ``fast_sta``
        and ``fast_total_energy`` reduce it.

        The input-net term is recomputed whole: width moves on gates fed
        by primary inputs change the input-net loads, and the term is a
        handful of vectorized reductions over the input count — cheaper
        than tracking which inputs a move touches, and trivially exact.
        """
        static, dynamic = _energy_totals(self.arrays, self._vdd, self._w,
                                         self._static_terms,
                                         self._dynamic_terms)
        self._static, self._dynamic = float(static), float(dynamic)
        self._critical = float(_critical(self.arrays, self._arrivals))
