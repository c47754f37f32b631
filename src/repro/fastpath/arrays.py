"""Flat NumPy mirrors of a :class:`~repro.context.CircuitContext`.

Gates are indexed ``0..N-1`` in *reverse topological order* (the width
search's processing order), so per-level slices are contiguous both for
the reverse sweep (sizing) and, reversed, for the forward sweep (STA).
Fanin and fanout adjacency is CSR: ``ptr[i]:ptr[i+1]`` delimits gate
``i``'s entries, enabling ``np.maximum.reduceat`` / ``np.add.reduceat``
segment reductions.

Primary inputs are not gates; fanins that are primary inputs are simply
absent from the fanin CSR (their delay/budget contribution is zero, their
dynamic energy is handled by a dedicated input-net term mirroring
``repro.power.energy``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.context import CircuitContext
from repro.errors import TimingError


@dataclass(frozen=True)
class _CSR:
    """One CSR adjacency: ``indices[ptr[i]:ptr[i+1]]`` belong to row i."""

    ptr: np.ndarray
    indices: np.ndarray


class ArrayContext:
    """Precomputed array state for one :class:`CircuitContext`."""

    def __init__(self, ctx: CircuitContext):
        self.ctx = ctx
        network = ctx.network

        # Gate order: descending level (a valid reverse-topological order —
        # every fanout sits at a strictly higher level — with contiguous
        # level groups), stable in topological position within a level.
        topo_position = {name: i
                         for i, name in enumerate(network.topological_order())}
        self.gate_names: Tuple[str, ...] = tuple(sorted(
            ctx.gates,
            key=lambda name: (-network.level(name), topo_position[name])))
        self.index: Dict[str, int] = {name: i
                                      for i, name in enumerate(self.gate_names)}
        n = len(self.gate_names)
        self.n_gates = n

        levels = [network.level(name) for name in self.gate_names]
        slices: List[Tuple[int, int]] = []
        start = 0
        for i in range(1, n + 1):
            if i == n or levels[i] != levels[start]:
                slices.append((start, i))
                start = i
        #: (start, stop) per level group, in processing order.
        self.level_slices: Tuple[Tuple[int, int], ...] = tuple(slices)

        # Per-gate scalars.
        self.fanin_count = np.empty(n, dtype=np.int64)
        self.self_cap = np.empty(n)
        self.activity = np.empty(n)
        self.wire_cap = np.empty(n)
        for i, name in enumerate(self.gate_names):
            info = ctx.info(name)
            self.fanin_count[i] = info.fanin_count
            self.self_cap[i] = info.self_cap
            self.activity[i] = info.activity
            self.wire_cap[i] = info.wire_cap

        # Fanout CSR with per-entry receiver caps and branch parasitics.
        fanout_ptr = [0]
        fanout_idx: List[int] = []
        fanout_cap: List[float] = []
        branch_res: List[float] = []
        branch_cap: List[float] = []
        branch_flight: List[float] = []
        boundary_cap: List[float] = []   # per gate: width-independent sinks
        for name in self.gate_names:
            info = ctx.info(name)
            fixed = 0.0
            for sink, cap, b_cap, b_res, b_flt in zip(
                    info.fanout_names, info.fanout_input_caps,
                    info.branch_caps, info.branch_resistances,
                    info.branch_flights):
                if sink == "":
                    # Boundary branch: unit-width receiver, fold into the
                    # fixed cap; RC/flight handled via the branch arrays
                    # with a sentinel receiver of fixed width.
                    fixed += ctx.BOUNDARY_WIDTH * cap
                    fanout_idx.append(-1)
                else:
                    fanout_idx.append(self.index[sink])
                fanout_cap.append(cap)
                branch_res.append(b_res)
                branch_cap.append(b_cap)
                branch_flight.append(b_flt)
            boundary_cap.append(fixed)
            fanout_ptr.append(len(fanout_idx))
        self.fanout = _CSR(np.asarray(fanout_ptr, dtype=np.int64),
                           np.asarray(fanout_idx, dtype=np.int64))
        self.fanout_cap = np.asarray(fanout_cap)
        self.branch_res = np.asarray(branch_res)
        self.branch_cap = np.asarray(branch_cap)
        self.branch_flight = np.asarray(branch_flight)
        self.boundary_cap = np.asarray(boundary_cap)
        #: True where the CSR entry is a real gate (width looked up).
        self.fanout_is_gate = self.fanout.indices >= 0

        # Fanin CSR (logic-gate fanins only; PI fanins contribute zero).
        fanin_ptr = [0]
        fanin_idx: List[int] = []
        for name in self.gate_names:
            info = ctx.info(name)
            for fanin in info.fanin_names:
                if fanin in self.index:
                    fanin_idx.append(self.index[fanin])
            fanin_ptr.append(len(fanin_idx))
        self.fanin = _CSR(np.asarray(fanin_ptr, dtype=np.int64),
                          np.asarray(fanin_idx, dtype=np.int64))

        # Input nets: activity and width-independent/width-dependent loads
        # for the module-port dynamic-energy term.
        input_names = list(network.inputs)
        self.input_activity = np.asarray(
            [ctx.info(name).activity for name in input_names])
        self.input_self_plus_wire = np.asarray(
            [1.0 * ctx.info(name).self_cap + ctx.info(name).wire_cap
             for name in input_names])
        in_ptr = [0]
        in_idx: List[int] = []
        in_cap: List[float] = []
        in_fixed: List[float] = []
        for name in input_names:
            info = ctx.info(name)
            fixed = 0.0
            for sink, cap in zip(info.fanout_names, info.fanout_input_caps):
                if sink == "":
                    fixed += ctx.BOUNDARY_WIDTH * cap
                else:
                    in_idx.append(self.index[sink])
                    in_cap.append(cap)
            in_fixed.append(fixed)
            in_ptr.append(len(in_idx))
        self.input_fanout = _CSR(np.asarray(in_ptr, dtype=np.int64),
                                 np.asarray(in_idx, dtype=np.int64))
        self.input_fanout_cap = np.asarray(in_cap)
        self.input_fixed_cap = np.asarray(in_fixed)

        #: Array indices in the scalar width search's exact processing
        #: order (``ctx.gates_reversed``). The vectorized level sweep
        #: visits gates in level-contiguous order; budget *repair*
        #: mutates driver budgets as it goes, so replaying repair
        #: corners must follow the scalar order to stay equivalent.
        self.scalar_order = np.asarray(
            [self.index[name] for name in ctx.gates_reversed],
            dtype=np.int64)

    # --- helpers -----------------------------------------------------------

    def python_view(self) -> "PythonView":
        """Plain-Python list mirrors of the adjacency, built lazily.

        The scalar-order budget-repair replay visits gates one at a
        time; per-gate NumPy calls on 2-4-element slices cost ~30x their
        arithmetic, so the replay walks these plain lists instead. Built
        on first use and cached (the arrays are immutable after
        construction).
        """
        view = getattr(self, "_python_view", None)
        if view is None:
            view = PythonView(self)
            self._python_view = view
        return view

    def sweep_plan(self) -> "SweepPlan":
        """The per-level gather constants of the sizing and STA sweeps.

        Built on first use and cached, like :meth:`python_view`; every
        kernel that walks the levels (width sizing, STA, energy, the
        incremental engine's refresh) reads its width-independent
        constants from here instead of re-slicing them per call.
        """
        plan = getattr(self, "_sweep_plan", None)
        if plan is None:
            plan = SweepPlan(self)
            self._sweep_plan = plan
        return plan

    def output_rows(self) -> np.ndarray:
        """The rows of the primary outputs that are logic gates.

        Validated once, on first use, and cached: an output that is a
        primary input is left out (it arrives at 0.0, which never wins
        the critical-delay maximum); an output that is neither a gate
        nor a primary input raises :class:`~repro.errors.TimingError`.
        """
        rows = getattr(self, "_output_rows", None)
        if rows is None:
            network = self.ctx.network
            found = []
            for name in network.outputs:
                position = self.index.get(name)
                if position is not None:
                    found.append(position)
                elif not network.gate(name).is_input:
                    raise TimingError(
                        f"output {name!r} is neither a logic gate nor a "
                        f"primary input")
            rows = np.asarray(found, dtype=np.int64)
            self._output_rows = rows
        return rows

    def widths_to_array(self, widths: Dict[str, float]) -> np.ndarray:
        """A ``{name: w}`` map in processing order."""
        return np.asarray([widths[name] for name in self.gate_names])

    def array_to_widths(self, array: np.ndarray) -> Dict[str, float]:
        return {name: float(array[i])
                for i, name in enumerate(self.gate_names)}

    def budgets_to_array(self, budgets: Dict[str, float]) -> np.ndarray:
        return np.asarray([budgets[name] for name in self.gate_names])

    def values_to_array(self, value: "float | Mapping[str, float]"
                        ) -> "float | np.ndarray":
        """A per-gate value (scalar or ``{name: v}`` map) in array order.

        Scalars pass through unchanged so downstream kernels keep the
        exact scalar arithmetic of the global-voltage hot path; mappings
        become vectors aligned with :attr:`gate_names`.
        """
        if isinstance(value, Mapping):
            return np.asarray([value[name] for name in self.gate_names],
                              dtype=float)
        return float(value)


class PythonView:
    """Plain-Python (list) mirrors of an :class:`ArrayContext`.

    See :meth:`ArrayContext.python_view`. Every attribute is a built-in
    ``list`` (or ``float``), so the repair replay's per-gate loop runs
    without NumPy scalar-boxing overhead.
    """

    def __init__(self, arrays: ArrayContext):
        self.boundary_width = float(arrays.ctx.BOUNDARY_WIDTH)
        self.fanout_ptr: List[int] = arrays.fanout.ptr.tolist()
        self.fanout_idx: List[int] = arrays.fanout.indices.tolist()
        self.fanout_cap: List[float] = arrays.fanout_cap.tolist()
        self.branch_res: List[float] = arrays.branch_res.tolist()
        self.branch_cap: List[float] = arrays.branch_cap.tolist()
        self.branch_flight: List[float] = arrays.branch_flight.tolist()
        self.wire_cap: List[float] = arrays.wire_cap.tolist()
        self.boundary_cap: List[float] = arrays.boundary_cap.tolist()
        self.self_cap: List[float] = arrays.self_cap.tolist()
        self.fanin_ptr: List[int] = arrays.fanin.ptr.tolist()
        self.fanin_idx: List[int] = arrays.fanin.indices.tolist()
        self.scalar_order: List[int] = arrays.scalar_order.tolist()


class Segments:
    """Row-wise reduction layout of one CSR slice.

    ``reduce(op, values)`` applies ``op.reduceat`` along the last axis
    of ``values`` (one entry per CSR entry, any leading design axis) and
    returns one value per row; rows without entries read ``0.0``. The
    starts and the empty-row mask are computed once, here.
    """

    __slots__ = ("rows", "starts", "nonempty")

    def __init__(self, ptr: np.ndarray):
        nonempty = np.diff(ptr) > 0
        self.rows = len(ptr) - 1
        self.starts = ptr[:-1][nonempty]
        #: None when every row has entries (the result is reduceat's).
        self.nonempty = None if nonempty.all() else nonempty

    def reduce(self, op, values: np.ndarray) -> np.ndarray:
        if self.nonempty is None:
            return op.reduceat(values, self.starts, axis=-1)
        result = np.zeros(values.shape[:-1] + (self.rows,))
        if self.starts.size:
            result[..., self.nonempty] = op.reduceat(values, self.starts,
                                                     axis=-1)
        return result


class FanoutRows:
    """Width-independent constants of the fanout gather of rows
    ``start:stop``.

    :meth:`parasitics` reads sink widths from a *padded* width vector
    (see :meth:`SweepPlan.pad`): the boundary sentinel points at the
    extra slot ``n``, which holds ``BOUNDARY_WIDTH``, so the gather is
    one fancy index with no mask. Boundary receivers' caps are already
    folded into ``boundary_cap``, so their entries in ``gate_caps`` are
    0. The flight maxima do not depend on widths and are reduced once.
    """

    __slots__ = ("start", "stop", "sinks", "caps", "gate_caps", "res",
                 "half_branch_cap", "fixed_cap", "flight", "segments")

    def __init__(self, arrays: ArrayContext, start: int, stop: int):
        ptr = arrays.fanout.ptr
        lo, hi = ptr[start], ptr[stop]
        is_gate = arrays.fanout_is_gate[lo:hi]
        self.start = start
        self.stop = stop
        self.sinks = np.where(is_gate, arrays.fanout.indices[lo:hi],
                              arrays.n_gates)
        self.caps = arrays.fanout_cap[lo:hi]
        self.gate_caps = np.where(is_gate, self.caps, 0.0)
        self.res = arrays.branch_res[lo:hi]
        self.half_branch_cap = 0.5 * arrays.branch_cap[lo:hi]
        self.fixed_cap = (arrays.wire_cap[start:stop]
                          + arrays.boundary_cap[start:stop])
        self.segments = Segments(ptr[start:stop + 1] - lo)
        self.flight = self.segments.reduce(np.maximum,
                                           arrays.branch_flight[lo:hi])
        self.flight.flags.writeable = False  # shared with every caller

    def parasitics(self, padded_w: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ext_cap, wire_rc, flight)`` of the rows at these widths.

        ``padded_w`` is ``(n + 1,)`` or ``(B, n + 1)``; the results
        carry the same leading axis, except ``flight`` (always 1-D).
        """
        sink_w = padded_w[..., self.sinks]
        ext = self.fixed_cap + self.segments.reduce(
            np.add, sink_w * self.gate_caps)
        rc = self.segments.reduce(
            np.maximum, self.res * (self.half_branch_cap + sink_w * self.caps))
        return ext, rc, self.flight


class FaninRows:
    """The fanin gather of rows ``start:stop`` (the forward STA step)."""

    __slots__ = ("start", "stop", "fanins", "segments")

    def __init__(self, arrays: ArrayContext, start: int, stop: int):
        ptr = arrays.fanin.ptr
        lo, hi = ptr[start], ptr[stop]
        self.start = start
        self.stop = stop
        self.fanins = arrays.fanin.indices[lo:hi]
        self.segments = Segments(ptr[start:stop + 1] - lo)


class SweepPlan:
    """Per-level constants of the level sweeps, built once per circuit.

    See :meth:`ArrayContext.sweep_plan`. ``levels`` and ``fanin_levels``
    follow :attr:`ArrayContext.level_slices` (processing order); ``full``
    covers every row at once (STA and energy). ``fanin`` reduces over
    each gate's logic-gate fanins (the sizing slope term) and
    ``input_nets`` over each primary input's gate receivers (the
    input-net load). The ``floor_*`` arrays
    hold the width-dependent terms of the delay floor behind the
    repair's infeasibility certificate: every gate at ``w_max`` driving
    sinks at ``w_min``.
    """

    def __init__(self, arrays: ArrayContext):
        n = arrays.n_gates
        tech = arrays.ctx.tech
        self.boundary_width = float(arrays.ctx.BOUNDARY_WIDTH)
        self.levels = tuple(FanoutRows(arrays, start, stop)
                            for start, stop in arrays.level_slices)
        self.fanin_levels = tuple(FaninRows(arrays, start, stop)
                                  for start, stop in arrays.level_slices)
        self.full = FanoutRows(arrays, 0, n)
        self.fanin = Segments(arrays.fanin.ptr)
        self.input_nets = Segments(arrays.input_fanout.ptr)
        ext, rc, _ = self.full.parasitics(
            self.pad(np.full(n, tech.width_min)))
        #: ``w_max * self_cap + ext`` with every gate sink at ``w_min``.
        self.floor_load = tech.width_max * arrays.self_cap + ext
        self.floor_rc = rc

    def pad(self, w: np.ndarray) -> np.ndarray:
        """``w`` (``(n,)`` or ``(B, n)``) with the boundary slot appended."""
        pad = np.full(w.shape[:-1] + (1,), self.boundary_width)
        return np.concatenate((w, pad), axis=-1)
