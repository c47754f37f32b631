"""Vectorized sizing, STA and energy over an :class:`ArrayContext`.

``Vdd``/``Vth`` may be global scalars (the hot loop of Procedure 2) or
per-gate values — a ``{name: value}`` mapping or a vector in array order
— so multi-Vth and multi-Vdd searches run on the same kernels. Formulas
mirror ``repro.optimize.width_search`` / ``repro.timing`` /
``repro.power`` term by term; the equivalence tests assert agreement to
float round-off on every benchmark circuit.

Per-gate transistor currents come from the array device model
(:mod:`repro.technology.array_model`), which reproduces the scalar
reference model (:mod:`repro.technology.mosfet` /
:mod:`repro.technology.leakage`) bit for bit on every element.

Budget repair (``repair_ceiling``) runs inside the kernel: when the
vectorized level sweep hits an under-budgeted gate, sizing restarts as a
replay in the scalar search's exact processing order (repair mutates
driver budgets sequentially, so order is semantics), with the same
4-iteration deficit shift and the same full-STA re-verification. A gate
that stays unsizable even after repair aborts the replay immediately —
the corner is definitively infeasible and only the verdict is
observable, so the remaining widths need not be produced (they are left
at 1.0, unlike the scalar path's ``w_max`` placeholders).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple, Union

import numpy as np

from repro.errors import OptimizationError, TimingError
from repro.fastpath.arrays import ArrayContext, _CSR
from repro.obs import trace
from repro.obs.instrument import (
    BUDGET_REPAIRS,
    DELAY_MODEL_CALLS,
    ENERGY_EVALUATIONS,
    STA_CALLS,
    WIDTH_SIZINGS,
    seam,
)
from repro.obs.metrics import current_metrics
from repro.technology import array_model, leakage, mosfet
from repro.timing.delay_model import slope_coefficient

#: Smallest budget (s) a driver may be squeezed to during repair
#: (mirrors ``repro.optimize.width_search._MIN_BUDGET``).
_MIN_BUDGET = 1e-15

#: A global voltage, a per-gate map, or a vector in array order.
Voltage = Union[float, Mapping[str, float], np.ndarray]


def _as_values(arrays: ArrayContext, value: Voltage) -> "float | np.ndarray":
    """Normalize a voltage argument: scalar stays scalar, else a vector."""
    if isinstance(value, np.ndarray):
        if value.shape != (arrays.n_gates,):
            raise OptimizationError(
                f"voltage vector has shape {value.shape}, "
                f"expected ({arrays.n_gates},)")
        return value
    return arrays.values_to_array(value)


def _currents(arrays: ArrayContext, vdd, vth) -> Tuple[np.ndarray, np.ndarray]:
    """Per-gate ``(drain_current, off_current)`` per unit width.

    Scalar voltages go straight through the scalar reference model (the
    single-corner hot path); vectors go through the array device model,
    whose every element is ``==`` to the scalar model's, so the physics
    is bit-identical between engines in both modes.
    """
    tech = arrays.ctx.tech
    if not isinstance(vdd, np.ndarray) and not isinstance(vth, np.ndarray):
        return (mosfet.drain_current_per_width(tech, vdd, vth),
                leakage.off_current_per_width(tech, vth, vds=vdd))
    return array_model.currents(tech, vdd, vth)


def _drive_per_width(arrays: ArrayContext, vdd, vth):
    """Vectorized ``effective_drive_per_width`` over all gates."""
    tech = arrays.ctx.tech
    current, off = _currents(arrays, vdd, vth)
    stack = 1.0 + tech.stack_derating * (arrays.fanin_count - 1)
    return current / stack - arrays.fanin_count * off


def _slope_coefficients(arrays: ArrayContext, vdd, vth):
    """``slope_coefficient`` elementwise (pure arithmetic, so exact)."""
    tech = arrays.ctx.tech
    if not isinstance(vdd, np.ndarray) and not isinstance(vth, np.ndarray):
        return slope_coefficient(tech, vdd, vth)
    return array_model.slope_coefficients(tech, vdd, vth)


def _at(value, index: int) -> float:
    """One gate's value out of a scalar-or-vector quantity."""
    if isinstance(value, np.ndarray):
        return float(value[index])
    return value


def _sl(value, start: int, stop: int):
    """A level slice of a scalar-or-vector quantity."""
    if isinstance(value, np.ndarray):
        return value[start:stop]
    return value


def _external_caps(arrays: ArrayContext, w: np.ndarray, start: int,
                   stop: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ext_cap, wire_rc, flight) for gate rows ``start:stop``.

    Boundary branches carry the sentinel index ``-1``; their receiver
    cap is pre-folded into ``boundary_cap``. The width gather uses the
    precomputed clamp-to-0 ``fanout_safe_idx`` (one flat gather + a
    ``where``), replacing the boolean-mask double gather that was
    superlinear on wide-fanout rows; the selected values are unchanged.
    """
    lo = arrays.fanout.ptr[start]
    hi = arrays.fanout.ptr[stop]
    idx = arrays.fanout.indices[lo:hi]
    is_gate = arrays.fanout_is_gate[lo:hi]
    sink_w = np.where(is_gate, w[arrays.fanout_safe_idx[lo:hi]],
                      arrays.ctx.BOUNDARY_WIDTH)
    cap_entries = np.where(is_gate,
                           sink_w * arrays.fanout_cap[lo:hi], 0.0)
    rc_entries = arrays.branch_res[lo:hi] * (
        0.5 * arrays.branch_cap[lo:hi]
        + sink_w * arrays.fanout_cap[lo:hi])
    flight_entries = arrays.branch_flight[lo:hi]

    view = _CSR(arrays.fanout.ptr[start:stop + 1] - lo, idx)
    ext = (arrays.wire_cap[start:stop] + arrays.boundary_cap[start:stop]
           + _segment(view, cap_entries, np.add, 0.0))
    rc = _segment(view, rc_entries, np.maximum, 0.0)
    flight = _segment(view, flight_entries, np.maximum, 0.0)
    return ext, rc, flight


def _segment(csr: _CSR, values: np.ndarray, op, empty: float) -> np.ndarray:
    result = np.full(len(csr.ptr) - 1, empty)
    lengths = np.diff(csr.ptr)
    nonempty = lengths > 0
    if values.size and nonempty.any():
        result[nonempty] = op.reduceat(values, csr.ptr[:-1][nonempty])
    return result


@dataclass(frozen=True)
class FastSizing:
    """Vectorized sizing outcome (processing order = reverse topological).

    On an infeasible outcome the widths are not meaningful (the repair
    replay aborts at the first definitively unsizable gate); only the
    verdict and the repaired-gate list are part of the contract.
    """

    widths: np.ndarray
    feasible: bool
    #: Gates whose budgets were repaired (deficit moved onto drivers).
    repaired: Tuple[str, ...] = ()

    def widths_map(self, arrays: ArrayContext) -> Dict[str, float]:
        return arrays.array_to_widths(self.widths)


def fast_size_widths(arrays: ArrayContext, budgets: np.ndarray,
                     vdd: Voltage, vth: Voltage,
                     method: str = "closed_form",
                     bisect_steps: int = 24,
                     repair_ceiling: float | None = None,
                     warm: np.ndarray | None = None) -> FastSizing:
    """Vectorized minimum-width sizing, optionally with budget repair.

    Without ``repair_ceiling`` this is the pure level sweep (infeasible
    when any budget cannot be met, exactly like the scalar search run
    without repair). With it, under-budgeted gates trigger the scalar-
    order repair replay described in the module docstring, and any
    assignment that used repair is re-verified with a full STA pass
    against the ceiling. ``warm`` (an array-order width vector) seeds
    the ``bisect`` brackets — one extra probe per level, mirroring the
    scalar search gate by gate; the closed-form solver ignores it.
    """
    from repro.fastpath import batch as _batch
    if _batch.is_batch(vdd) or _batch.is_batch(vth):
        if warm is not None:
            raise OptimizationError(
                "warm bisection seeds are not supported on the batched "
                "path; size warm-started searches row by row")
        vdd_b, vth_b, _, n_rows = _batch.normalize_args(arrays, vdd, vth)
        return _batch.batch_size_widths(arrays, budgets, vdd_b, vth_b,
                                        n_rows, method=method,
                                        bisect_steps=bisect_steps,
                                        repair_ceiling=repair_ceiling)
    if method not in ("closed_form", "bisect"):
        raise OptimizationError(f"unknown width-search method {method!r}")
    span_name = "width_bisect" if method == "bisect" else "width_search"
    with trace.span(span_name, method=method, engine="fast"), \
            seam("width_search", counter=WIDTH_SIZINGS):
        return _fast_size_widths(arrays, budgets, vdd, vth, method,
                                 bisect_steps, repair_ceiling, warm)


def _fast_size_widths(arrays: ArrayContext, budgets: np.ndarray,
                      vdd: Voltage, vth: Voltage, method: str,
                      bisect_steps: int,
                      repair_ceiling: float | None,
                      warm: np.ndarray | None = None) -> FastSizing:
    tech = arrays.ctx.tech
    n = arrays.n_gates
    vdd = _as_values(arrays, vdd)
    vth = _as_values(arrays, vth)
    drive = _drive_per_width(arrays, vdd, vth)
    if np.any(drive <= 0.0):
        # Subthreshold contention: some gate cannot switch at any width,
        # and repair cannot help (the scalar path reaches the same
        # verdict after sizing the remaining gates).
        return FastSizing(widths=np.full(n, tech.width_max), feasible=False)

    slope_k = _slope_coefficients(arrays, vdd, vth)
    fanin_budget = arrays.segment_max(arrays.fanin, budgets[
        arrays.fanin.indices], empty=0.0)
    slope = slope_k * fanin_budget

    k_vdd = tech.velocity_saturation_coeff * vdd
    self_term = k_vdd * arrays.self_cap / drive

    w = np.ones(n)
    feasible = True
    for start, stop in arrays.level_slices:
        ext, rc, flight = _external_caps(arrays, w, start, stop)
        if method == "closed_form":
            available = (budgets[start:stop] - slope[start:stop]
                         - rc - flight - self_term[start:stop])
            ext_term = _sl(k_vdd, start, stop) * ext / _sl(drive, start, stop)
            with np.errstate(divide="ignore", invalid="ignore"):
                needed = np.where(available > 0.0, ext_term / available,
                                  np.inf)
        else:
            needed = _bisect_level(arrays, budgets, slope, rc, flight,
                                   k_vdd, drive, ext, start, stop,
                                   bisect_steps, warm)
        failed = needed > tech.width_max
        if np.any(failed):
            feasible = False
            if repair_ceiling is not None:
                # Restart as a scalar-order replay with repair enabled.
                return _size_with_repair(arrays, budgets, vdd, vth, drive,
                                         slope_k, k_vdd, method,
                                         bisect_steps, repair_ceiling, warm)
            needed = np.minimum(needed, tech.width_max)
        w[start:stop] = np.maximum(needed, tech.width_min)
    return FastSizing(widths=w, feasible=feasible)


def _bisect_level(arrays: ArrayContext, budgets: np.ndarray,
                  slope: np.ndarray, rc: np.ndarray, flight: np.ndarray,
                  k_vdd, drive, ext: np.ndarray, start: int, stop: int,
                  steps: int, warm: np.ndarray | None = None) -> np.ndarray:
    """The paper's M-step width bisection, vectorized over one level.

    Identical decision sequence to ``width_search._bisect_width`` gate
    by gate (same delay form, same midpoint updates, same warm-probe
    rule); returns ``inf`` for gates infeasible even at ``w_max`` so the
    caller's clamp/repair logic is shared with the closed-form solver.
    """
    tech = arrays.ctx.tech
    k_lvl = _sl(k_vdd, start, stop)
    drive_lvl = _sl(drive, start, stop)
    self_lvl = arrays.self_cap[start:stop]
    fixed = slope[start:stop] + rc + flight
    budget = budgets[start:stop]

    def delay_at(width) -> np.ndarray:
        load = width * self_lvl + ext
        return fixed + k_lvl * load / (drive_lvl * width)

    feasible_at_max = delay_at(tech.width_max) <= budget
    done_at_min = delay_at(tech.width_min) <= budget

    low = np.full(stop - start, tech.width_min)
    high = np.full(stop - start, tech.width_max)
    if warm is not None:
        warm_lvl = warm[start:stop]
        probe = (warm_lvl > low) & (warm_lvl < high)
        if np.any(probe):
            meets = delay_at(np.where(probe, warm_lvl, high)) <= budget
            high = np.where(probe & meets, warm_lvl, high)
            low = np.where(probe & ~meets, warm_lvl, low)
    for _ in range(steps):
        mid = 0.5 * (low + high)
        meets = delay_at(mid) <= budget
        high = np.where(meets, mid, high)
        low = np.where(meets, low, mid)
    return np.where(feasible_at_max,
                    np.where(done_at_min, tech.width_min, high),
                    np.inf)


# -- scalar-order repair replay --------------------------------------------
#
# The replay visits gates one at a time (repair mutates driver budgets
# sequentially, so order is semantics) — per-gate NumPy calls on tiny
# slices would dominate its runtime, so everything below runs on the
# plain-list :class:`~repro.fastpath.arrays.PythonView` mirrors and
# built-in floats.


def _row_parasitics(view, w: List[float], i: int
                    ) -> Tuple[float, float, float]:
    """(wire_rc, flight, external_cap) of one gate at current widths."""
    ext = view.wire_cap[i] + view.boundary_cap[i]
    wire_rc = 0.0
    flight = 0.0
    idx = view.fanout_idx
    caps = view.fanout_cap
    for k in range(view.fanout_ptr[i], view.fanout_ptr[i + 1]):
        sink = idx[k]
        if sink >= 0:
            sink_w = w[sink]
            ext += sink_w * caps[k]
        else:
            sink_w = view.boundary_width
        rc = view.branch_res[k] * (0.5 * view.branch_cap[k]
                                   + sink_w * caps[k])
        if rc > wire_rc:
            wire_rc = rc
        if view.branch_flight[k] > flight:
            flight = view.branch_flight[k]
    return wire_rc, flight, ext


def _fanin_budget(view, working: List[float], i: int) -> float:
    budget = 0.0
    idx = view.fanin_idx
    for k in range(view.fanin_ptr[i], view.fanin_ptr[i + 1]):
        if working[idx[k]] > budget:
            budget = working[idx[k]]
    return budget


def _gate_floor_fast(view, i: int, w: List[float], drive: List[float],
                     k_vdd: List[float]) -> float:
    """Per-gate delay floor (mirrors ``width_search._gate_floor``)."""
    drive_i = drive[i]
    if drive_i <= 0.0:
        return math.inf
    wire_rc, flight, _ = _row_parasitics(view, w, i)
    return k_vdd[i] * view.self_cap[i] / drive_i + wire_rc + flight


def _gate_width(tech, method: str, bisect_steps: int, budget: float,
                slope: float, wire_rc: float, flight: float,
                self_term: float, ext_term: float, self_cap: float,
                ext_cap: float, k_i: float, drive_i: float,
                warm_width: float | None = None) -> float | None:
    """One gate's minimum feasible width, or None (both solvers)."""
    if method == "closed_form":
        available = budget - slope - wire_rc - flight - self_term
        if available <= 0.0:
            return None
        width = ext_term / available
        if width > tech.width_max:
            return None
        return max(width, tech.width_min)

    fixed = slope + wire_rc + flight

    def delay_at(width: float) -> float:
        load = width * self_cap + ext_cap
        return fixed + k_i * load / (drive_i * width)

    if delay_at(tech.width_max) > budget:
        return None
    if delay_at(tech.width_min) <= budget:
        return tech.width_min
    low, high = tech.width_min, tech.width_max
    if warm_width is not None and low < warm_width < high:
        if delay_at(warm_width) <= budget:
            high = warm_width
        else:
            low = warm_width
    for _ in range(bisect_steps):
        mid = 0.5 * (low + high)
        if delay_at(mid) <= budget:
            high = mid
        else:
            low = mid
    return high


def _repair_gate(view, tech, i: int, w: List[float],
                 working: List[float], drive: List[float],
                 slope_k: List[float], k_vdd: List[float],
                 wire_rc: float, flight: float, ext_cap: float
                 ) -> float | None:
    """Shift gate ``i``'s budget deficit onto its drivers.

    Faithful port of ``width_search._attempt_repair``: the gate takes
    the budget it needs at 80 % of ``w_max``; the same delta comes off
    each logic-gate driver, never below 1.05x the driver's delay floor.
    """
    fanins = view.fanin_idx[view.fanin_ptr[i]:view.fanin_ptr[i + 1]]

    drive_i = drive[i]
    k_i = k_vdd[i]
    slope_k_i = slope_k[i]
    self_term = k_i * view.self_cap[i] / drive_i
    ext_term = k_i * ext_cap / drive_i
    floors = [1.05 * _gate_floor_fast(view, fanin, w, drive, k_vdd)
              for fanin in fanins]

    for _ in range(4):
        slope = slope_k_i * _fanin_budget(view, working, i)
        needed = (slope + wire_rc + flight + self_term
                  + ext_term / (0.8 * tech.width_max))
        delta = needed - working[i]
        if delta <= 0.0:
            break
        working[i] += delta
        for fanin, floor in zip(fanins, floors):
            working[fanin] = max(working[fanin] - delta, floor,
                                 _MIN_BUDGET)

    slope = slope_k_i * _fanin_budget(view, working, i)
    available = working[i] - slope - wire_rc - flight - self_term
    if available <= 0.0:
        return None
    width = ext_term / available
    if width > tech.width_max:
        return None
    return max(width, tech.width_min)


def _as_list(value, n: int) -> List[float]:
    """A per-gate quantity as a plain list (scalars broadcast)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return [float(value)] * n


def _size_with_repair(arrays: ArrayContext, budgets: np.ndarray,
                      vdd, vth, drive, slope_k, k_vdd, method: str,
                      bisect_steps: int, repair_ceiling: float,
                      warm: np.ndarray | None = None,
                      verify: bool = True) -> FastSizing:
    """Replay sizing in scalar processing order with repair enabled.

    Aborts at the first gate that stays unsizable after repair — the
    corner is then definitively infeasible and widths are unobservable.

    ``verify=False`` skips the full-STA check of a repaired design and
    reports it feasible *pending verification* — the batched path
    collects those rows and verifies them all in one ``batch_sta`` call
    (bit-identical per row, same counter totals).
    """
    tech = arrays.ctx.tech
    n = arrays.n_gates
    view = arrays.python_view()
    working = budgets.tolist()
    w = [1.0] * n
    drive_l = _as_list(drive, n)
    slope_k_l = _as_list(slope_k, n)
    k_vdd_l = _as_list(k_vdd, n)
    self_cap = view.self_cap
    repaired: List[int] = []

    for i in view.scalar_order:
        drive_i = drive_l[i]
        budget_i = working[i]
        slope = slope_k_l[i] * _fanin_budget(view, working, i)
        wire_rc, flight, ext_cap = _row_parasitics(view, w, i)
        k_i = k_vdd_l[i]
        self_term = k_i * self_cap[i] / drive_i
        ext_term = k_i * ext_cap / drive_i

        width = _gate_width(tech, method, bisect_steps, budget_i, slope,
                            wire_rc, flight, self_term, ext_term,
                            self_cap[i], ext_cap, k_i, drive_i,
                            None if warm is None else float(warm[i]))
        if width is None:
            width = _repair_gate(view, tech, i, w, working, drive_l,
                                 slope_k_l, k_vdd_l, wire_rc, flight,
                                 ext_cap)
            if width is None:
                # Unrepairable: the verdict is already infeasible.
                return FastSizing(widths=np.asarray(w), feasible=False,
                                  repaired=_names(arrays, repaired))
            repaired.append(i)
        w[i] = width

    widths = np.asarray(w)
    feasible = True
    if repaired:
        current_metrics().incr(BUDGET_REPAIRS, len(repaired))
        # Repairs perturb the budget bookkeeping the per-gate guarantees
        # rest on; verify the actual design with a full STA pass.
        if verify:
            critical, _ = fast_sta(arrays, vdd, vth, widths)
            if critical > repair_ceiling * (1.0 + 1e-9):
                feasible = False
    return FastSizing(widths=widths, feasible=feasible,
                      repaired=_names(arrays, repaired))


def _names(arrays: ArrayContext, indices: List[int]) -> Tuple[str, ...]:
    return tuple(arrays.gate_names[i] for i in indices)


# -- STA and energy --------------------------------------------------------


def fast_sta(arrays: ArrayContext, vdd: Voltage, vth: Voltage,
             w: np.ndarray) -> Tuple[float, np.ndarray]:
    """Vectorized STA: ``(critical delay, per-gate delays)``.

    Matches ``repro.timing.sta.analyze_timing`` (primary inputs ideal).
    An output that is itself a primary input arrives at 0.0, exactly as
    in the scalar pass; an output missing from both the gate index and
    the primary inputs raises :class:`~repro.errors.TimingError`.

    With a ``(B, n)`` width batch (or :class:`~repro.fastpath.batch
    .BatchValue` voltages) this dispatches to the batched kernel and
    returns ``(critical (B,), delays (B, n))`` — bit-identical per row.
    """
    from repro.fastpath import batch as _batch
    if w.ndim == 2 or _batch.is_batch(vdd) or _batch.is_batch(vth):
        vdd_b, vth_b, w2, n_rows = _batch.normalize_args(arrays, vdd, vth, w)
        return _batch.batch_sta(arrays, vdd_b, vth_b, w2, n_rows)
    tech = arrays.ctx.tech
    n = arrays.n_gates
    with seam("sta", counter=STA_CALLS):
        vdd = _as_values(arrays, vdd)
        vth = _as_values(arrays, vth)
        drive = _drive_per_width(arrays, vdd, vth)
        slope_k = _slope_coefficients(arrays, vdd, vth)
        k_vdd = tech.velocity_saturation_coeff * vdd

        ext, rc, flight = _external_caps(arrays, w, 0, n)
        load = w * arrays.self_cap + ext
        with np.errstate(divide="ignore", invalid="ignore"):
            switching = np.where(drive > 0.0, k_vdd * load / (drive * w),
                                 np.inf)
        fixed = switching + rc + flight

        delays = np.zeros(n)
        arrivals = np.zeros(n)
        for start, stop in reversed(arrays.level_slices):
            lo = arrays.fanin.ptr[start]
            hi = arrays.fanin.ptr[stop]
            idx = arrays.fanin.indices[lo:hi]
            view = _CSR(arrays.fanin.ptr[start:stop + 1] - lo, idx)
            max_fanin_delay = _segment(view, delays[idx], np.maximum, 0.0)
            max_fanin_arrival = _segment(view, arrivals[idx], np.maximum, 0.0)
            delays[start:stop] = (_sl(slope_k, start, stop) * max_fanin_delay
                                  + fixed[start:stop])
            arrivals[start:stop] = max_fanin_arrival + delays[start:stop]
        current_metrics().incr(DELAY_MODEL_CALLS, n)

    network = arrays.ctx.network
    critical = 0.0
    for name in network.outputs:
        position = arrays.index.get(name)
        if position is None:
            if not network.gate(name).is_input:
                raise TimingError(
                    f"output {name!r} is neither a logic gate nor a "
                    f"primary input")
            arrival = 0.0  # ideal primary input feeding an output port
        else:
            arrival = float(arrivals[position])
        critical = max(critical, arrival)
    return critical, delays


def fast_total_energy(arrays: ArrayContext, vdd: Voltage, vth: Voltage,
                      w: np.ndarray, frequency: float
                      ) -> Tuple[float, float]:
    """Vectorized eqs. A1 + A2: ``(static, dynamic)`` totals (J/cycle).

    With per-gate rails the output swing is the driving gate's own rail
    and primary-input nets swing at the module IO rail (the highest rail
    in use), mirroring ``repro.power.energy``.

    With a ``(B, n)`` width batch (or batched voltages) this dispatches
    to the batched kernel and returns ``(static (B,), dynamic (B,))``.
    """
    from repro.fastpath import batch as _batch
    if w.ndim == 2 or _batch.is_batch(vdd) or _batch.is_batch(vth):
        vdd_b, vth_b, w2, n_rows = _batch.normalize_args(arrays, vdd, vth, w)
        return _batch.batch_total_energy(arrays, vdd_b, vth_b, w2,
                                         frequency, n_rows)
    if frequency <= 0.0:
        raise OptimizationError(f"frequency must be > 0, got {frequency}")
    with seam("energy", counter=ENERGY_EVALUATIONS):
        vdd = _as_values(arrays, vdd)
        vth = _as_values(arrays, vth)
        _, off = _currents(arrays, vdd, vth)
        static = float(np.sum(vdd * w * off / frequency))

        ext, _, _ = _external_caps(arrays, w, 0, arrays.n_gates)
        load = w * arrays.self_cap + ext
        dynamic = float(np.sum(0.5 * arrays.activity * vdd * vdd * load))

        # Input-net term (module ports drive gate inputs and wire).
        io_rail = float(np.max(vdd)) if isinstance(vdd, np.ndarray) else vdd
        sink_caps = arrays.segment_sum(
            arrays.input_fanout,
            w[arrays.input_fanout.indices] * arrays.input_fanout_cap)
        input_load = (arrays.input_self_plus_wire + arrays.input_fixed_cap
                      + sink_caps)
        dynamic += float(np.sum(0.5 * arrays.input_activity
                                * io_rail * io_rail * input_load))
    return static, dynamic
