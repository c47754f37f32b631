"""Vectorized sizing, STA and energy over an :class:`ArrayContext`.

**One kernel set, two ranks.** Each kernel is written once, slicing
levels with ``[..., start:stop]`` and reducing over the last axis, so
the same body runs a single design and a batch of ``B`` designs:

* one design: widths ``(n,)``; ``Vdd``/``Vth`` global floats or
  per-gate values (a ``{name: value}`` mapping or an ``(n,)`` vector in
  array order); scalar results (``float``, ``bool``);
* a batch: widths ``(B, n)`` (or ``(1, n)`` shared by every row) and
  voltages as :class:`~repro.fastpath.batch.BatchValue` — a float,
  per-row scalars ``(B, 1)``, per-gate rows ``(1, n)`` / ``(B, n)``;
  ``(B,)`` results. A ``(B, n)`` width array or a batched voltage
  selects this rank; :mod:`repro.fastpath.batch` normalizes the
  arguments.

A single design stays 1-D; it is never reshaped to ``(1, n)``, which
costs time at these array sizes.

**Bit identity.** Every row of a batched result is ``==`` to the
single-design call on that row: elementwise IEEE arithmetic is
broadcast-invariant, ``reduceat`` and ``np.sum`` along the last axis
reduce each row exactly as they reduce the 1-D array, and transistor
currents come from the array device model
(:mod:`repro.technology.array_model`), which reproduces the scalar
reference model (:mod:`repro.technology.mosfet` /
:mod:`repro.technology.leakage`) bit for bit on every element. Formulas
mirror ``repro.optimize.width_search`` / ``repro.timing`` /
``repro.power`` term by term; the scalar engine sums the same terms in
other associations, so it agrees to float round-off.

The level sweeps (sizing, STA, energy) read their width-independent
per-level constants from the circuit's
:class:`~repro.fastpath.arrays.SweepPlan`.

Budget repair (``repair_ceiling``) runs inside the kernel. The level
sweep stops once every design either has contention (a gate that cannot
switch) or hit an under-budgeted gate; for one design, that is the first
failing level. Those designs then replay sizing one at a time in the
scalar search's exact processing order (repair mutates driver budgets
sequentially, so order is semantics), with the same 4-iteration deficit
shift, and every repaired design is verified with one STA call against
the ceiling. Before the replay walks the circuit, a critical-delay floor
(every gate at ``w_max``, every sink at ``w_min``) may certify that no
sizing can pass that verification; the corner is then infeasible with
nothing repaired, exactly as in the scalar reference. A gate that stays
unsizable even after repair aborts the replay immediately — the corner
is definitively infeasible and only the verdict is observable, so the
remaining widths need not be produced (they are left at 1.0, unlike the
scalar path's ``w_max`` placeholders).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple, Union

import numpy as np

from repro.errors import OptimizationError
from repro.fastpath.arrays import ArrayContext
from repro.fastpath.batch import BatchValue, is_batch, normalize_args
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

#: The critical-delay floor above ``repair_ceiling * _CERTIFY_FACTOR``
#: certifies a corner infeasible (mirrors
#: ``repro.optimize.width_search._CERTIFY_FACTOR``).
_CERTIFY_FACTOR = (1.0 + 1e-9) * (1.0 + 1e-6)

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


def _normalize(arrays: ArrayContext, vdd, vth, w=None):
    """``(vdd, vth, w, lead)`` in kernel form.

    ``lead`` is ``()`` for one design (float or ``(n,)`` voltages,
    ``(n,)`` widths) and ``(B,)`` for a batch (``BatchValue.values``,
    ``(B, n)`` or ``(1, n)`` widths).
    """
    if (w is not None and w.ndim == 2) or is_batch(vdd) or is_batch(vth):
        vdd, vth, w, rows = normalize_args(arrays, vdd, vth, w)
        return vdd.values, vth.values, w, (rows,)
    return _as_values(arrays, vdd), _as_values(arrays, vth), w, ()


def _design(value, b: int):
    """Design ``b`` of a batched quantity, in single-design form."""
    return BatchValue(value, per_gate=np.shape(value)[-1:] != (1,)).row(b)


def _designs(value, rows: np.ndarray):
    """Designs ``rows`` of a batched quantity (shared values as-is)."""
    return BatchValue(value, per_gate=False).take(rows).values


def _per_design(value, lead: Tuple[int, ...]):
    """A per-design quantity at shape ``lead`` (a value shared by every
    design is repeated)."""
    if np.shape(value) == lead:
        return value
    return np.broadcast_to(value, lead)


def _row_sums(terms: np.ndarray, lead: Tuple[int, ...]):
    """Per-design sums of per-gate ``terms``."""
    return _per_design(np.sum(terms, axis=-1), lead)


def _currents(arrays: ArrayContext, vdd, vth) -> Tuple[np.ndarray, np.ndarray]:
    """Per-gate ``(drain_current, off_current)`` per unit width.

    Global voltages go straight through the scalar reference model (the
    single-corner hot path); arrays go through the array device model,
    whose every element is ``==`` to the scalar model's, so the physics
    is bit-identical between engines in both modes.
    """
    tech = arrays.ctx.tech
    if not isinstance(vdd, np.ndarray) and not isinstance(vth, np.ndarray):
        return (mosfet.drain_current_per_width(tech, vdd, vth),
                leakage.off_current_per_width(tech, vth, vds=vdd))
    return array_model.currents(tech, vdd, vth)


def _drive_per_width(arrays: ArrayContext, vdd, vth, currents=None):
    """Vectorized ``effective_drive_per_width`` over all gates.

    ``currents`` shares a :func:`_currents` result already computed for
    these exact voltages (same doubles, no recompute).
    """
    tech = arrays.ctx.tech
    current, off = (_currents(arrays, vdd, vth) if currents is None
                    else currents)
    stack = 1.0 + tech.stack_derating * (arrays.fanin_count - 1)
    return current / stack - arrays.fanin_count * off


def _slope_coefficients(arrays: ArrayContext, vdd, vth):
    """``slope_coefficient`` elementwise (pure arithmetic, so exact)."""
    tech = arrays.ctx.tech
    if not isinstance(vdd, np.ndarray) and not isinstance(vth, np.ndarray):
        return slope_coefficient(tech, vdd, vth)
    return array_model.slope_coefficients(tech, vdd, vth)


def _cols(value, start: int, stop: int):
    """A level slice of a per-gate quantity: a scalar, a per-row scalar
    column ``(B, 1)``, or a per-gate ``(n,)`` / ``(?, n)`` array."""
    if not isinstance(value, np.ndarray) or value.shape[-1] == 1:
        return value
    return value[..., start:stop]


def _loads(arrays: ArrayContext, w: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(load, wire_rc, flight)`` of every gate at widths ``w``; the
    load is the gate's own drain cap plus its external cap."""
    plan = arrays.sweep_plan()
    ext, rc, flight = plan.full.parasitics(plan.pad(w))
    return w * arrays.self_cap + ext, rc, flight


def _fixed_delays(k_vdd, drive, w, load, rc, flight) -> np.ndarray:
    """Each gate's width-dependent delay: switching + wire RC + flight
    (``inf`` where the gate cannot switch). Works on any row subset."""
    with np.errstate(divide="ignore", invalid="ignore"):
        switching = np.where(drive > 0.0, k_vdd * load / (drive * w),
                             np.inf)
    return switching + rc + flight


def _propagate(arrays: ArrayContext, slope_k, fixed: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """The forward level sweep of STA: ``(delays, arrivals)``.

    ``fixed`` is each gate's width-dependent delay (switching + wire RC
    + flight), ``(n,)`` or ``(B, n)``; a gate's delay adds ``slope_k``
    times its slowest fanin's delay, and its arrival adds its delay to
    its latest fanin's arrival (primary-input fanins count 0.0).
    """
    delays = np.zeros(fixed.shape)
    arrivals = np.zeros(fixed.shape)
    for level in reversed(arrays.sweep_plan().fanin_levels):
        start, stop = level.start, level.stop
        max_fanin_delay = level.segments.reduce(
            np.maximum, delays[..., level.fanins])
        max_fanin_arrival = level.segments.reduce(
            np.maximum, arrivals[..., level.fanins])
        delays[..., start:stop] = (_cols(slope_k, start, stop)
                                   * max_fanin_delay
                                   + fixed[..., start:stop])
        arrivals[..., start:stop] = (max_fanin_arrival
                                     + delays[..., start:stop])
    return delays, arrivals


def _critical(arrays: ArrayContext, arrivals: np.ndarray) -> np.ndarray:
    """The latest output arrival per design (``0.0`` at minimum).

    Reads :meth:`ArrayContext.output_rows`, so an output missing from
    both the gate index and the primary inputs raises
    :class:`~repro.errors.TimingError`; an output that is itself a
    primary input arrives at 0.0, exactly as in the scalar pass. NaN
    arrivals never win, as with Python's ``max``.
    """
    return np.fmax.reduce(arrivals[..., arrays.output_rows()], axis=-1,
                          initial=0.0)


def _input_load(arrays: ArrayContext, w: np.ndarray) -> np.ndarray:
    """The switched load of each primary-input net at widths ``w``:
    its self and wire cap, boundary receivers and gate receivers."""
    sink_caps = arrays.sweep_plan().input_nets.reduce(
        np.add, w[..., arrays.input_fanout.indices] * arrays.input_fanout_cap)
    return arrays.input_self_plus_wire + arrays.input_fixed_cap + sink_caps


def _energy_terms(activity: np.ndarray, vdd, w: np.ndarray, off,
                  load: np.ndarray, frequency: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-gate ``(static, dynamic)`` energy terms (eqs. A1, A2) of any
    row subset."""
    return (vdd * w * off / frequency,
            0.5 * activity * vdd * vdd * load)


def _energy_totals(arrays: ArrayContext, vdd, w: np.ndarray,
                   static_terms: np.ndarray, dynamic_terms: np.ndarray,
                   lead: Tuple[int, ...] = ()
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-design ``(static, dynamic)`` totals of the per-gate terms.

    The dynamic total adds the input-net term: module ports drive the
    gate inputs and wire at the module IO rail, the highest rail of the
    design, mirroring ``repro.power.energy``.
    """
    io_rail = (np.max(vdd, axis=-1, keepdims=True)
               if isinstance(vdd, np.ndarray) else vdd)
    input_terms = (0.5 * arrays.input_activity * io_rail * io_rail
                   * _input_load(arrays, w))
    return (_row_sums(static_terms, lead),
            _row_sums(dynamic_terms, lead) + _row_sums(input_terms, lead))


@dataclass(frozen=True)
class FastSizing:
    """Vectorized sizing outcome (processing order = reverse topological).

    For one design: ``widths`` ``(n,)``, ``feasible`` a bool and
    ``repaired`` the repaired gate names. For a batch: ``(B, n)``, a
    ``(B,)`` bool array and one name tuple per design.

    On an infeasible outcome the widths are not meaningful (the repair
    replay aborts at the first definitively unsizable gate); only the
    verdict and the repaired-gate list are part of the contract.
    """

    widths: np.ndarray
    feasible: "bool | np.ndarray"
    #: Gates whose budgets were repaired (deficit moved onto drivers).
    repaired: tuple = ()

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
    without repair). With it, under-budgeted designs take the
    scalar-order repair replay described in the module docstring, and
    any design that used repair is re-verified with a full STA pass
    against the ceiling. ``warm`` (array-order widths, ``(n,)`` or one
    row per design) seeds the ``bisect`` brackets — one extra probe per
    level, mirroring the scalar search gate by gate; the closed-form
    solver ignores it. Batched voltages size one design per row.
    """
    if method not in ("closed_form", "bisect"):
        raise OptimizationError(f"unknown width-search method {method!r}")
    vdd, vth, _, lead = _normalize(arrays, vdd, vth)
    span_name = "width_bisect" if method == "bisect" else "width_search"
    with trace.span(span_name, method=method, engine="fast"), \
            seam("width_search", counter=WIDTH_SIZINGS,
                 calls=lead[0] if lead else 1):
        return _size_widths(arrays, budgets, vdd, vth, lead, method,
                            bisect_steps, repair_ceiling, warm)


def _size_widths(arrays: ArrayContext, budgets: np.ndarray, vdd, vth,
                 lead: Tuple[int, ...], method: str, bisect_steps: int,
                 repair_ceiling: float | None,
                 warm: np.ndarray | None) -> FastSizing:
    tech = arrays.ctx.tech
    n = arrays.n_gates
    drive = _drive_per_width(arrays, vdd, vth)
    # Subthreshold contention: such a design cannot switch at any width,
    # and repair cannot help (the scalar path reaches the same verdict
    # after sizing the remaining gates).
    contention = _per_design(np.any(drive <= 0.0, axis=-1), lead)
    if contention.all():
        return _sizing(np.full(lead + (n,), tech.width_max), ~contention,
                       [()] * contention.size, lead)

    plan = arrays.sweep_plan()
    slope_k = _slope_coefficients(arrays, vdd, vth)
    fanin_budget = plan.fanin.reduce(np.maximum,
                                     budgets[arrays.fanin.indices])
    slope = slope_k * fanin_budget
    k_vdd = tech.velocity_saturation_coeff * vdd

    padded = plan.pad(np.ones(lead + (n,)))
    w = padded[..., :n]
    failed = np.zeros(lead, dtype=bool)
    settled = contention
    with np.errstate(all="ignore"):
        self_term = k_vdd * arrays.self_cap / drive
        # The closed form's ``budget - slope - rc - flight - self`` runs
        # left to right; its first difference is width-independent.
        headroom = budgets - slope
        for level in plan.levels:
            start, stop = level.start, level.stop
            ext, rc, flight = level.parasitics(padded)
            if method == "closed_form":
                available = (headroom[..., start:stop] - rc - flight
                             - self_term[..., start:stop])
                ext_term = (_cols(k_vdd, start, stop) * ext
                            / drive[..., start:stop])
                needed = np.where(available > 0.0, ext_term / available,
                                  np.inf)
            else:
                needed = _bisect_level(arrays, budgets, slope, rc, flight,
                                       k_vdd, drive, ext, start, stop,
                                       bisect_steps, warm)
            over = needed > tech.width_max
            if over.any():
                failed |= over.any(axis=-1)
                settled = failed | contention
                if repair_ceiling is not None and settled.all():
                    break  # every design is left to the replay (or lost)
                needed = np.minimum(needed, tech.width_max)
            w[..., start:stop] = np.maximum(needed, tech.width_min)

    feasible = np.array(~settled)  # a 0-d array for one design: writable
    if contention.any():
        w[contention] = tech.width_max
    repaired: List[Tuple[str, ...]] = [()] * feasible.size
    if repair_ceiling is not None and failed.any():
        _replay(arrays, budgets, vdd, vth, lead, w, feasible, repaired,
                np.flatnonzero(failed & ~contention), drive, slope_k,
                k_vdd, method, bisect_steps, repair_ceiling, warm)
    return _sizing(w, feasible, repaired, lead)


def _sizing(w: np.ndarray, feasible: np.ndarray,
            repaired: List[Tuple[str, ...]], lead) -> FastSizing:
    if not lead:
        return FastSizing(widths=w, feasible=bool(feasible),
                          repaired=repaired[0])
    return FastSizing(widths=np.ascontiguousarray(w), feasible=feasible,
                      repaired=tuple(repaired))


def _replay(arrays: ArrayContext, budgets: np.ndarray, vdd, vth, lead,
            w: np.ndarray, feasible: np.ndarray,
            repaired: List[Tuple[str, ...]], rows: np.ndarray, drive,
            slope_k, k_vdd, method: str, bisect_steps: int,
            repair_ceiling: float, warm: np.ndarray | None) -> None:
    """Replay designs ``rows`` with repair, then verify the repaired
    ones with one STA call; updates ``w``, ``feasible`` and
    ``repaired`` in place."""
    w_rows = w.reshape(-1, arrays.n_gates)
    feasible_rows = feasible.reshape(-1)
    verify: List[int] = []
    for b in rows:
        outcome = _size_with_repair(
            arrays, budgets, _design(drive, b), _design(slope_k, b),
            _design(k_vdd, b), method, bisect_steps, repair_ceiling,
            None if warm is None else _design(warm, b))
        w_rows[b] = outcome.widths
        feasible_rows[b] = outcome.feasible
        repaired[b] = outcome.repaired
        if outcome.feasible and outcome.repaired:
            verify.append(int(b))
    if not verify:
        return
    # Repairs perturb the budget bookkeeping the per-gate guarantees
    # rest on; verify the actual designs with a full STA pass.
    if lead:
        picked = np.asarray(verify)
        critical, _ = _timed_sta(arrays, _designs(vdd, picked),
                                 _designs(vth, picked), w_rows[picked],
                                 (len(verify),))
    else:
        picked = verify
        critical, _ = _timed_sta(arrays, vdd, vth, w, ())
    feasible_rows[picked] &= critical <= repair_ceiling * (1.0 + 1e-9)


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
    k_lvl = _cols(k_vdd, start, stop)
    drive_lvl = drive[..., start:stop]
    self_lvl = arrays.self_cap[start:stop]
    fixed = slope[..., start:stop] + rc + flight
    budget = budgets[start:stop]

    def delay_at(width) -> np.ndarray:
        load = width * self_lvl + ext
        return fixed + k_lvl * load / (drive_lvl * width)

    feasible_at_max = delay_at(tech.width_max) <= budget
    done_at_min = delay_at(tech.width_min) <= budget

    low = np.full(ext.shape, tech.width_min)
    high = np.full(ext.shape, tech.width_max)
    if warm is not None:
        warm_lvl = warm[..., start:stop]
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


def _size_with_repair(arrays: ArrayContext, budgets: np.ndarray, drive,
                      slope_k, k_vdd, method: str, bisect_steps: int,
                      repair_ceiling: float,
                      warm: np.ndarray | None = None) -> FastSizing:
    """Replay one design's sizing in scalar processing order with
    repair enabled.

    Aborts at the first gate that stays unsizable after repair — the
    corner is then definitively infeasible and widths are unobservable.
    Before the walk, :func:`_delay_floor` may certify the corner
    hopeless: then nothing is repaired and the verdict is infeasible. A
    repaired design comes back feasible *pending verification*: the
    caller runs the full-STA check (:func:`_replay`).
    """
    tech = arrays.ctx.tech
    n = arrays.n_gates
    if (_delay_floor(arrays, drive, slope_k, k_vdd)
            > repair_ceiling * _CERTIFY_FACTOR):
        return FastSizing(widths=np.ones(n), feasible=False)
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

    if repaired:
        current_metrics().incr(BUDGET_REPAIRS, len(repaired))
    return FastSizing(widths=np.asarray(w), feasible=True,
                      repaired=_names(arrays, repaired))


def _delay_floor(arrays: ArrayContext, drive, slope_k, k_vdd) -> float:
    """A lower bound on the critical delay of every sizing at a corner.

    The STA of :func:`fast_sta` with each gate's own width at ``w_max``
    and every gate sink at ``w_min`` (boundary sinks, flight and the
    slope term as in STA). A gate's delay falls with its own width and
    rises with its sinks' widths, so no assignment in ``[w_min, w_max]``
    is faster; ``drive`` must be positive everywhere.
    """
    plan = arrays.sweep_plan()
    w_max = arrays.ctx.tech.width_max
    switching = k_vdd * plan.floor_load / (drive * w_max)
    fixed = switching + plan.floor_rc + plan.full.flight
    _, arrivals = _propagate(arrays, slope_k, fixed)
    return float(_critical(arrays, arrivals))


def _names(arrays: ArrayContext, indices: List[int]) -> Tuple[str, ...]:
    return tuple(arrays.gate_names[i] for i in indices)


# -- STA and energy --------------------------------------------------------


def fast_sta(arrays: ArrayContext, vdd: Voltage, vth: Voltage,
             w: np.ndarray, currents=None):
    """Vectorized STA: ``(critical delay, per-gate delays)``.

    Matches ``repro.timing.sta.analyze_timing`` (primary inputs ideal).
    An output that is itself a primary input arrives at 0.0, exactly as
    in the scalar pass; an output missing from both the gate index and
    the primary inputs raises :class:`~repro.errors.TimingError`.

    One design gives ``(float, (n,))``; a batch (``(B, n)`` widths or
    :class:`~repro.fastpath.batch.BatchValue` voltages) gives
    ``((B,), (B, n))``, each row ``==`` to the single-design call.
    ``currents`` shares a :func:`_currents` result already computed for
    these exact voltages.
    """
    vdd, vth, w, lead = _normalize(arrays, vdd, vth, w)
    critical, delays = _timed_sta(arrays, vdd, vth, w, lead, currents)
    return (critical if lead else float(critical)), delays


def _timed_sta(arrays: ArrayContext, vdd, vth, w: np.ndarray, lead,
               currents=None) -> Tuple[np.ndarray, np.ndarray]:
    rows = lead[0] if lead else 1
    with seam("sta", counter=STA_CALLS, calls=rows):
        drive = _drive_per_width(arrays, vdd, vth, currents)
        slope_k = _slope_coefficients(arrays, vdd, vth)
        k_vdd = arrays.ctx.tech.velocity_saturation_coeff * vdd
        load, rc, flight = _loads(arrays, w)
        fixed = _fixed_delays(k_vdd, drive, w, load, rc, flight)
        delays, arrivals = _propagate(arrays, slope_k, fixed)
        current_metrics().incr(DELAY_MODEL_CALLS, arrays.n_gates * rows)
        return _critical(arrays, arrivals), delays


def fast_total_energy(arrays: ArrayContext, vdd: Voltage, vth: Voltage,
                      w: np.ndarray, frequency: float, currents=None):
    """Vectorized eqs. A1 + A2: ``(static, dynamic)`` totals (J/cycle).

    With per-gate rails the output swing is the driving gate's own rail
    and primary-input nets swing at the module IO rail (the highest rail
    in use), mirroring ``repro.power.energy``.

    One design gives two floats; a batch (see :func:`fast_sta`) gives
    ``(static (B,), dynamic (B,))``, each row ``==`` to the
    single-design call.
    """
    if frequency <= 0.0:
        raise OptimizationError(f"frequency must be > 0, got {frequency}")
    vdd, vth, w, lead = _normalize(arrays, vdd, vth, w)
    with seam("energy", counter=ENERGY_EVALUATIONS,
              calls=lead[0] if lead else 1):
        _, off = _currents(arrays, vdd, vth) if currents is None \
            else currents
        load, _, _ = _loads(arrays, w)
        static_terms, dynamic_terms = _energy_terms(
            arrays.activity, vdd, w, off, load, frequency)
        static, dynamic = _energy_totals(arrays, vdd, w, static_terms,
                                         dynamic_terms, lead)
    if lead:
        return static, dynamic
    return float(static), float(dynamic)
