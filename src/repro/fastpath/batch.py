"""Batched (multi-design) fastpath kernels: a leading design axis.

One invocation evaluates ``B`` independent designs over the same
:class:`~repro.fastpath.arrays.ArrayContext`: ``widths`` is ``(B, n)``
(or ``(1, n)`` for a design shared across rows), and voltages are
:class:`BatchValue`\\ s — a global float, per-row scalars ``(B, 1)``, or
per-gate vectors ``(1, n)`` / ``(B, n)``.

**Bit-identity contract.** Every row of a batched result equals (``==``)
the single-design kernel run on that row alone. Three facts make that
hold by construction:

* Elementwise IEEE arithmetic is broadcast-invariant: the batched
  expressions multiply/add exactly the same doubles in exactly the same
  order as the single-design expressions, just over a leading axis.
* ``np.add.reduceat`` / ``np.maximum.reduceat`` with ``axis=1`` perform
  the same per-segment left-to-right reduction on each row as the 1-D
  call, and ``np.sum(..., axis=1)`` performs the same per-row pairwise
  summation as summing each row alone (asserted empirically by
  ``tests/test_engine_batch.py`` on every circuit it touches).
* Device physics goes through :mod:`repro.technology.array_model`,
  whose every element is ``==`` to the scalar reference model on that
  element, so a row of currents or slope coefficients is the one the
  single-design path computes in either voltage mode.

A batch is per-row scalars or per-gate rows, never a mix — mixed
batches are the caller's (engine fallback's) problem.

Budget repair stays sequential per design: rows that trip the repair
path replay through the single-design ``_size_with_repair``, which is
what the looped engine does for that row anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import OptimizationError, TimingError
from repro.fastpath.arrays import ArrayContext
from repro.fastpath import evaluate as _ev
from repro.obs import trace
from repro.obs.instrument import (
    DELAY_MODEL_CALLS,
    ENERGY_EVALUATIONS,
    STA_CALLS,
    WIDTH_SIZINGS,
    seam,
)
from repro.obs.metrics import current_metrics
from repro.technology import array_model, leakage, mosfet
from repro.timing.delay_model import slope_coefficient


@dataclass(frozen=True)
class BatchValue:
    """One normalized batched voltage.

    ``values`` is a float (global), a ``(B, 1)`` array (per-row
    scalars), or a ``(1, n)`` / ``(B, n)`` array (per-gate vectors,
    flagged by ``per_gate``). Arrays are in *internal* (processing)
    order.
    """

    values: Union[float, np.ndarray]
    per_gate: bool

    @property
    def rows(self) -> int:
        if isinstance(self.values, np.ndarray):
            return int(self.values.shape[0])
        return 1

    def row(self, b: int) -> Union[float, np.ndarray]:
        """Row ``b`` in single-design form: a float or an ``(n,)``
        vector — exactly what the looped kernel would have received."""
        if not isinstance(self.values, np.ndarray):
            return self.values
        if not self.per_gate:
            return float(self.values[b, 0])
        if self.values.shape[0] == 1:
            return self.values[0]
        return self.values[b]

    def take(self, rows: np.ndarray) -> "BatchValue":
        """The batch restricted to ``rows`` (row values unchanged)."""
        if not isinstance(self.values, np.ndarray) \
                or self.values.shape[0] == 1:
            return self
        return BatchValue(self.values[rows], self.per_gate)


def as_batch_value(arrays: ArrayContext, value, batch: int) -> BatchValue:
    """Normalize one voltage argument for a ``batch``-row invocation.

    Accepted: :class:`BatchValue` (validated), float (global), mapping
    or ``(n,)`` vector (per-gate, shared by all rows), ``(B, 1)``
    (per-row scalars), ``(1, n)`` / ``(B, n)`` (per-gate). A bare
    ``(B,)`` vector is rejected as ambiguous against ``(n,)`` — reshape
    to ``(B, 1)`` to mean per-row scalars.
    """
    n = arrays.n_gates
    if isinstance(value, BatchValue):
        if isinstance(value.values, np.ndarray):
            shape = value.values.shape
            expected = (1, n) if value.per_gate else (1, 1)
            if shape not in ((batch,) + expected[1:], expected):
                raise OptimizationError(
                    f"batch voltage has shape {shape}, expected "
                    f"{(batch,) + expected[1:]} or {expected}")
        return value
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            if value.shape == (batch, 1):
                return BatchValue(value, per_gate=False)
            if value.shape in ((batch, n), (1, n)):
                return BatchValue(value, per_gate=True)
            raise OptimizationError(
                f"batch voltage has shape {value.shape}; expected "
                f"({batch}, 1), ({batch}, {n}) or (1, {n})")
        if value.shape == (n,):
            return BatchValue(value.reshape(1, n), per_gate=True)
        raise OptimizationError(
            f"batch voltage has shape {value.shape}; a per-row vector "
            f"must be ({batch}, 1), a shared per-gate vector ({n},)")
    if isinstance(value, Mapping):
        vec = arrays.values_to_array(value)
        return BatchValue(np.asarray(vec).reshape(1, n), per_gate=True)
    return BatchValue(float(value), per_gate=False)


def is_batch(value) -> bool:
    """True when a kernel argument carries a design batch axis."""
    return isinstance(value, BatchValue) or (
        isinstance(value, np.ndarray) and value.ndim == 2)


def _arg_rows(value) -> int:
    if isinstance(value, BatchValue):
        return value.rows
    if isinstance(value, np.ndarray) and value.ndim == 2:
        return int(value.shape[0])
    return 1


def normalize_args(arrays: ArrayContext, vdd, vth,
                   w: Optional[np.ndarray] = None):
    """Normalize a batched kernel invocation's arguments.

    Returns ``(vdd, vth, w, batch)`` with voltages as
    :class:`BatchValue`, widths as ``(B, n)`` or shared ``(1, n)``, and
    ``batch`` the number of design rows (the max over the arguments;
    every batched argument must carry either 1 or ``batch`` rows).
    """
    rows = [_arg_rows(vdd), _arg_rows(vth)]
    if w is not None:
        if w.ndim == 1:
            w = w.reshape(1, -1)
        if w.shape[1] != arrays.n_gates:
            raise OptimizationError(
                f"width batch has shape {w.shape}, expected "
                f"(B, {arrays.n_gates})")
        rows.append(int(w.shape[0]))
    batch = max(rows)
    if any(r not in (1, batch) for r in rows):
        raise OptimizationError(
            f"inconsistent batch sizes {rows}: rows must be 1 or {batch}")
    return (as_batch_value(arrays, vdd, batch),
            as_batch_value(arrays, vth, batch), w, batch)


def _cols(value, start: int, stop: int):
    """A level column-slice of a float / (B,1) / (?,n) quantity."""
    if not isinstance(value, np.ndarray) or value.shape[1] == 1:
        return value
    return value[:, start:stop]


def batch_currents(arrays: ArrayContext, vdd: BatchValue, vth: BatchValue):
    """Per-gate ``(drain, off)`` per unit width, batched.

    The same device model as the single-design path (scalar functions
    for global voltages, the array model otherwise), so every stored
    double is the one that path would compute.
    """
    tech = arrays.ctx.tech
    if not isinstance(vdd.values, np.ndarray) \
            and not isinstance(vth.values, np.ndarray):
        return (mosfet.drain_current_per_width(tech, vdd.values, vth.values),
                leakage.off_current_per_width(tech, vth.values,
                                              vds=vdd.values))
    return array_model.currents(tech, np.atleast_2d(vdd.values),
                                np.atleast_2d(vth.values))


def batch_slope_coefficients(arrays: ArrayContext, vdd: BatchValue,
                             vth: BatchValue):
    """``slope_coefficient`` batched: the scalar function for global
    voltages, the (exact) array arithmetic for per-row scalars and
    per-gate rows alike."""
    tech = arrays.ctx.tech
    if not isinstance(vdd.values, np.ndarray) \
            and not isinstance(vth.values, np.ndarray):
        return slope_coefficient(tech, vdd.values, vth.values)
    return array_model.slope_coefficients(tech, vdd.values, vth.values)


def _batch_drive(arrays: ArrayContext, vdd: BatchValue, vth: BatchValue,
                 batch: int, currents=None) -> np.ndarray:
    """``(B, n)`` effective drive per width (same expression as the
    single-design ``_drive_per_width``, broadcast over rows)."""
    tech = arrays.ctx.tech
    current, off = (currents if currents is not None
                    else batch_currents(arrays, vdd, vth))
    stack = 1.0 + tech.stack_derating * (arrays.fanin_count - 1)
    drive = current / stack - arrays.fanin_count * off
    return np.ascontiguousarray(
        np.broadcast_to(drive, (batch, arrays.n_gates)))


def _batch_segment(local_ptr: np.ndarray, values: np.ndarray, op,
                   empty: float) -> np.ndarray:
    """Row-wise segment reduction of a ``(B, E)`` value array."""
    rows = len(local_ptr) - 1
    result = np.full((values.shape[0], rows), empty)
    nonempty = np.diff(local_ptr) > 0
    if values.shape[1] and nonempty.any():
        result[:, nonempty] = op.reduceat(values, local_ptr[:-1][nonempty],
                                          axis=1)
    return result


def batch_external_caps(arrays: ArrayContext, w: np.ndarray, start: int,
                        stop: int) -> Tuple[np.ndarray, np.ndarray,
                                            np.ndarray]:
    """Batched ``(ext_cap, wire_rc, flight)`` for gate rows
    ``start:stop``; ``flight`` is width-independent and stays 1-D."""
    lo = arrays.fanout.ptr[start]
    hi = arrays.fanout.ptr[stop]
    is_gate = arrays.fanout_is_gate[lo:hi]
    caps = arrays.fanout_cap[lo:hi]
    sink_w = np.where(is_gate, w[:, arrays.fanout_safe_idx[lo:hi]],
                      arrays.ctx.BOUNDARY_WIDTH)
    cap_entries = np.where(is_gate, sink_w * caps, 0.0)
    rc_entries = arrays.branch_res[lo:hi] * (
        0.5 * arrays.branch_cap[lo:hi] + sink_w * caps)

    local_ptr = arrays.fanout.ptr[start:stop + 1] - lo
    ext = (arrays.wire_cap[start:stop] + arrays.boundary_cap[start:stop]
           + _batch_segment(local_ptr, cap_entries, np.add, 0.0))
    rc = _batch_segment(local_ptr, rc_entries, np.maximum, 0.0)
    flight = _ev._segment(
        _ev._CSR(local_ptr, arrays.fanout.indices[lo:hi]),
        arrays.branch_flight[lo:hi], np.maximum, 0.0)
    return ext, rc, flight


def batch_sta(arrays: ArrayContext, vdd: BatchValue, vth: BatchValue,
              w: np.ndarray, batch: int,
              currents=None) -> Tuple[np.ndarray, np.ndarray]:
    """Batched STA: ``(critical (B,), per-gate delays (B, n))``.

    ``currents`` lets a caller that already ran :func:`batch_currents`
    for these exact voltages (e.g. ``measure_batch``, which bills the
    same pairs for energy first) share the result — the stored doubles
    are identical either way, it only skips the recompute.
    """
    tech = arrays.ctx.tech
    n = arrays.n_gates
    with seam("sta", counter=STA_CALLS, calls=batch):
        drive = _batch_drive(arrays, vdd, vth, batch, currents)
        slope_k = batch_slope_coefficients(arrays, vdd, vth)
        k_vdd = tech.velocity_saturation_coeff * vdd.values

        ext, rc, flight = batch_external_caps(arrays, w, 0, n)
        load = w * arrays.self_cap + ext
        with np.errstate(divide="ignore", invalid="ignore"):
            switching = np.where(drive > 0.0, k_vdd * load / (drive * w),
                                 np.inf)
        fixed = switching + rc + flight

        delays = np.zeros((batch, n))
        arrivals = np.zeros((batch, n))
        for start, stop in reversed(arrays.level_slices):
            lo = arrays.fanin.ptr[start]
            hi = arrays.fanin.ptr[stop]
            idx = arrays.fanin.indices[lo:hi]
            local_ptr = arrays.fanin.ptr[start:stop + 1] - lo
            max_fanin_delay = _batch_segment(local_ptr, delays[:, idx],
                                             np.maximum, 0.0)
            max_fanin_arrival = _batch_segment(local_ptr, arrivals[:, idx],
                                               np.maximum, 0.0)
            delays[:, start:stop] = (_cols(slope_k, start, stop)
                                     * max_fanin_delay
                                     + fixed[:, start:stop])
            arrivals[:, start:stop] = (max_fanin_arrival
                                       + delays[:, start:stop])
        current_metrics().incr(DELAY_MODEL_CALLS, n * batch)

    network = arrays.ctx.network
    critical = np.zeros(batch)
    for name in network.outputs:
        position = arrays.index.get(name)
        if position is None:
            if not network.gate(name).is_input:
                raise TimingError(
                    f"output {name!r} is neither a logic gate nor a "
                    f"primary input")
            continue  # ideal primary input: arrival 0.0, never the max
        np.maximum(critical, arrivals[:, position], out=critical)
    return critical, delays


def batch_total_energy(arrays: ArrayContext, vdd: BatchValue,
                       vth: BatchValue, w: np.ndarray, frequency: float,
                       batch: int,
                       currents=None) -> Tuple[np.ndarray, np.ndarray]:
    """Batched eqs. A1 + A2: ``(static (B,), dynamic (B,))``.

    ``currents`` shares a precomputed :func:`batch_currents` result
    (see :func:`batch_sta`).
    """
    if frequency <= 0.0:
        raise OptimizationError(f"frequency must be > 0, got {frequency}")
    with seam("energy", counter=ENERGY_EVALUATIONS, calls=batch):
        _, off = (currents if currents is not None
                  else batch_currents(arrays, vdd, vth))
        ones = np.ones((batch, 1))
        static = np.sum((vdd.values * w * off / frequency) * ones, axis=1)

        ext, _, _ = batch_external_caps(arrays, w, 0, arrays.n_gates)
        load = w * arrays.self_cap + ext
        dynamic = np.sum(
            (0.5 * arrays.activity * vdd.values * vdd.values * load) * ones,
            axis=1)

        # Input-net term at the module IO rail (the row's highest rail).
        if not isinstance(vdd.values, np.ndarray):
            io_rail = vdd.values
        elif vdd.per_gate:
            io_rail = np.max(vdd.values, axis=1, keepdims=True)
        else:
            io_rail = vdd.values
        sink_entries = w[:, arrays.input_fanout.indices] \
            * arrays.input_fanout_cap
        sink_caps = _batch_segment(arrays.input_fanout.ptr, sink_entries,
                                   np.add, 0.0)
        input_load = (arrays.input_self_plus_wire + arrays.input_fixed_cap
                      + sink_caps)
        dynamic = dynamic + np.sum(
            (0.5 * arrays.input_activity * io_rail * io_rail * input_load)
            * np.ones((batch, 1)), axis=1)
    return static, dynamic


@dataclass(frozen=True)
class BatchSizing:
    """Batched sizing outcome: one verdict (and width row) per design."""

    widths: np.ndarray            # (B, n), internal order
    feasible: np.ndarray          # (B,) bool
    repaired: Tuple[Tuple[str, ...], ...]


def batch_size_widths(arrays: ArrayContext, budgets: np.ndarray,
                      vdd: BatchValue, vth: BatchValue, batch: int,
                      method: str = "closed_form", bisect_steps: int = 24,
                      repair_ceiling: Optional[float] = None) -> BatchSizing:
    """Batched minimum-width sizing (same semantics per row as
    ``fast_size_widths``; warm bisection seeds are not supported —
    warm-started searches take the looped path)."""
    if method not in ("closed_form", "bisect"):
        raise OptimizationError(f"unknown width-search method {method!r}")
    span_name = "width_bisect" if method == "bisect" else "width_search"
    with trace.span(span_name, method=method, engine="fast"), \
            seam("width_search", counter=WIDTH_SIZINGS, calls=batch):
        return _batch_size_widths(arrays, budgets, vdd, vth, batch,
                                  method, bisect_steps, repair_ceiling)


def _batch_size_widths(arrays: ArrayContext, budgets: np.ndarray,
                       vdd: BatchValue, vth: BatchValue, batch: int,
                       method: str, bisect_steps: int,
                       repair_ceiling: Optional[float]) -> BatchSizing:
    tech = arrays.ctx.tech
    n = arrays.n_gates
    drive = _batch_drive(arrays, vdd, vth, batch)
    # Subthreshold contention: those rows cannot switch at any width
    # (the single-design path short-circuits to width_max, infeasible).
    bad = np.any(drive <= 0.0, axis=1)

    slope_k = batch_slope_coefficients(arrays, vdd, vth)
    fanin_budget = arrays.segment_max(
        arrays.fanin, budgets[arrays.fanin.indices], empty=0.0)
    slope = np.ascontiguousarray(np.broadcast_to(
        slope_k * fanin_budget, (batch, n)))

    k_vdd = tech.velocity_saturation_coeff * vdd.values
    with np.errstate(all="ignore"):
        self_term = np.ascontiguousarray(np.broadcast_to(
            k_vdd * arrays.self_cap / drive, (batch, n)))

    w = np.ones((batch, n))
    feasible = ~bad
    needs_repair = np.zeros(batch, dtype=bool)
    with np.errstate(all="ignore"):
        for start, stop in arrays.level_slices:
            ext, rc, flight = batch_external_caps(arrays, w, start, stop)
            if method == "closed_form":
                available = (budgets[start:stop] - slope[:, start:stop]
                             - rc - flight - self_term[:, start:stop])
                ext_term = (_cols(k_vdd, start, stop) * ext
                            / drive[:, start:stop])
                needed = np.where(available > 0.0, ext_term / available,
                                  np.inf)
            else:
                needed = _batch_bisect_level(arrays, budgets, slope, rc,
                                             flight, k_vdd, drive, ext,
                                             start, stop, bisect_steps)
            failed_rows = np.any(needed > tech.width_max, axis=1)
            if repair_ceiling is not None:
                needs_repair |= failed_rows
            else:
                feasible &= ~failed_rows
            # Clamp uniformly: a no-op where nothing failed, the
            # single-design behaviour where sizing failed without
            # repair, and irrelevant on rows headed for the replay.
            needed = np.minimum(needed, tech.width_max)
            w[:, start:stop] = np.maximum(needed, tech.width_min)
    w[bad] = tech.width_max

    repaired: List[Tuple[str, ...]] = [()] * batch
    verify_rows: List[int] = []
    for b in np.flatnonzero(needs_repair & ~bad):
        row = _ev._size_with_repair(
            arrays, budgets, vdd.row(b), vth.row(b), drive[b],
            _row_coeff(slope_k, b), _row_coeff(k_vdd, b), method,
            bisect_steps, repair_ceiling, verify=False)
        w[b] = row.widths
        feasible[b] = row.feasible
        repaired[b] = row.repaired
        if row.feasible and row.repaired:
            verify_rows.append(int(b))
    if verify_rows:
        # Deferred repair verification: one batched STA over every
        # repaired-and-completed row instead of a full STA per row —
        # same per-row criticals (bit-identical), same counter totals.
        rows = np.asarray(verify_rows)
        critical, _ = batch_sta(arrays, vdd.take(rows), vth.take(rows),
                                np.ascontiguousarray(w[rows]), len(rows))
        # ~(> ceiling), not (<= ceiling): identical to the looped check
        # even for NaN criticals (NaN compares False either way).
        feasible[rows] &= ~(critical > repair_ceiling * (1.0 + 1e-9))
    return BatchSizing(widths=w, feasible=feasible,
                       repaired=tuple(repaired))


def _row_coeff(value, b: int):
    """Row ``b`` of a float / (B,1) / (1,n) / (B,n) coefficient, in the
    single-design form (float or ``(n,)``)."""
    if not isinstance(value, np.ndarray):
        return value
    if value.shape[1] == 1:
        return float(value[min(b, value.shape[0] - 1), 0])
    return value[min(b, value.shape[0] - 1)]


def _batch_bisect_level(arrays: ArrayContext, budgets: np.ndarray,
                        slope: np.ndarray, rc: np.ndarray,
                        flight: np.ndarray, k_vdd, drive: np.ndarray,
                        ext: np.ndarray, start: int, stop: int,
                        steps: int) -> np.ndarray:
    """``_bisect_level`` with a leading design axis (no warm probes)."""
    tech = arrays.ctx.tech
    k_lvl = _cols(k_vdd, start, stop)
    drive_lvl = drive[:, start:stop]
    self_lvl = arrays.self_cap[start:stop]
    fixed = slope[:, start:stop] + rc + flight
    budget = budgets[start:stop]

    def delay_at(width):
        load = width * self_lvl + ext
        return fixed + k_lvl * load / (drive_lvl * width)

    feasible_at_max = delay_at(tech.width_max) <= budget
    done_at_min = delay_at(tech.width_min) <= budget

    low = np.full(ext.shape, tech.width_min)
    high = np.full(ext.shape, tech.width_max)
    for _ in range(steps):
        mid = 0.5 * (low + high)
        meets = delay_at(mid) <= budget
        high = np.where(meets, mid, high)
        low = np.where(meets, low, mid)
    return np.where(feasible_at_max,
                    np.where(done_at_min, tech.width_min, high),
                    np.inf)
