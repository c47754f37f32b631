"""The batched engine: the array engine plus a native design axis.

:class:`BatchEngine` is an :class:`~repro.engine.array.ArrayEngine` —
every single-design call behaves identically — that additionally serves
:meth:`measure_batch` / :meth:`evaluate_batch` with **one** call of the
shared fastpath kernels over B design rows (:mod:`repro.fastpath
.evaluate` at rank ``(B, n)``), each row bit-identical (``==``) to the
looped single-design call.

Because batching is provably a pure execution detail, the engine
fingerprints as ``"fast"`` (see
:func:`repro.engine.base.fingerprint_engine_name`): checkpoints, serve
cache keys and argmins are interchangeable with the array engine, which
``ci/check_batch_parity.py`` gates.

Batches must be *uniform*: all rows scalar voltages, or all rows
per-gate (mappings / canonical vectors). Mixed batches quietly take the
base class's row-at-a-time fallback loop, and warm-started searches
never batch (a warm start chains one row's sizing into the next) —
correctness never depends on batchability.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.array import ArrayEngine
from repro.engine.base import (
    EngineEvaluation,
    EngineMeasurement,
    EngineSizing,
    _INFEASIBLE,
)
from repro.fastpath.batch import BatchValue
from repro.fastpath.evaluate import (
    _currents,
    fast_size_widths,
    fast_sta,
    fast_total_energy,
)
from repro.obs.instrument import BATCH_CALLS, BATCH_ROWS
from repro.obs.metrics import current_metrics
from repro.timing.budgeting import BudgetResult


class BatchEngine(ArrayEngine):
    """Vectorized multi-design evaluation behind the Engine seam."""

    name = "batch"
    supports_batch = True

    # -- row normalization ---------------------------------------------------

    def _batch_voltage(self, rows: Sequence) -> Optional[BatchValue]:
        """A uniform voltage batch, or None (mixed → fallback).

        All-scalar rows become per-row scalars ``(B, 1)`` (each row
        reproduces the looped scalar-voltage mode); all-per-gate rows
        (mappings or canonical ``(n,)`` vectors, or one canonical
        ``(B, n)`` array) become ``(B, n)`` in internal order. A single
        shared scalar/mapping may also be passed pre-broadcast by the
        caller via ``[value] * B``.
        """
        if isinstance(rows, np.ndarray) and rows.ndim == 2:
            stacked = np.empty(rows.shape)
            stacked[:, self._canonical] = rows
            return BatchValue(stacked, per_gate=True)
        if all(isinstance(row, (int, float)) for row in rows):
            values = np.asarray([[float(row)] for row in rows])
            return BatchValue(values, per_gate=False)
        if all(isinstance(row, (Mapping, np.ndarray)) for row in rows):
            stacked = np.empty((len(rows), self.arrays.n_gates))
            for b, row in enumerate(rows):
                stacked[b] = self._values(row) if isinstance(row, np.ndarray) \
                    else self.arrays.values_to_array(row)
            return BatchValue(stacked, per_gate=True)
        return None

    def _batch_widths(self, rows: Sequence) -> Optional[np.ndarray]:
        """A ``(B, n)`` (or shared ``(1, n)``) internal-order width
        batch, or None when rows are not uniformly width-like."""
        first = rows[0]
        if all(row is first for row in rows):
            return self._internal_widths(first).reshape(1, -1)
        try:
            stacked = np.empty((len(rows), self.arrays.n_gates))
            for b, row in enumerate(rows):
                stacked[b] = self._internal_widths(row)
        except (TypeError, KeyError, ValueError):
            return None
        return stacked

    def _observe(self, batch: int) -> None:
        metrics = current_metrics()
        metrics.incr(BATCH_CALLS)
        metrics.observe(BATCH_ROWS, float(batch))

    # -- batched API ---------------------------------------------------------

    def measure_batch(self, vdd_rows, vth_rows,
                      widths_rows) -> List[EngineMeasurement]:
        vdd = self._batch_voltage(vdd_rows)
        vth = self._batch_voltage(vth_rows)
        widths = self._batch_widths(widths_rows)
        if vdd is None or vth is None or widths is None:
            return super().measure_batch(vdd_rows, vth_rows, widths_rows)
        batch = len(vdd_rows)
        self._observe(batch)
        # Reference evaluation order (see Engine.measure): energy, STA.
        # Both kernels bill currents for the same (vdd, vth) pairs, so
        # compute them once and share — same doubles, half the
        # device-model work.
        currents = _currents(self.arrays, vdd.values, vth.values)
        static, dynamic = fast_total_energy(
            self.arrays, vdd, vth, widths, self.problem.frequency,
            currents=currents)
        critical, _ = fast_sta(self.arrays, vdd, vth, widths,
                               currents=currents)
        return [EngineMeasurement(static=float(static[b]),
                                  dynamic=float(dynamic[b]),
                                  critical_delay=float(critical[b]))
                for b in range(batch)]

    def evaluate_batch(self, budgets: BudgetResult, vdd_rows, vth_rows, *,
                       delay_vth_rows=None,
                       energy_vth_rows=None) -> List[EngineEvaluation]:
        batch = len(vdd_rows)
        delay_vth_rows = ([vth for vth in vth_rows]
                          if delay_vth_rows is None else
                          [vth if delay is None else delay
                           for vth, delay in zip(vth_rows, delay_vth_rows)])
        energy_vth_rows = ([vth for vth in vth_rows]
                           if energy_vth_rows is None else
                           [vth if energy is None else energy
                            for vth, energy in zip(vth_rows,
                                                   energy_vth_rows)])
        vdd = self._batch_voltage(vdd_rows)
        delay_vth = self._batch_voltage(delay_vth_rows)
        energy_vth = self._batch_voltage(energy_vth_rows)
        if vdd is None or delay_vth is None or energy_vth is None:
            return super().evaluate_batch(budgets, vdd_rows, vth_rows,
                                          delay_vth_rows=delay_vth_rows,
                                          energy_vth_rows=energy_vth_rows)
        self._observe(batch)
        sizing = fast_size_widths(
            self.arrays, self._budget_vector(budgets), vdd, delay_vth,
            repair_ceiling=budgets.effective_cycle_time,
            method=self.width_method, bisect_steps=self.bisect_steps)

        feasible_rows = np.flatnonzero(sizing.feasible)
        results: List[EngineEvaluation] = [_INFEASIBLE] * batch
        if len(feasible_rows):
            w_sub = np.ascontiguousarray(sizing.widths[feasible_rows])
            static, dynamic = fast_total_energy(
                self.arrays, vdd.take(feasible_rows),
                energy_vth.take(feasible_rows), w_sub,
                self.problem.frequency)
            gates = self.problem.ctx.gates
            for k, b in enumerate(feasible_rows):
                canonical = sizing.widths[b][self._canonical]
                results[b] = EngineEvaluation(
                    energy=float(static[k]) + float(dynamic[k]),
                    static=float(static[k]), dynamic=float(dynamic[k]),
                    feasible=True,
                    sizing=EngineSizing(
                        feasible=True, repaired=sizing.repaired[b],
                        widths=canonical,
                        materialize=_materializer(gates, canonical)))
        return results


def _materializer(gates: Tuple[str, ...], canonical: np.ndarray):
    return lambda: {name: float(value)
                    for name, value in zip(gates, canonical)}
