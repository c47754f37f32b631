"""The vectorized engine: :mod:`repro.fastpath` behind the Engine seam.

The :class:`ArrayContext` for a circuit is built once and kept on its
:class:`~repro.context.CircuitContext`, so it lives exactly as long as the
context does; the engine's own job is order translation — the fastpath
indexes gates in reverse-topological processing order, while everything
crossing the public Engine API is in canonical ``ctx.gates`` order.

The engine batches natively: ``measure_batch`` / ``evaluate_batch`` run
the same kernels at rank ``(B, n)`` in slabs of at most
:data:`BATCH_BUDGET` doubles per array, each row bit-identical (``==``)
to the looped single-design call. Batches must be *uniform* (all rows
scalar voltages, or all per-gate); mixed batches take the base class's
row loop. ``"batch"`` names this engine and fingerprints as ``"fast"``.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.context import CircuitContext
from repro.engine.base import (
    _INFEASIBLE,
    Engine,
    EngineEvaluation,
    EngineMeasurement,
    EngineSizing,
)
from repro.fastpath.arrays import ArrayContext
from repro.fastpath.batch import BatchValue, as_batch_value
from repro.fastpath.evaluate import (
    _currents,
    fast_size_widths,
    fast_sta,
    fast_total_energy,
)
from repro.obs.instrument import BATCH_CALLS, BATCH_ROWS
from repro.obs.metrics import current_metrics
from repro.optimize.problem import OptimizationProblem
from repro.timing.budgeting import BudgetResult

#: Attribute of a CircuitContext that holds its ArrayContext. The two
#: reference each other, an ordinary cycle that the collector frees once
#: the problem is dropped (a global table keyed by context never would).
_ARRAYS_ATTR = "_array_context"


def array_context_for(ctx: CircuitContext) -> ArrayContext:
    """The :class:`ArrayContext` mirroring ``ctx``, built once per context."""
    arrays = getattr(ctx, _ARRAYS_ATTR, None)
    if arrays is None:
        arrays = ArrayContext(ctx)
        setattr(ctx, _ARRAYS_ATTR, arrays)
    return arrays


#: Doubles per ``(B, n)`` array of one batched kernel call: a batch of
#: B designs on n gates runs in slabs of ``max(1, BATCH_BUDGET // n)``
#: rows. The sizing holds several such arrays at once: unbounded, one
#: 195-corner grid round on 2,307 gates raised a run's peak RSS from 90
#: to 121 MB (perfbench ``joint_c5315``, 2-vCPU Xeon).
BATCH_BUDGET = 16_384


class ArrayEngine(Engine):
    """Procedure 2 evaluation on the vectorized fastpath kernels.

    Handles per-gate Vdd/Vth vectors and runs budget repair inside the
    kernel — there is no scalar fallback anywhere in this engine.
    """

    name = "fast"
    supports_batch = True

    def __init__(self, problem: OptimizationProblem,
                 width_method: str = "closed_form", bisect_steps: int = 24):
        super().__init__(problem)
        self.width_method = width_method
        self.bisect_steps = bisect_steps
        self.arrays = array_context_for(problem.ctx)
        # canonical (ctx.gates) position j lives at array row
        # _canonical[j]; x_internal[_canonical] = x_canonical and
        # x_canonical = x_internal[_canonical] are the two permutations.
        self._canonical = np.asarray(
            [self.arrays.index[name] for name in problem.ctx.gates],
            dtype=np.int64)
        self._budget_key: BudgetResult | None = None
        self._budget_vec: np.ndarray | None = None

    # -- order translation --------------------------------------------------

    def _budget_vector(self, budgets: BudgetResult) -> np.ndarray:
        if self._budget_key is not budgets:
            self._budget_vec = self.arrays.budgets_to_array(budgets.budgets)
            self._budget_key = budgets
        return self._budget_vec

    def _values(self, value):
        """A voltage argument in internal array order (a canonical
        ``(n,)`` vector or ``(B, n)`` block is permuted per row)."""
        if isinstance(value, np.ndarray):
            out = np.empty(value.shape[:-1] + (self.arrays.n_gates,))
            out[..., self._canonical] = value
            return out
        return value  # scalars / mappings: the kernels normalize these

    def _internal_widths(self, widths) -> np.ndarray:
        if isinstance(widths, np.ndarray):
            return self._values(widths)
        if isinstance(widths, Mapping):
            return self.arrays.widths_to_array(widths)
        return np.full(self.arrays.n_gates, float(widths))

    # -- Engine API ---------------------------------------------------------

    def size_widths(self, budgets: BudgetResult, vdd, vth, *,
                    warm=None) -> EngineSizing:
        result = fast_size_widths(self.arrays, self._budget_vector(budgets),
                                  self._values(vdd), self._values(vth),
                                  method=self.width_method,
                                  bisect_steps=self.bisect_steps,
                                  repair_ceiling=budgets.effective_cycle_time,
                                  warm=None if warm is None
                                  else self._internal_widths(warm))
        return self._sizing(result.feasible, result.repaired, result.widths)

    def _sizing(self, feasible: bool, repaired: Tuple[str, ...],
                internal: np.ndarray) -> EngineSizing:
        canonical = internal[self._canonical]
        gates = self.problem.ctx.gates
        return EngineSizing(
            feasible=feasible, repaired=repaired, widths=canonical,
            materialize=lambda: {name: float(value)
                                 for name, value in zip(gates, canonical)})

    def sta(self, vdd, vth, widths) -> float:
        critical, _ = fast_sta(self.arrays, self._values(vdd),
                               self._values(vth),
                               self._internal_widths(widths))
        return critical

    def total_energy(self, vdd, vth, widths) -> Tuple[float, float]:
        return fast_total_energy(self.arrays, self._values(vdd),
                                 self._values(vth),
                                 self._internal_widths(widths),
                                 self.problem.frequency)

    def widths_vector(self, source) -> np.ndarray:
        gates = self.problem.ctx.gates
        if isinstance(source, Mapping):
            return np.asarray([source[name] for name in gates], dtype=float)
        return np.full(len(gates), float(source))

    # -- batched API ---------------------------------------------------------

    def _batch_voltage(self, rows: Sequence) -> Optional[BatchValue]:
        """A uniform voltage batch, or None (mixed → fallback).

        All-scalar rows become per-row scalars ``(B, 1)`` (each row
        reproduces the looped scalar-voltage mode); all-per-gate rows
        (mappings or canonical ``(n,)`` vectors, or one canonical
        ``(B, n)`` array) become ``(B, n)`` in internal order.
        """
        if isinstance(rows, np.ndarray) and rows.ndim == 2:
            return BatchValue(self._values(rows), per_gate=True)
        if all(isinstance(row, (int, float)) for row in rows):
            return as_batch_value(
                self.arrays, np.asarray(rows, dtype=float).reshape(-1, 1),
                len(rows))
        if all(isinstance(row, (Mapping, np.ndarray)) for row in rows):
            return BatchValue(np.vstack([
                as_batch_value(self.arrays, self._values(row), 1).values
                for row in rows]), per_gate=True)
        return None

    def _batch_widths(self, rows: Sequence) -> Optional[np.ndarray]:
        """A ``(B, n)`` (or shared ``(1, n)``) internal-order width
        batch, or None when rows are not uniformly width-like."""
        first = rows[0]
        if all(row is first for row in rows):
            return self._internal_widths(first).reshape(1, -1)
        try:
            return np.vstack([self._internal_widths(row) for row in rows])
        except (TypeError, KeyError, ValueError):
            return None

    def _slabs(self, batch: int) -> Iterator[np.ndarray]:
        """Book one batched call of ``batch`` rows, then yield the row
        indices of consecutive slabs of at most :data:`BATCH_BUDGET`
        doubles per ``(B, n)`` array. Rows are independent, so slabbing
        leaves every row's doubles unchanged."""
        metrics = current_metrics()
        metrics.incr(BATCH_CALLS)
        metrics.observe(BATCH_ROWS, float(batch))
        step = max(1, BATCH_BUDGET // self.arrays.n_gates)
        for start in range(0, batch, step):
            yield np.arange(start, min(start + step, batch))

    def measure_batch(self, vdd_rows, vth_rows,
                      widths_rows) -> List[EngineMeasurement]:
        vdd = self._batch_voltage(vdd_rows)
        vth = self._batch_voltage(vth_rows)
        widths = self._batch_widths(widths_rows)
        if vdd is None or vth is None or widths is None:
            return super().measure_batch(vdd_rows, vth_rows, widths_rows)
        results: List[EngineMeasurement] = []
        for rows in self._slabs(len(vdd_rows)):
            slab_vdd, slab_vth = vdd.take(rows), vth.take(rows)
            slab_widths = widths if len(widths) == 1 else widths[rows]
            # Reference evaluation order (see Engine.measure): energy,
            # then STA. Both kernels bill currents for the same (vdd,
            # vth) pairs, so compute them once and share — same
            # doubles, half the device-model work.
            currents = _currents(self.arrays, slab_vdd.values,
                                 slab_vth.values)
            static, dynamic = fast_total_energy(
                self.arrays, slab_vdd, slab_vth, slab_widths,
                self.problem.frequency, currents=currents)
            critical, _ = fast_sta(self.arrays, slab_vdd, slab_vth,
                                   slab_widths, currents=currents)
            results.extend(EngineMeasurement(
                static=float(static[k]), dynamic=float(dynamic[k]),
                critical_delay=float(critical[k]))
                for k in range(len(rows)))
        return results

    def evaluate_batch(self, budgets: BudgetResult, vdd_rows, vth_rows, *,
                       delay_vth_rows=None,
                       energy_vth_rows=None) -> List[EngineEvaluation]:
        def split(rows):
            return (list(vth_rows) if rows is None else
                    [vth if row is None else row
                     for vth, row in zip(vth_rows, rows)])

        delay_vth_rows = split(delay_vth_rows)
        energy_vth_rows = split(energy_vth_rows)
        vdd = self._batch_voltage(vdd_rows)
        delay_vth = self._batch_voltage(delay_vth_rows)
        energy_vth = self._batch_voltage(energy_vth_rows)
        if vdd is None or delay_vth is None or energy_vth is None:
            return super().evaluate_batch(budgets, vdd_rows, vth_rows,
                                          delay_vth_rows=delay_vth_rows,
                                          energy_vth_rows=energy_vth_rows)
        budget_vec = self._budget_vector(budgets)
        results: List[EngineEvaluation] = []
        for rows in self._slabs(len(vdd_rows)):
            slab_vdd = vdd.take(rows)
            sizing = fast_size_widths(
                self.arrays, budget_vec, slab_vdd, delay_vth.take(rows),
                repair_ceiling=budgets.effective_cycle_time,
                method=self.width_method, bisect_steps=self.bisect_steps)
            slab = [_INFEASIBLE] * len(rows)
            feasible = np.flatnonzero(sizing.feasible)
            if len(feasible):
                static, dynamic = fast_total_energy(
                    self.arrays, slab_vdd.take(feasible),
                    energy_vth.take(rows).take(feasible),
                    np.ascontiguousarray(sizing.widths[feasible]),
                    self.problem.frequency)
                for k, b in enumerate(feasible):
                    slab[b] = EngineEvaluation(
                        energy=float(static[k]) + float(dynamic[k]),
                        static=float(static[k]), dynamic=float(dynamic[k]),
                        feasible=True, sizing=self._sizing(
                            True, sizing.repaired[b], sizing.widths[b]))
            results.extend(slab)
        return results
