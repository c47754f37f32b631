"""The vectorized engine: :mod:`repro.fastpath` behind the Engine seam.

The :class:`ArrayContext` for a circuit is built once and kept on its
:class:`~repro.context.CircuitContext`, so it lives exactly as long as the
context does; the engine's own job is order translation — the fastpath
indexes gates in reverse-topological processing order, while everything
crossing the public Engine API is in canonical ``ctx.gates`` order.
"""

from __future__ import annotations

from typing import Mapping, Tuple

import numpy as np

from repro.context import CircuitContext
from repro.engine.base import Engine, EngineSizing
from repro.fastpath.arrays import ArrayContext
from repro.fastpath.evaluate import (
    fast_size_widths,
    fast_sta,
    fast_total_energy,
)
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


class ArrayEngine(Engine):
    """Procedure 2 evaluation on the vectorized fastpath kernels.

    Handles per-gate Vdd/Vth vectors and runs budget repair inside the
    kernel — there is no scalar fallback anywhere in this engine.
    """

    name = "fast"

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
        """A voltage argument in internal array order."""
        if isinstance(value, np.ndarray):
            out = np.empty(self.arrays.n_gates, dtype=float)
            out[self._canonical] = value
            return out
        return value  # scalars / mappings: the kernels normalize these

    def _internal_widths(self, widths) -> np.ndarray:
        if isinstance(widths, np.ndarray):
            out = np.empty(self.arrays.n_gates, dtype=float)
            out[self._canonical] = widths
            return out
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
        canonical = result.widths[self._canonical]
        gates = self.problem.ctx.gates
        return EngineSizing(
            feasible=result.feasible,
            repaired=result.repaired,
            widths=canonical,
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
