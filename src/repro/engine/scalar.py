"""The reference engine: the scalar modules behind the Engine seam."""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from repro.engine.base import Engine, EngineSizing
from repro.optimize.problem import OptimizationProblem
from repro.optimize.width_search import size_widths
from repro.power.energy import total_energy
from repro.timing.budgeting import BudgetResult
from repro.timing.sta import analyze_timing


class ScalarEngine(Engine):
    """Procedure 2 evaluation on the scalar reference modules.

    This engine *is* the ground truth: ``ArrayEngine`` results are
    checked against it to float round-off. It accepts canonical-order
    width and voltage vectors for interchangeability, converting them to
    the ``{name: value}`` maps the reference modules consume.
    """

    name = "scalar"

    def __init__(self, problem: OptimizationProblem,
                 width_method: str = "closed_form", bisect_steps: int = 24):
        super().__init__(problem)
        self.width_method = width_method
        self.bisect_steps = bisect_steps

    def _as_map(self, widths) -> Mapping[str, float]:
        if isinstance(widths, Mapping):
            return widths
        if isinstance(widths, np.ndarray):
            return {name: float(value)
                    for name, value in zip(self.problem.ctx.gates, widths)}
        value = float(widths)
        return {name: value for name in self.problem.ctx.gates}

    def _voltage(self, value):
        """A voltage for the reference modules: vectors become maps;
        scalars and maps pass through unchanged."""
        return self._as_map(value) if isinstance(value, np.ndarray) \
            else value

    def size_widths(self, budgets: BudgetResult, vdd, vth, *,
                    warm=None) -> EngineSizing:
        assignment = size_widths(self.problem.ctx, budgets.budgets,
                                 self._voltage(vdd), self._voltage(vth),
                                 method=self.width_method,
                                 bisect_steps=self.bisect_steps,
                                 repair_ceiling=budgets.effective_cycle_time,
                                 warm=None if warm is None
                                 else self._as_map(warm))
        widths = dict(assignment.widths)
        return EngineSizing(feasible=assignment.feasible,
                            repaired=assignment.repaired_gates,
                            widths=widths,
                            materialize=lambda: widths)

    def sta(self, vdd, vth, widths) -> float:
        report = analyze_timing(self.problem.ctx, self._voltage(vdd),
                                self._voltage(vth), self._as_map(widths))
        return report.critical_delay

    def total_energy(self, vdd, vth, widths) -> Tuple[float, float]:
        report = total_energy(self.problem.ctx, self._voltage(vdd),
                              self._voltage(vth), self._as_map(widths),
                              self.problem.frequency)
        return report.static, report.dynamic

    def widths_vector(self, source) -> np.ndarray:
        gates = self.problem.ctx.gates
        if isinstance(source, Mapping):
            return np.asarray([source[name] for name in gates], dtype=float)
        return np.full(len(gates), float(source))
