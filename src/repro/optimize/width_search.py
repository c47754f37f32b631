"""Per-gate minimum-width sizing under delay budgets (Procedure 2's inner loop).

At a fixed ``(Vdd, Vth)``, both energy and delay are monotonic in each
gate's width — energy increasing, the gate's own delay decreasing — so
the energy-optimal width for a gate is the *smallest* width meeting its
Procedure 1 budget (§4.3). Gates are processed in reverse topological
order so every gate's fanout widths (which set its load) are already
fixed; the input-slope term uses the *budgets* of the driving gates
(their actual delays are guaranteed not to exceed those budgets).

Two solvers are provided:

* ``closed_form`` (default): the delay is ``t(w) = t_fix + A + B/w`` with
  ``A = k*Vdd*c_self/I_w`` and ``B = k*Vdd*C_ext/I_w``, so the minimum
  feasible width is ``B / (t_avail - A)`` exactly.
* ``bisect``: the paper's M-step binary search on ``[w_min, w_max]``,
  retained for fidelity and as an ablation reference.

**Budget repair.** A handful of gates can carry budgets below their
physical delay floor at a given corner (the width-independent self-loading
plus slope terms). The paper fixes these with "some post processing of
delay assignments (typically for a very small fraction of the total
number of logic gates)". We implement that post-processing here, where
the corner is known: an under-budgeted gate takes the deficit ``delta``
onto its own budget and subtracts the same ``delta`` from each driving
gate's budget (never below the driver's own delay floor). Because repair
can grow budgets in aggregate, any assignment that used repair is
re-verified with a full STA pass against ``repair_ceiling`` (the
effective cycle time, which callers must supply to enable repair); a
failing check reports the assignment infeasible, exactly as without
repair.

**Infeasibility certificate.** Before the first repair, the critical
delay of the fastest design the sizing could return is bounded from
below (:func:`_delay_floor`). When even that floor misses the ceiling,
no repair can pass the verification, so the pass stops there: the
assignment is infeasible and nothing is repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.context import CircuitContext
from repro.errors import OptimizationError
from repro.obs import trace
from repro.obs.instrument import (
    BUDGET_REPAIRS,
    WIDTH_BISECT_ITERATIONS,
    WIDTH_SIZINGS,
    seam,
)
from repro.obs.metrics import current_metrics
from repro.timing.delay_model import (
    effective_drive_per_width,
    gate_delay,
    slope_coefficient,
    vdd_for,
)
from repro.timing.sta import analyze_timing

#: Smallest budget (s) a driver may be squeezed to during repair.
_MIN_BUDGET = 1e-15

#: :func:`_delay_floor` above ``repair_ceiling * _CERTIFY_FACTOR``
#: certifies a corner infeasible: the repair verification's threshold
#: factor ``1 + 1e-9`` widened by a relative margin of 1e-6, which covers
#: the floor's rounding against any design's STA (a few ulps per gate).
_CERTIFY_FACTOR = (1.0 + 1e-9) * (1.0 + 1e-6)


@dataclass(frozen=True)
class WidthAssignment:
    """Result of one width-sizing pass."""

    widths: Mapping[str, float]
    feasible: bool
    infeasible_gates: Tuple[str, ...]
    #: Gates whose budgets were repaired (deficit moved onto drivers).
    repaired_gates: Tuple[str, ...]
    #: Delay evaluations performed (for complexity accounting).
    evaluations: int


def _vth_for(vth: float | Mapping[str, float], name: str) -> float:
    if isinstance(vth, Mapping):
        return vth[name]
    return vth


def size_widths(ctx: CircuitContext, budgets: Mapping[str, float],
                vdd: float | Mapping[str, float],
                vth: float | Mapping[str, float],
                method: str = "closed_form",
                bisect_steps: int = 24,
                repair_ceiling: float | None = None,
                warm: Mapping[str, float] | None = None) -> WidthAssignment:
    """Size every gate to the smallest budget-meeting width.

    ``budgets`` maps each logic gate to its Procedure 1 maximum delay.
    Passing ``repair_ceiling`` (the effective cycle time ``b * T_c``)
    enables the local budget-repair post-processing described in the
    module docstring. ``warm`` optionally maps gates to previously-solved
    widths used to seed the ``bisect`` brackets (one extra probe per
    gate, usually collapsing the bracket immediately); the closed-form
    solver is exact and ignores it.
    """
    if method not in ("closed_form", "bisect"):
        raise OptimizationError(f"unknown width-search method {method!r}")
    span_name = "width_bisect" if method == "bisect" else "width_search"
    with trace.span(span_name, method=method), \
            seam("width_search", counter=WIDTH_SIZINGS):
        return _size_widths(ctx, budgets, vdd, vth, method, bisect_steps,
                            repair_ceiling, warm)


def _size_widths(ctx: CircuitContext, budgets: Mapping[str, float],
                 vdd: float | Mapping[str, float],
                 vth: float | Mapping[str, float],
                 method: str, bisect_steps: int,
                 repair_ceiling: float | None,
                 warm: Mapping[str, float] | None = None) -> WidthAssignment:
    tech = ctx.tech
    working: Dict[str, float] = dict(budgets)
    widths: Dict[str, float] = {}
    infeasible: List[str] = []
    repaired: List[str] = []
    evaluations = 0
    floor_checked = False

    for name in ctx.gates_reversed:
        info = ctx.info(name)
        gate_vth = _vth_for(vth, name)
        gate_vdd = vdd_for(vdd, name)
        budget = working.get(name)
        if budget is None:
            raise OptimizationError(f"no delay budget for gate {name!r}")

        drive = effective_drive_per_width(tech, gate_vdd, gate_vth,
                                          info.fanin_count)
        if drive <= 0.0:
            # Subthreshold contention: the gate cannot switch at any width.
            widths[name] = tech.width_max
            infeasible.append(name)
            continue

        slope = _slope_term(ctx, name, gate_vdd, gate_vth, working)
        # The gate's fanout widths are final (reverse topological order),
        # so its parasitics are computed once here and shared by the
        # solver and, on failure, the repair pass.
        wire_rc, flight, external_cap = _fixed_and_external(ctx, name, widths)
        if method == "closed_form":
            width, used = _closed_form_width(ctx, name, budget, slope,
                                             gate_vdd, drive, wire_rc,
                                             flight, external_cap)
        else:
            width, used = _bisect_width(ctx, name, budget, slope, gate_vdd,
                                        drive, wire_rc, flight, external_cap,
                                        bisect_steps,
                                        None if warm is None
                                        else warm.get(name))
        evaluations += used

        if width is None and repair_ceiling is not None:
            if not floor_checked:
                floor_checked = True
                if (_delay_floor(ctx, vdd, vth)
                        > repair_ceiling * _CERTIFY_FACTOR):
                    infeasible.append(name)
                    for unsized in ctx.gates_reversed:
                        widths.setdefault(unsized, tech.width_max)
                    break
            width = _attempt_repair(ctx, name, vdd, vth, drive, working,
                                    widths, wire_rc, flight, external_cap)
            if width is not None:
                repaired.append(name)
        if width is None:
            widths[name] = tech.width_max
            infeasible.append(name)
        else:
            widths[name] = width

    feasible = not infeasible
    if feasible and repaired:
        if repair_ceiling is None:
            raise OptimizationError(
                "budget repair ran without a repair_ceiling")  # pragma: no cover
        # Repairs perturb the budget bookkeeping that the per-gate
        # guarantees rest on (raised budgets invalidate the slope
        # assumptions of already-sized downstream gates), so verify the
        # actual design with a full STA pass.
        report = analyze_timing(ctx, vdd, vth, widths)
        if report.critical_delay > repair_ceiling * (1.0 + 1e-9):
            feasible = False
            infeasible = list(repaired)

    metrics = current_metrics()
    metrics.incr(WIDTH_BISECT_ITERATIONS, evaluations)
    if repaired:
        metrics.incr(BUDGET_REPAIRS, len(repaired))
    return WidthAssignment(widths=widths, feasible=feasible,
                           infeasible_gates=tuple(infeasible),
                           repaired_gates=tuple(repaired),
                           evaluations=evaluations)


def _slope_term(ctx: CircuitContext, name: str, vdd: float, vth: float,
                budgets: Mapping[str, float]) -> float:
    """Input-slope delay component from the drivers' (current) budgets."""
    info = ctx.info(name)
    fanin_budget = 0.0
    for fanin in info.fanin_names:
        if fanin in budgets:
            fanin_budget = max(fanin_budget, budgets[fanin])
    return slope_coefficient(ctx.tech, vdd, vth) * fanin_budget


def _fixed_and_external(ctx: CircuitContext, name: str,
                        widths: Mapping[str, float]
                        ) -> Tuple[float, float, float]:
    """(worst branch RC, worst flight, external cap) for a gate's output."""
    info = ctx.info(name)
    wire_rc = 0.0
    flight = 0.0
    external_cap = info.wire_cap
    for sink, cap_per_width, branch_cap, branch_res, branch_flight in zip(
            info.fanout_names, info.fanout_input_caps, info.branch_caps,
            info.branch_resistances, info.branch_flights):
        sink_width = ctx.BOUNDARY_WIDTH if sink == "" \
            else widths.get(sink, 1.0)
        external_cap += sink_width * cap_per_width
        rc = branch_res * (0.5 * branch_cap + sink_width * cap_per_width)
        wire_rc = max(wire_rc, rc)
        flight = max(flight, branch_flight)
    return wire_rc, flight, external_cap


def _closed_form_width(ctx: CircuitContext, name: str, budget: float,
                       slope: float, vdd: float, drive_per_width: float,
                       wire_rc: float, flight: float, external_cap: float
                       ) -> Tuple[float | None, int]:
    """Exact minimum feasible width from the ``t = t_fix + A + B/w`` form."""
    tech = ctx.tech
    info = ctx.info(name)
    k_vdd = tech.velocity_saturation_coeff * vdd
    self_term = k_vdd * info.self_cap / drive_per_width
    available = budget - slope - wire_rc - flight - self_term
    external_term = k_vdd * external_cap / drive_per_width
    if available <= 0.0:
        return None, 1
    width = external_term / available
    if width > tech.width_max:
        return None, 1
    return max(width, tech.width_min), 1


def _bisect_width(ctx: CircuitContext, name: str, budget: float,
                  slope: float, vdd: float, drive_per_width: float,
                  wire_rc: float, flight: float, external_cap: float,
                  steps: int,
                  warm_width: float | None = None
                  ) -> Tuple[float | None, int]:
    """The paper's M-step binary search on the width range.

    The width-independent delay terms (slope, wire RC, flight, external
    cap) are hoisted by the caller, so each probe is pure arithmetic —
    no per-step fanout re-walk. ``warm_width`` (an interior
    previously-solved width) collapses the starting bracket with a
    single extra probe.
    """
    tech = ctx.tech
    info = ctx.info(name)
    k_vdd = tech.velocity_saturation_coeff * vdd
    fixed = slope + wire_rc + flight
    self_cap = info.self_cap
    evaluations = 0

    def delay_at(width: float) -> float:
        load = width * self_cap + external_cap
        return fixed + k_vdd * load / (drive_per_width * width)

    evaluations += 1
    if delay_at(tech.width_max) > budget:
        return None, evaluations
    evaluations += 1
    if delay_at(tech.width_min) <= budget:
        return tech.width_min, evaluations

    low, high = tech.width_min, tech.width_max
    if warm_width is not None and low < warm_width < high:
        evaluations += 1
        if delay_at(warm_width) <= budget:
            high = warm_width
        else:
            low = warm_width
    for _ in range(steps):
        mid = 0.5 * (low + high)
        evaluations += 1
        if delay_at(mid) <= budget:
            high = mid
        else:
            low = mid
    return high, evaluations


def _gate_floor(ctx: CircuitContext, name: str,
                vdd: float | Mapping[str, float],
                vth: float | Mapping[str, float],
                widths: Mapping[str, float]) -> float:
    """Width-independent delay floor of a gate at this corner (slope aside)."""
    gate_vth = _vth_for(vth, name)
    gate_vdd = vdd_for(vdd, name)
    drive = effective_drive_per_width(ctx.tech, gate_vdd, gate_vth,
                                      ctx.info(name).fanin_count)
    if drive <= 0.0:
        return math.inf
    wire_rc, flight, _ = _fixed_and_external(ctx, name, widths)
    k_vdd = ctx.tech.velocity_saturation_coeff * gate_vdd
    return k_vdd * ctx.info(name).self_cap / drive + wire_rc + flight


def _delay_floor(ctx: CircuitContext, vdd: float | Mapping[str, float],
                 vth: float | Mapping[str, float]) -> float:
    """A lower bound on the critical delay of every sizing at a corner.

    STA in which each gate's own width is ``w_max`` and every gate sink
    is at ``w_min``: a gate's delay falls with its own width and rises
    with its sinks' widths, so no width assignment in ``[w_min, w_max]``
    has a smaller critical delay.
    """
    tech = ctx.tech
    network = ctx.network
    delays: Dict[str, float] = {}
    arrivals: Dict[str, float] = {}
    for name in network.topological_order():
        gate = network.gate(name)
        if gate.is_input:
            delays[name] = arrivals[name] = 0.0
            continue
        widths = {sink: tech.width_min
                  for sink in ctx.info(name).fanout_names if sink}
        widths[name] = tech.width_max
        delays[name] = gate_delay(ctx, name, vdd, _vth_for(vth, name),
                                  widths, max(delays[fanin]
                                              for fanin in gate.fanins))
        arrivals[name] = max(arrivals[fanin]
                             for fanin in gate.fanins) + delays[name]
    return max(arrivals[output] for output in network.outputs)


def _attempt_repair(ctx: CircuitContext, name: str,
                    vdd: float | Mapping[str, float],
                    vth: float | Mapping[str, float],
                    drive_per_width: float, working: Dict[str, float],
                    widths: Mapping[str, float],
                    wire_rc: float, flight: float,
                    external_cap: float) -> float | None:
    """Shift the gate's budget deficit onto its drivers (see module doc).

    The gate is given the budget it needs at a conservative width
    (80 % of ``w_max``, leaving sizing margin); the same delta is removed
    from each logic-gate driver, but never below the driver's own delay
    floor, so a repaired gate cannot render its drivers hopeless. Budgets
    may therefore grow in aggregate — the caller re-verifies the final
    design with a full STA pass. Returns the width, or None when even the
    repaired budget cannot be met.

    The gate's own parasitics (``wire_rc``/``flight``/``external_cap``)
    come from the caller's sizing pass — repair never changes fanout
    widths, so recomputing them here would walk the same fanouts for the
    same values.
    """
    tech = ctx.tech
    info = ctx.info(name)
    gate_vth = _vth_for(vth, name)
    gate_vdd = vdd_for(vdd, name)
    logic_fanins = [fanin for fanin in info.fanin_names if fanin in working]

    k_vdd = tech.velocity_saturation_coeff * gate_vdd
    self_term = k_vdd * info.self_cap / drive_per_width
    external_term = k_vdd * external_cap / drive_per_width

    for _ in range(4):
        slope = _slope_term(ctx, name, gate_vdd, gate_vth, working)
        needed = (slope + wire_rc + flight + self_term
                  + external_term / (0.8 * tech.width_max))
        delta = needed - working[name]
        if delta <= 0.0:
            break
        working[name] += delta
        for fanin in logic_fanins:
            floor = 1.05 * _gate_floor(ctx, fanin, vdd, vth, widths)
            working[fanin] = max(working[fanin] - delta, floor, _MIN_BUDGET)

    slope = _slope_term(ctx, name, gate_vdd, gate_vth, working)
    width, _ = _closed_form_width(ctx, name, working[name], slope, gate_vdd,
                                  drive_per_width, wire_rc, flight,
                                  external_cap)
    return width


def _longest_budget_path(ctx: CircuitContext,
                         budgets: Mapping[str, float]) -> float:
    """Longest input→output path measured in (possibly repaired) budgets."""
    network = ctx.network
    arrival: Dict[str, float] = {}
    worst = 0.0
    outputs = set(network.outputs)
    for name in network.topological_order():
        gate = network.gate(name)
        if gate.is_input:
            arrival[name] = 0.0
        else:
            arrival[name] = budgets[name] + max(arrival[fanin]
                                                for fanin in gate.fanins)
        if name in outputs:
            worst = max(worst, arrival[name])
    return worst
