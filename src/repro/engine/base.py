"""The evaluation-engine seam: one protocol, three implementations.

Procedure 2's inner loop — budgets → minimum-width sizing → STA → energy
(§4.3, eqs. A1–A3) — is what every optimizer in this repository spends
its time on. :class:`Engine` is the single seam through which they all
evaluate it:

* :class:`~repro.engine.scalar.ScalarEngine` wraps the scalar reference
  modules (``optimize.width_search``, ``timing.sta``, ``power.energy``),
* :class:`~repro.engine.array.ArrayEngine` runs the vectorized
  :mod:`repro.fastpath` kernels, including per-gate Vdd/Vth vectors and
  in-engine budget repair, so multi-Vth / multi-Vdd searches and the
  annealer stay vectorized with **no scalar fallback**; it also
  evaluates design batches natively (``measure_batch`` /
  ``evaluate_batch``, each row ``==`` to the looped call),
* :class:`~repro.engine.incremental.IncrementalEngine` wraps the array
  engine and adds a stateful delta-evaluation API
  (``begin``/``apply_move``/``apply_voltage``) whose results are
  bit-identical to full evaluation — the annealer's per-move fastpath.

**Parity contract.** For any (budgets, Vdd, Vth) point the scalar and array
engines agree on the feasibility verdict and, on feasible points, on energies
and critical delays to float round-off (relative ~1e-9; the engines sum
identical terms in different associations). ``tests/test_fastpath.py``
and ``tests/test_engine_parity.py`` enforce this on every benchmark
circuit and on randomized generator circuits, including corners that
exercise budget repair.

**Selection.** ``"scalar"``, ``"fast"`` and ``"incremental"`` pick an
engine explicitly (``"batch"`` is an alias of ``"fast"``);
``"auto"`` (the default everywhere) resolves via the ambient
:func:`use_engine` override, then the ``REPRO_ENGINE`` environment
variable, then ``"scalar"``. Checkpoint fingerprints record the
*resolved* name so a checkpoint can never silently resume under a
different engine.

All widths crossing this API — vectors returned by
:meth:`Engine.widths_vector`, handles in :class:`EngineSizing` — are in
canonical ``ctx.gates`` order; per-gate mappings are accepted anywhere
widths or voltages are.
"""

from __future__ import annotations

import abc
import contextlib
import math
import os
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.errors import OptimizationError
from repro.obs.instrument import (
    BATCH_FALLBACK,
    FEASIBLE_POINTS,
    OBJECTIVE_EVALUATIONS,
    WARM_STARTS,
    engine_evaluations_metric,
)
from repro.obs.metrics import current_metrics
from repro.timing.budgeting import BudgetResult

if TYPE_CHECKING:  # annotation-only: breaks the engine <-> optimize cycle
    from repro.optimize.problem import OptimizationProblem

#: Concrete engine names (``"batch"`` is an alias of ``"fast"``).
ENGINE_NAMES: Tuple[str, ...] = ("scalar", "fast", "incremental", "batch")
#: Accepted ``engine=`` settings values (``"auto"`` defers resolution).
ENGINE_CHOICES: Tuple[str, ...] = ("auto",) + ENGINE_NAMES

#: Environment variable consulted by ``"auto"`` resolution.
ENGINE_ENV_VAR = "REPRO_ENGINE"

_ENGINE_OVERRIDE: ContextVar[Optional[str]] = ContextVar(
    "repro_engine_override", default=None)


def _validate_choice(name: str, source: str) -> str:
    if name not in ENGINE_CHOICES:
        raise OptimizationError(
            f"unknown engine {name!r} (from {source}); "
            f"choose from {', '.join(ENGINE_CHOICES)}")
    return name


@contextlib.contextmanager
def use_engine(name: Optional[str]) -> Iterator[None]:
    """Ambient engine override for ``engine="auto"`` resolution.

    ``None`` installs nothing (a convenience for optional CLI flags).
    The override outranks ``REPRO_ENGINE``; an explicit non-``auto``
    ``engine=`` setting outranks both.
    """
    if name is None:
        yield
        return
    token = _ENGINE_OVERRIDE.set(_validate_choice(name, "use_engine"))
    try:
        yield
    finally:
        _ENGINE_OVERRIDE.reset(token)


def resolve_engine_name(requested: str = "auto") -> str:
    """The concrete engine a request resolves to (one of ENGINE_NAMES)."""
    _validate_choice(requested, "settings")
    if requested != "auto":
        return requested
    override = _ENGINE_OVERRIDE.get()
    if override is not None and override != "auto":
        return override
    env = os.environ.get(ENGINE_ENV_VAR, "").strip().lower()
    if env:
        _validate_choice(env, f"${ENGINE_ENV_VAR}")
        if env != "auto":
            return env
    return "scalar"


def fingerprint_engine_name(name: str) -> str:
    """The engine name as recorded in checkpoint / serve fingerprints.

    ``"batch"`` names the same array engine as ``"fast"`` — batching is
    a pure execution detail, bit-identical per row — so it fingerprints
    as ``"fast"``: checkpoints, resumes and serve cache keys are
    interchangeable between the two names (gated by
    ``ci/check_batch_parity.py``). Every other engine fingerprints as
    itself.
    """
    return "fast" if name == "batch" else name


@dataclass(frozen=True)
class EngineSizing:
    """One width-sizing outcome, engine-agnostic.

    ``widths`` is the engine-native handle (a mapping for the scalar
    engine, a canonical-order vector for the array engine) — cheap to
    produce and accepted by the same engine's ``sta``/``total_energy``/
    ``measure``. :meth:`widths_map` materializes a ``{name: width}``
    dict; callers should do that only for results they keep.
    """

    feasible: bool
    #: Gates whose budgets were repaired (deficit moved onto drivers).
    repaired: Tuple[str, ...]
    widths: object
    materialize: Callable[[], Dict[str, float]] = field(repr=False)

    def widths_map(self) -> Dict[str, float]:
        return self.materialize()


class EngineMeasurement(NamedTuple):
    """Energy + timing of one concrete design point."""

    static: float
    dynamic: float
    critical_delay: float

    @property
    def energy(self) -> float:
        return self.static + self.dynamic


@dataclass(frozen=True)
class EngineEvaluation:
    """One objective evaluation: budgets → sizing → energy.

    ``energy`` is ``inf`` (and ``sizing`` is ``None``) when the sizing
    was infeasible at this corner.
    """

    energy: float
    static: float
    dynamic: float
    feasible: bool
    sizing: Optional[EngineSizing]

    def widths_map(self) -> Dict[str, float]:
        if self.sizing is None:
            raise OptimizationError(
                "no widths: the evaluation was infeasible")
        return self.sizing.widths_map()


_INFEASIBLE = EngineEvaluation(energy=math.inf, static=math.inf,
                               dynamic=math.inf, feasible=False, sizing=None)


class Engine(abc.ABC):
    """One implementation of the Procedure 2 evaluation kernel.

    Voltages (``vdd``/``vth``) are scalars, per-gate mappings, or
    canonical-order vectors throughout.
    """

    name: ClassVar[str]
    #: True when the engine evaluates design batches natively (one
    #: vectorized kernel invocation for B rows). Engines without it
    #: still serve the ``*_batch`` API through a row-at-a-time fallback
    #: loop (counted by ``engine.batch.fallback``).
    supports_batch: ClassVar[bool] = False

    def __init__(self, problem: OptimizationProblem):
        self.problem = problem

    @abc.abstractmethod
    def size_widths(self, budgets: BudgetResult, vdd, vth, *,
                    warm=None) -> EngineSizing:
        """Minimum-width sizing under ``budgets`` (budget repair on).

        ``warm`` optionally carries a previously-solved width assignment
        (engine-native handle or ``{name: width}`` map) used to seed the
        per-gate bisection brackets of ``width_method="bisect"``; the
        closed-form solver is exact and ignores it. Warm starts change
        the bisection's discretization (results stay within the solver's
        bracket tolerance but are not bit-identical), so they are opt-in
        and excluded from the cross-engine parity gates.
        """

    @abc.abstractmethod
    def sta(self, vdd, vth, widths) -> float:
        """Critical delay of a concrete design point (s)."""

    @abc.abstractmethod
    def total_energy(self, vdd, vth, widths) -> Tuple[float, float]:
        """``(static, dynamic)`` energy per cycle (J), eqs. A1 + A2."""

    @abc.abstractmethod
    def widths_vector(self, source: "float | Mapping[str, float]"):
        """A mutable per-gate width vector in canonical ``ctx.gates``
        order, seeded from a scalar or a ``{name: width}`` map."""

    def measure(self, vdd, vth, widths) -> EngineMeasurement:
        """Energy and critical delay of one concrete design point.

        **Reference evaluation order**: energy first, then STA. Every
        cost built on measurements (the annealer's ``_cost``, the
        incremental engine's refresh) delegates to this method or
        reproduces this order, so instrumented call sequences, counter
        totals and profiling attributions stay comparable across
        engines; implementations and wrappers must preserve it.
        """
        static, dynamic = self.total_energy(vdd, vth, widths)
        return EngineMeasurement(static=static, dynamic=dynamic,
                                 critical_delay=self.sta(vdd, vth, widths))

    def evaluate(self, budgets: BudgetResult, vdd, vth, *,
                 delay_vth=None, energy_vth=None,
                 warm=None) -> EngineEvaluation:
        """The optimizers' objective: size at ``(vdd, delay_vth)``, then
        energy at ``(vdd, energy_vth)`` (both default to ``vth``; the
        split serves the variation-aware corners of Figure 2a).
        ``warm`` seeds the bisection brackets (see :meth:`size_widths`).
        """
        delay_vth = vth if delay_vth is None else delay_vth
        energy_vth = vth if energy_vth is None else energy_vth
        if warm is None:
            sizing = self.size_widths(budgets, vdd, delay_vth)
        else:
            sizing = self.size_widths(budgets, vdd, delay_vth, warm=warm)
        if not sizing.feasible:
            return _INFEASIBLE
        static, dynamic = self.total_energy(vdd, energy_vth, sizing.widths)
        return EngineEvaluation(energy=static + dynamic, static=static,
                                dynamic=dynamic, feasible=True,
                                sizing=sizing)

    # -- batched API (row-at-a-time fallback; see ArrayEngine) ---------------

    def measure_batch(self, vdd_rows, vth_rows,
                      widths_rows) -> "list[EngineMeasurement]":
        """Measure B design points (rows are ordinary ``measure`` args).

        The default implementation is the row-at-a-time loop — results
        are *by construction* what the caller would have computed
        without batching. Engines with ``supports_batch`` override this
        with one vectorized invocation whose rows are bit-identical to
        the loop.
        """
        current_metrics().incr(BATCH_FALLBACK)
        return [self.measure(vdd, vth, widths)
                for vdd, vth, widths in zip(vdd_rows, vth_rows, widths_rows)]

    def evaluate_batch(self, budgets: BudgetResult, vdd_rows, vth_rows, *,
                       delay_vth_rows=None,
                       energy_vth_rows=None) -> "list[EngineEvaluation]":
        """Evaluate B objective corners (rows are ``evaluate`` args).

        Same fallback contract as :meth:`measure_batch`; warm starts are
        deliberately absent (they chain row N's sizing into row N+1's,
        which a batch cannot honour).
        """
        current_metrics().incr(BATCH_FALLBACK)
        count = len(vdd_rows)
        delay_vth_rows = delay_vth_rows or [None] * count
        energy_vth_rows = energy_vth_rows or [None] * count
        return [self.evaluate(budgets, vdd, vth, delay_vth=delay_vth,
                              energy_vth=energy_vth)
                for vdd, vth, delay_vth, energy_vth
                in zip(vdd_rows, vth_rows, delay_vth_rows,
                       energy_vth_rows)]


class Evaluator:
    """The shared objective factory product: one callable per search.

    Binds (problem, budgets, engine) plus the optional Vth bias hooks,
    counts evaluations and feasible points, and increments the canonical
    metrics — :data:`~repro.obs.instrument.OBJECTIVE_EVALUATIONS`,
    :data:`~repro.obs.instrument.FEASIBLE_POINTS`, and the engine-labeled
    ``engine.<name>.evaluations`` — in exactly one place, replacing the
    per-optimizer hand-rolled evaluate loops.
    """

    def __init__(self, problem: OptimizationProblem, engine: Engine,
                 budgets: BudgetResult,
                 delay_vth_bias: Callable[[float], float] | None = None,
                 energy_vth_bias: Callable[[float], float] | None = None,
                 warm_starts: bool = False):
        self.problem = problem
        self.engine = engine
        self.budgets = budgets
        self.delay_vth_bias = delay_vth_bias
        self.energy_vth_bias = energy_vth_bias
        #: When set, each sizing seeds its bisection brackets from the
        #: widths of the nearest already-solved point — the previous
        #: feasible evaluation through this evaluator (evaluation order
        #: is the neighborhood: grid scans visit adjacent cells
        #: consecutively). See :meth:`Engine.size_widths`.
        self.warm_starts = warm_starts
        self._warm_hint = None
        self._prefetched: Dict[Tuple[float, float], EngineEvaluation] = {}
        self.evaluations = 0
        self.feasible_points = 0
        self._engine_metric = engine_evaluations_metric(engine.name)

    def prefetch(self, corners) -> int:
        """Pre-evaluate scalar ``(vdd, vth)`` corners in one batched
        engine call; subsequent ``__call__``\\ s consume the cache.

        A pure execution detail: the per-call counters, warm-start
        bookkeeping and returned evaluations are exactly those of the
        unprefetched loop (batched rows are bit-identical to the loop).
        No-ops (returns 0) when the engine lacks ``supports_batch``,
        when warm starts are active (they chain sizings call to call),
        or when fewer than two new corners remain.
        """
        if not self.engine.supports_batch or self.warm_starts:
            return 0
        fresh = [corner for corner in dict.fromkeys(
            (float(corner[0]), float(corner[1])) for corner in corners)
            if corner not in self._prefetched]
        if len(fresh) < 2:
            return 0
        delay_rows = [vth if self.delay_vth_bias is None
                      else self.delay_vth_bias(vth) for _, vth in fresh]
        energy_rows = [vth if self.energy_vth_bias is None
                       else self.energy_vth_bias(vth) for _, vth in fresh]
        evaluations = self.engine.evaluate_batch(
            self.budgets, [vdd for vdd, _ in fresh],
            [vth for _, vth in fresh], delay_vth_rows=delay_rows,
            energy_vth_rows=energy_rows)
        self._prefetched.update(zip(fresh, evaluations))
        return len(fresh)

    def __call__(self, vdd, vth) -> EngineEvaluation:
        self.evaluations += 1
        metrics = current_metrics()
        metrics.incr(OBJECTIVE_EVALUATIONS)
        metrics.incr(self._engine_metric)
        try:
            evaluation = self._prefetched.pop((float(vdd), float(vth)))
        except (KeyError, TypeError):
            evaluation = None
        if evaluation is not None:
            if evaluation.feasible:
                self.feasible_points += 1
                metrics.incr(FEASIBLE_POINTS)
                if self.warm_starts:
                    self._warm_hint = evaluation.sizing.widths
            return evaluation
        delay_vth = (vth if self.delay_vth_bias is None
                     else self.delay_vth_bias(vth))
        energy_vth = (vth if self.energy_vth_bias is None
                      else self.energy_vth_bias(vth))
        warm = self._warm_hint if self.warm_starts else None
        if warm is not None:
            metrics.incr(WARM_STARTS)
        evaluation = self.engine.evaluate(self.budgets, vdd, vth,
                                          delay_vth=delay_vth,
                                          energy_vth=energy_vth,
                                          warm=warm)
        if evaluation.feasible:
            self.feasible_points += 1
            metrics.incr(FEASIBLE_POINTS)
            if self.warm_starts:
                self._warm_hint = evaluation.sizing.widths
        return evaluation
