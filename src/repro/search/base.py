"""The search-strategy seam over the (Vdd, Vth) plane.

Procedure 2's outer loop — *which* (Vdd, Vth) corners get a Procedure 1
budgeting + width sizing — is pluggable behind :class:`SearchStrategy`.
The exhaustive grid (the paper's experimental setup, with the PR 5
bound-based pruning folded in) is the exact reference implementation of
the seam; the adaptive strategies (random, surrogate, hyperband) trade
the quadratic scan for a budgeted search that the parity harness
(``tests/test_search_parity.py``, ``ci/check_identity.py search``) holds
to the grid argmin's energy at a fraction of the evaluations.

The contract every strategy implements:

* :meth:`~SearchStrategy.propose` returns the next **round** of
  candidates. Round composition is a pure function of the strategy's
  config and the observation history — never of the jobs count, wall
  clock, or worker scheduling — which is what makes every strategy
  jobs-invariant: the driver evaluates a round serially or sharded over
  the supervised pool and feeds results back in canonical proposal
  order either way.
* :meth:`~SearchStrategy.observe` feeds one evaluated candidate back,
  in proposal order. Strategies adapt *between* rounds only.
* :meth:`~SearchStrategy.done` ends the search (budget exhausted, or an
  early stop — counted on ``search.<name>.early_stops``).
* :meth:`~SearchStrategy.state` / :meth:`~SearchStrategy.restore`
  round-trip the strategy's mutable state through JSON for
  checkpointing. Resume does not need :meth:`restore` for correctness —
  strategies are deterministic, so replaying the recorded evaluations
  through :meth:`observe` rebuilds the identical state — but the
  serialized state is persisted with the checkpoint so an interrupted
  search is inspectable and verifiable.
* :meth:`~SearchStrategy.config` is the strategy's *resolved*
  configuration (name, budget, seed, shape knobs). It is recorded in
  the checkpoint fingerprint, the serve result-cache key, and result
  ``details`` — a cached grid result can never satisfy a random-search
  request, and a resumed run can never silently switch strategy or
  seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import OptimizationError

#: Strategies served by the seam (the paper's nested bisection stays a
#: dedicated code path in ``optimize_joint`` — it steers per evaluation
#: and has no round structure to shard).
STRATEGY_CHOICES = ("grid", "random", "surrogate", "hyperband")


@dataclass(frozen=True)
class Candidate:
    """One proposed (Vdd, Vth) corner.

    ``tag`` is strategy-private routing (e.g. the hyperband arm an
    observation belongs to); the driver carries it back untouched.
    """

    vdd: float
    vth: float
    tag: object = None


class SearchStrategy:
    """Base class of the pluggable (Vdd, Vth) samplers (see module doc)."""

    #: Strategy name — CLI / fingerprint / metrics vocabulary.
    name: str = "base"

    #: Natural round size. The driver passes this to :meth:`propose`;
    #: it is config-derived (never jobs-derived) so round composition is
    #: identical at any ``--jobs`` count.
    proposal_batch: int = 1

    def propose(self, batch: int) -> List[Candidate]:
        """Up to ``batch`` candidates for the next round.

        Exhaustive strategies may return more (the grid emits its whole
        scan as one round so sharding sees every cell at once). An
        empty list ends the search even if :meth:`done` is False.
        """
        raise NotImplementedError

    def observe(self, candidate: Candidate, energy: float,
                feasible: bool) -> None:
        """Feed back one evaluated candidate (canonical proposal order)."""
        raise NotImplementedError

    def done(self) -> bool:
        """True once the strategy has no further rounds to propose."""
        raise NotImplementedError

    def state(self) -> Dict[str, object]:
        """JSON-serializable snapshot of the mutable search state."""
        raise NotImplementedError

    def restore(self, state: Dict[str, object]) -> None:
        """Rebuild :meth:`state`'s snapshot (inverse of ``state()``)."""
        raise NotImplementedError

    def config(self) -> Dict[str, object]:
        """Resolved, immutable configuration (fingerprint contribution)."""
        raise NotImplementedError

    def round_span(self, round_index: int, jobs: int
                   ) -> Tuple[str, Dict[str, object]]:
        """(span name, attributes) for this round's trace span."""
        return "search_round", {"strategy": self.name,
                                "round": round_index, "jobs": jobs}

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def _check_budget(budget: int, minimum: int, name: str) -> int:
        if budget < minimum:
            raise OptimizationError(
                f"{name}: search_budget must be >= {minimum}, got {budget}")
        return budget


def proposal_rng(seed: int, index: int) -> random.Random:
    """The RNG of proposal ``index`` under strategy seed ``seed``.

    Counter-seeded exactly like the Monte-Carlo sampler's per-sample
    RNG (PR 4): the stream of proposal ``index`` depends only on
    ``(seed, index)``, never on how many proposals preceded it in this
    process — so sharded and serial runs, and runs resumed mid-round,
    draw identical points.
    """
    return random.Random((seed << 32) ^ index)


def best_feasible(observations: List[Tuple[float, float, float, bool]]
                  ) -> Tuple[Optional[Tuple[float, float]], float]:
    """(point, energy) of the best feasible observation, or (None, inf)."""
    point, energy = None, math.inf
    for vdd, vth, value, feasible in observations:
        if feasible and value < energy:
            point, energy = (vdd, vth), value
    return point, energy


def encode_float(value: float) -> float | str:
    """JSON-portable float for :meth:`SearchStrategy.state` snapshots.

    Same convention as the checkpoint file (infeasible corners carry
    ``inf`` energies, which bare JSON cannot hold).
    """
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return float(value)


def decode_float(value) -> float:
    if value == "nan":
        return math.nan
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)
