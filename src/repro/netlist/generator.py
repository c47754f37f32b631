"""Deterministic random-logic network generator.

The paper optimizes "random logic networks" whose interconnect statistics
follow Rent's rule (§2). This generator produces combinational DAGs with:

* an exact gate count, input count and logic depth,
* a configurable fanin distribution (mostly 2-input gates, as in the
  ISCAS suites),
* a heavy-tailed fanout distribution obtained by preferential attachment,
  whose skew is controlled by ``fanout_skew`` (a Rent-exponent-like knob:
  0 = uniform fanouts, 1 = strongly preferential, matching the long-tail
  fanouts of real random logic).

Generation is fully deterministic given the spec's ``seed``; the
ISCAS-like benchmark family (:mod:`repro.netlist.benchmarks`) is built on
top of this module. Every float that steers a draw is accumulated left to
right in one fixed order, so a spec yields the same netlist, byte for
byte, on every supported Python version.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import NetlistError
from repro.netlist.gates import GateType
from repro.netlist.network import LogicNetwork, NetworkBuilder

#: Default fanin distribution: (fanin, probability). Mirrors the ISCAS'89
#: mix: predominantly 2-input gates, some 3/4-input, a sprinkle of
#: inverters.
DEFAULT_FANIN_PROBS: Tuple[Tuple[int, float], ...] = (
    (1, 0.10),
    (2, 0.60),
    (3, 0.20),
    (4, 0.10),
)

#: Gate types by fanin: inverters for fanin 1, the static-CMOS family
#: otherwise (NAND/NOR dominate, as in technology-mapped random logic).
_SINGLE_INPUT_TYPES: Tuple[Tuple[GateType, float], ...] = (
    (GateType.NOT, 0.8),
    (GateType.BUF, 0.2),
)
_MULTI_INPUT_TYPES: Tuple[Tuple[GateType, float], ...] = (
    (GateType.NAND, 0.35),
    (GateType.NOR, 0.30),
    (GateType.AND, 0.15),
    (GateType.OR, 0.15),
    (GateType.XOR, 0.05),
)


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of a generated network."""

    name: str
    n_inputs: int
    n_outputs: int
    n_gates: int
    depth: int
    seed: int = 0
    fanin_probs: Tuple[Tuple[int, float], ...] = DEFAULT_FANIN_PROBS
    #: Preferential-attachment exponent shaping the fanout tail (>= 0).
    fanout_skew: float = 0.6

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise NetlistError(f"n_inputs must be >= 1, got {self.n_inputs}")
        if self.n_outputs < 1:
            raise NetlistError(f"n_outputs must be >= 1, got {self.n_outputs}")
        if self.depth < 1:
            raise NetlistError(f"depth must be >= 1, got {self.depth}")
        if self.n_gates < self.depth:
            raise NetlistError(
                f"n_gates ({self.n_gates}) must be >= depth ({self.depth}) "
                "so every level can hold a gate")
        if self.fanout_skew < 0.0:
            raise NetlistError(
                f"fanout_skew must be >= 0, got {self.fanout_skew}")
        total = sum(probability for _, probability in self.fanin_probs)
        if not 0.999 < total < 1.001:
            raise NetlistError(
                f"fanin probabilities must sum to 1, got {total}")


def _pick_weighted(rng: random.Random,
                   table: Sequence[Tuple[object, float]]) -> object:
    roll = rng.random()
    cumulative = 0.0
    for value, probability in table:
        cumulative += probability
        if roll < cumulative:
            return value
    return table[-1][0]


def _gates_per_level(spec: GeneratorSpec, rng: random.Random) -> List[int]:
    """Split ``n_gates`` over ``depth`` levels, each level non-empty.

    Real random logic is widest in the early-middle levels and tapers
    toward the outputs; we use a triangular profile with a random jitter.
    """
    weights = []
    for level in range(1, spec.depth + 1):
        peak = max(spec.depth * 0.35, 1.0)
        distance = abs(level - peak) / spec.depth
        weights.append(max(0.15, 1.0 - distance) * (0.8 + 0.4 * rng.random()))
    total_weight = 0.0
    for weight in weights:  # not sum(): it compensates from Python 3.12 on
        total_weight += weight
    counts = [max(1, round(spec.n_gates * weight / total_weight))
              for weight in weights]
    # Repair rounding drift while keeping every level >= 1.
    surplus = sum(counts) - spec.n_gates
    index = 0
    while surplus > 0:
        position = index % spec.depth
        if counts[position] > 1:
            counts[position] -= 1
            surplus -= 1
        index += 1
    index = 0
    while surplus < 0:
        counts[index % spec.depth] += 1
        surplus += 1
        index += 1
    return counts


def generate_network(spec: GeneratorSpec) -> LogicNetwork:
    """Generate the network described by ``spec`` (deterministic in seed)."""
    rng = random.Random(spec.seed)

    input_names = [f"pi{index}" for index in range(spec.n_inputs)]
    #: Every node by creation index: inputs first, then gates level by
    #: level, so the nodes below a level (and the level just below it) are
    #: contiguous index ranges.
    names: List[str] = list(input_names)
    fanouts: List[int] = [0] * spec.n_inputs
    weights = _FanoutWeights(spec.n_inputs + spec.n_gates, spec.fanout_skew)
    level_nodes: Dict[int, List[str]] = {0: list(input_names)}
    counts = _gates_per_level(spec, rng)
    #: Mutable gate records (name, type, fanins, level) so post-passes can
    #: still adjust connectivity before the network is frozen.
    records: List[Tuple[str, GateType, List[str], int]] = []

    previous_start = 0
    for level in range(1, spec.depth + 1):
        level_start = len(names)
        level_nodes[level] = []
        for _ in range(counts[level - 1]):
            name = f"g{len(names) - spec.n_inputs}"
            fanin_count = int(_pick_weighted(rng, spec.fanin_probs))
            fanin_count = min(fanin_count, level_start)
            # First fanin from the immediately preceding level keeps the
            # level assignment (and hence the requested depth) exact.
            chosen = [weights.choose(rng, previous_start, level_start, [])]
            while len(chosen) < fanin_count:
                choice = weights.choose(rng, 0, level_start, chosen)
                if choice is None:
                    break
                chosen.append(choice)
            gate_type = _type_for_fanin(rng, len(chosen))
            records.append((name, gate_type, [names[i] for i in chosen],
                            level))
            for index in chosen:
                fanouts[index] += 1
                weights.update(index, fanouts[index])
            names.append(name)
            fanouts.append(0)
            level_nodes[level].append(name)
        previous_start = level_start

    fanout_counts = dict(zip(names, fanouts))
    _wire_unused_inputs(rng, records, input_names, fanout_counts)

    builder = NetworkBuilder(spec.name)
    for name in input_names:
        builder.add_input(name)
    for name, gate_type, fanins, _ in records:
        builder.add_gate(name, gate_type, fanins)
    outputs = _choose_outputs(spec, rng, level_nodes, fanout_counts)
    return builder.build(outputs)


def _wire_unused_inputs(rng: random.Random,
                        records: List[Tuple[str, GateType, List[str], int]],
                        input_names: Sequence[str],
                        fanout_counts: Dict[str, int]) -> None:
    """Append each unused primary input to some multi-input gate's fanins.

    Real netlists have no floating inputs; the preferential choice mostly
    avoids them, and this post-pass guarantees it. Only multi-input gate
    types can absorb an extra fanin, and only up to fanin 6.
    """
    unused = [name for name in input_names if fanout_counts[name] == 0]
    if not unused:
        return
    absorbers = [record for record in records
                 if record[1] not in (GateType.NOT, GateType.BUF)]
    rng.shuffle(absorbers)
    for input_name in unused:
        for record in absorbers:
            if len(record[2]) < 6 and input_name not in record[2]:
                record[2].append(input_name)
                fanout_counts[input_name] += 1
                break


def _type_for_fanin(rng: random.Random, fanin_count: int) -> GateType:
    if fanin_count <= 1:
        return _pick_weighted(rng, _SINGLE_INPUT_TYPES)  # type: ignore[return-value]
    gate_type = _pick_weighted(rng, _MULTI_INPUT_TYPES)
    return gate_type  # type: ignore[return-value]


def _fanout_weight(fanout: int, skew: float) -> float:
    """Attachment weight ``(1 + fanout)**skew``, tripled at zero fanout.

    The bonus makes the generator rarely leave dangling logic (any
    remainder is promoted to a primary output). Python's ``**`` on purpose:
    numpy's ``power`` differs from it in the last bit on some inputs.
    """
    weight = (1.0 + fanout) ** skew
    if fanout == 0:
        weight *= 3.0
    return weight


class _FanoutWeights:
    """Preferential-attachment draws over nodes indexed by creation order.

    A node is picked with probability ∝ :func:`_fanout_weight`. The weight
    array is updated only where a fanout changes, and a draw over the pool
    ``[start, stop)`` is a sequential ``cumsum`` (the same additions, in the
    same order, as a left-to-right running total) plus a binary search for
    the first running total above the roll. Excluded nodes count with
    weight 0.0, which adds exactly nothing.
    """

    def __init__(self, n_nodes: int, skew: float):
        self.skew = skew
        self.weights = np.full(n_nodes, _fanout_weight(0, skew))
        self._totals = np.empty(n_nodes)

    def update(self, index: int, fanout: int) -> None:
        self.weights[index] = _fanout_weight(fanout, self.skew)

    def choose(self, rng: random.Random, start: int, stop: int,
               exclude: List[int]) -> int | None:
        """A node of ``[start, stop)`` not in ``exclude``, or None if none is left.

        ``exclude`` holds distinct nodes of the pool (the gate's fanins so far).
        """
        if stop - start <= len(exclude):
            return None  # every pool node is already a fanin
        weights = self.weights
        if exclude:
            kept = weights[exclude]
            weights[exclude] = 0.0
        totals = weights[start:stop].cumsum(out=self._totals[:stop - start])
        if exclude:
            weights[exclude] = kept
        roll = rng.random() * float(totals[-1])
        position = start + int(totals.searchsorted(roll, side="right"))
        if position < stop:
            return position
        # Only a roll of the whole total gets here (``random()`` < 1 never
        # rounds up to it); like the original loop, take the last candidate.
        position = stop - 1
        while position in exclude:
            position -= 1
        return position


def _choose_outputs(spec: GeneratorSpec, rng: random.Random,
                    level_nodes: Dict[int, List[str]],
                    fanout_counts: Dict[str, int]) -> List[str]:
    """Primary outputs: last level first, then any still-dangling gates."""
    outputs: List[str] = []
    last_level = list(level_nodes[spec.depth])
    rng.shuffle(last_level)
    outputs.extend(last_level)
    dangling = [name
                for level in range(1, spec.depth)
                for name in level_nodes[level]
                if fanout_counts[name] == 0]
    outputs.extend(dangling)
    if len(outputs) < spec.n_outputs:
        chosen = set(outputs)
        extras = [name
                  for level in range(spec.depth - 1, 0, -1)
                  for name in level_nodes[level]
                  if name not in chosen]
        outputs.extend(extras[:spec.n_outputs - len(outputs)])
    return outputs[:max(spec.n_outputs, len(last_level) + len(dangling))]
