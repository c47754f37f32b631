"""The :class:`LogicNetwork` DAG.

A network is a set of named nodes; each node is either a primary input or
a logic gate with an ordered fanin list. Primary outputs name a subset of
nodes. The class maintains derived fanout lists and offers the traversals
the rest of the library is built on: topological order, levelization,
depth, transitive cones and structural validation.

Nodes are identified by their (string) names throughout the library; the
per-gate design variables (widths, delay budgets, activities) live in
plain ``{name: value}`` dictionaries so that networks stay immutable
shared state while optimizers mutate only their own views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    Sequence, Set, Tuple)

from repro.errors import NetlistError
from repro.netlist.gates import GateType


@dataclass(frozen=True)
class Gate:
    """One node of a logic network."""

    name: str
    gate_type: GateType
    fanins: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise NetlistError("gate name must be non-empty")
        arity = len(self.fanins)
        if arity < self.gate_type.min_fanin:
            raise NetlistError(
                f"gate {self.name!r} ({self.gate_type.value}) needs at least "
                f"{self.gate_type.min_fanin} fanins, got {arity}")
        max_fanin = self.gate_type.max_fanin
        if max_fanin is not None and arity > max_fanin:
            raise NetlistError(
                f"gate {self.name!r} ({self.gate_type.value}) takes at most "
                f"{max_fanin} fanins, got {arity}")
        if len(set(self.fanins)) != arity:
            raise NetlistError(
                f"gate {self.name!r} has duplicate fanins {self.fanins}")

    @property
    def fanin_count(self) -> int:
        return len(self.fanins)

    @property
    def is_input(self) -> bool:
        return self.gate_type.is_input


class LogicNetwork:
    """An immutable combinational logic network (DAG of :class:`Gate`).

    Construction validates structure eagerly: every fanin must name an
    existing node, the graph must be acyclic, and every primary output must
    exist. Use :class:`NetworkBuilder` for incremental construction.
    """

    def __init__(self, name: str, gates: Iterable[Gate],
                 outputs: Sequence[str]):
        self.name = name
        self._gates: Dict[str, Gate] = {}
        for gate in gates:
            if gate.name in self._gates:
                raise NetlistError(f"duplicate gate name {gate.name!r}")
            self._gates[gate.name] = gate
        self._outputs: Tuple[str, ...] = tuple(outputs)
        self._output_set: FrozenSet[str] = frozenset(self._outputs)
        self._check_references()
        self._fanouts: Dict[str, Tuple[str, ...]] = self._build_fanouts()
        self._topo_order: Tuple[str, ...] = self._topological_sort()
        self._levels: Dict[str, int] = self._levelize()

    # --- construction helpers ------------------------------------------------

    def _check_references(self) -> None:
        if not self._gates:
            raise NetlistError(f"network {self.name!r} has no nodes")
        for gate in self._gates.values():
            for fanin in gate.fanins:
                if fanin not in self._gates:
                    raise NetlistError(
                        f"gate {gate.name!r} references unknown net {fanin!r}")
        if not self._outputs:
            raise NetlistError(f"network {self.name!r} has no primary outputs")
        for output in self._outputs:
            if output not in self._gates:
                raise NetlistError(f"unknown primary output {output!r}")
        if len(self._output_set) != len(self._outputs):
            raise NetlistError("duplicate primary outputs")
        if not any(gate.is_input for gate in self._gates.values()):
            raise NetlistError(f"network {self.name!r} has no primary inputs")

    def _build_fanouts(self) -> Dict[str, Tuple[str, ...]]:
        sinks: Dict[str, List[str]] = {name: [] for name in self._gates}
        for gate in self._gates.values():
            for fanin in gate.fanins:
                sinks[fanin].append(gate.name)
        return {name: tuple(fanout) for name, fanout in sinks.items()}

    def _topological_sort(self) -> Tuple[str, ...]:
        in_degree = {name: gate.fanin_count
                     for name, gate in self._gates.items()}
        ready = sorted(name for name, degree in in_degree.items()
                       if degree == 0)
        order: List[str] = []
        frontier = list(reversed(ready))
        while frontier:
            name = frontier.pop()
            order.append(name)
            for sink in self._fanouts[name]:
                in_degree[sink] -= 1
                if in_degree[sink] == 0:
                    frontier.append(sink)
        if len(order) != len(self._gates):
            stuck = sorted(name for name, degree in in_degree.items()
                           if degree > 0)
            raise NetlistError(
                f"network {self.name!r} contains a combinational cycle "
                f"involving {stuck[:5]}...")
        return tuple(order)

    def _levelize(self) -> Dict[str, int]:
        levels: Dict[str, int] = {}
        for name in self._topo_order:
            gate = self._gates[name]
            if gate.is_input:
                levels[name] = 0
            else:
                levels[name] = 1 + max(levels[fanin] for fanin in gate.fanins)
        return levels

    # --- basic queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._gates)

    def __contains__(self, name: str) -> bool:
        return name in self._gates

    def __iter__(self) -> Iterator[Gate]:
        return (self._gates[name] for name in self._topo_order)

    def gate(self, name: str) -> Gate:
        try:
            return self._gates[name]
        except KeyError:
            raise NetlistError(
                f"no gate named {name!r} in network {self.name!r}") from None

    def fanouts(self, name: str) -> Tuple[str, ...]:
        """Names of the gates driven by ``name`` (empty for dead outputs)."""
        self.gate(name)
        return self._fanouts[name]

    def fanout_count(self, name: str) -> int:
        """The paper's ``f_oi``: number of gate inputs driven by this node.

        A primary output with no internal sinks still drives one load (the
        module boundary), so the count is floored at 1 for primary outputs.
        """
        count = len(self._fanouts[name])
        if count == 0 and name in self._output_set:
            return 1
        return count

    def level(self, name: str) -> int:
        self.gate(name)
        return self._levels[name]

    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(name for name in self._topo_order
                     if self._gates[name].is_input)

    @property
    def outputs(self) -> Tuple[str, ...]:
        return self._outputs

    @property
    def logic_gates(self) -> Tuple[str, ...]:
        """Names of all non-input nodes, in topological order."""
        return tuple(name for name in self._topo_order
                     if not self._gates[name].is_input)

    @property
    def gate_count(self) -> int:
        """Number of logic gates (the paper's N; excludes primary inputs)."""
        return len(self.logic_gates)

    @property
    def depth(self) -> int:
        """Longest input→output path length in gates."""
        return max(self._levels.values())

    def topological_order(self) -> Tuple[str, ...]:
        """All node names, inputs first, each gate after its fanins."""
        return self._topo_order

    def reverse_topological_order(self) -> Tuple[str, ...]:
        return tuple(reversed(self._topo_order))

    def levels(self) -> Dict[int, Tuple[str, ...]]:
        """Nodes grouped by level (level 0 = primary inputs)."""
        grouped: Dict[int, List[str]] = {}
        for name in self._topo_order:
            grouped.setdefault(self._levels[name], []).append(name)
        return {lvl: tuple(names) for lvl, names in grouped.items()}

    # --- cones ---------------------------------------------------------------------

    def fanin_cone(self, name: str) -> Set[str]:
        """All nodes (including ``name``) feeding ``name`` transitively."""
        cone: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            stack.extend(self.gate(current).fanins)
        return cone

    def fanout_cone(self, name: str) -> Set[str]:
        """All nodes (including ``name``) reachable from ``name``."""
        cone: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            stack.extend(self._fanouts[current])
        return cone

    def dead_nodes(self) -> Tuple[str, ...]:
        """Nodes from which no primary output is reachable."""
        live: Set[str] = set()
        for output in self._outputs:
            live |= self.fanin_cone(output)
        return tuple(name for name in self._topo_order if name not in live)

    # --- evaluation -------------------------------------------------------------------

    def evaluate(self, input_values: Mapping[str, bool]) -> Dict[str, bool]:
        """Evaluate every node for one input assignment.

        ``input_values`` must provide a Boolean for every primary input.
        """
        from repro.netlist import gates as gate_logic

        values: Dict[str, bool] = {}
        for name in self._topo_order:
            gate = self._gates[name]
            if gate.is_input:
                if name not in input_values:
                    raise NetlistError(f"missing value for input {name!r}")
                values[name] = bool(input_values[name])
            else:
                fanin_values = [values[fanin] for fanin in gate.fanins]
                values[name] = gate_logic.evaluate(gate.gate_type, fanin_values)
        return values

    def __repr__(self) -> str:
        return (f"LogicNetwork({self.name!r}, gates={self.gate_count}, "
                f"inputs={len(self.inputs)}, outputs={len(self.outputs)}, "
                f"depth={self.depth})")


class NetworkBuilder:
    """Incremental construction of a :class:`LogicNetwork`.

    >>> builder = NetworkBuilder('demo')
    >>> builder.add_input('a'); builder.add_input('b')
    >>> builder.add_gate('y', GateType.NAND, ['a', 'b'])
    >>> network = builder.build(outputs=['y'])
    >>> network.gate_count
    1
    """

    def __init__(self, name: str):
        self.name = name
        self._gates: List[Gate] = []
        self._names: Set[str] = set()

    def add_input(self, name: str) -> None:
        self._add(Gate(name, GateType.INPUT))

    def add_gate(self, name: str, gate_type: GateType,
                 fanins: Sequence[str]) -> None:
        self._add(Gate(name, gate_type, tuple(fanins)))

    def _add(self, gate: Gate) -> None:
        if gate.name in self._names:
            raise NetlistError(f"duplicate gate name {gate.name!r}")
        self._names.add(gate.name)
        self._gates.append(gate)

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def build(self, outputs: Sequence[str]) -> LogicNetwork:
        return LogicNetwork(self.name, self._gates, outputs)
