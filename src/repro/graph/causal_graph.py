"""Temporal causal graph data structure.

A temporal causal graph (paper Sec. 3) is a directed graph over ``N`` time
series where each edge ``e_{i,j}`` carries a delay ``d(e_{i,j}) >= 0``: series
``i`` influences series ``j`` after ``d`` time slots.  Self-loops
(self-causation) and zero-delay edges (instantaneous causality) are allowed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class TemporalCausalEdge:
    """A directed causal edge ``source -> target`` with a time delay."""

    source: int
    target: int
    delay: int = 1

    def __post_init__(self) -> None:
        if self.source < 0 or self.target < 0:
            raise ValueError("edge endpoints must be non-negative series indices")
        if self.delay < 0:
            raise ValueError("causal delay must be non-negative")

    @property
    def is_self_loop(self) -> bool:
        return self.source == self.target

    @property
    def is_instantaneous(self) -> bool:
        return self.delay == 0

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.source, self.target, self.delay)


class TemporalCausalGraph:
    """A set of temporal causal edges over ``n_series`` time series.

    Parameters
    ----------
    n_series:
        Number of time series (graph vertices).
    names:
        Optional human-readable series names (defaults to ``S0..S{N-1}``).
    """

    def __init__(self, n_series: int, names: Optional[Sequence[str]] = None) -> None:
        if n_series <= 0:
            raise ValueError("a causal graph needs at least one series")
        self.n_series = int(n_series)
        if names is None:
            names = [f"S{i}" for i in range(n_series)]
        if len(names) != n_series:
            raise ValueError("names length must equal n_series")
        self.names: List[str] = list(names)
        self._edges: Dict[Tuple[int, int], TemporalCausalEdge] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_edge(self, source: int, target: int, delay: int = 1) -> TemporalCausalEdge:
        """Add (or replace) the edge ``source -> target`` with ``delay``."""
        self._check_index(source)
        self._check_index(target)
        edge = TemporalCausalEdge(source, target, delay)
        self._edges[(source, target)] = edge
        return edge

    def remove_edge(self, source: int, target: int) -> None:
        self._edges.pop((source, target), None)

    def _check_index(self, index: int) -> None:
        if not (0 <= index < self.n_series):
            raise IndexError(f"series index {index} out of range [0, {self.n_series})")

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def has_edge(self, source: int, target: int) -> bool:
        return (source, target) in self._edges

    def delay(self, source: int, target: int) -> Optional[int]:
        """Delay of the edge, or ``None`` when the edge does not exist."""
        edge = self._edges.get((source, target))
        return None if edge is None else edge.delay

    @property
    def edges(self) -> List[TemporalCausalEdge]:
        return sorted(self._edges.values(), key=lambda e: (e.source, e.target))

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    @property
    def self_loops(self) -> List[TemporalCausalEdge]:
        return [edge for edge in self.edges if edge.is_self_loop]

    @property
    def instantaneous_edges(self) -> List[TemporalCausalEdge]:
        return [edge for edge in self.edges if edge.is_instantaneous]

    def parents(self, target: int) -> List[int]:
        """Indices of series that cause ``target``."""
        self._check_index(target)
        return sorted(edge.source for edge in self._edges.values() if edge.target == target)

    def children(self, source: int) -> List[int]:
        """Indices of series caused by ``source``."""
        self._check_index(source)
        return sorted(edge.target for edge in self._edges.values() if edge.source == source)

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        return pair in self._edges

    def __iter__(self) -> Iterator[TemporalCausalEdge]:
        return iter(self.edges)

    def __len__(self) -> int:
        return self.n_edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalCausalGraph):
            return NotImplemented
        return (self.n_series == other.n_series
                and {e.as_tuple() for e in self.edges} == {e.as_tuple() for e in other.edges})

    def __repr__(self) -> str:
        return (f"TemporalCausalGraph(n_series={self.n_series}, "
                f"n_edges={self.n_edges})")

    # ------------------------------------------------------------------ #
    # Matrix views
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self) -> np.ndarray:
        """Binary ``N×N`` matrix; ``A[i, j] = 1`` when ``i`` causes ``j``."""
        adjacency = np.zeros((self.n_series, self.n_series), dtype=int)
        for edge in self._edges.values():
            adjacency[edge.source, edge.target] = 1
        return adjacency

    def delay_matrix(self, missing: int = -1) -> np.ndarray:
        """``N×N`` matrix of delays; ``missing`` where there is no edge."""
        delays = np.full((self.n_series, self.n_series), missing, dtype=int)
        for edge in self._edges.values():
            delays[edge.source, edge.target] = edge.delay
        return delays

    @classmethod
    def from_adjacency(cls, adjacency: np.ndarray,
                       delays: Optional[np.ndarray] = None,
                       names: Optional[Sequence[str]] = None) -> "TemporalCausalGraph":
        """Build a graph from a binary adjacency matrix and optional delays."""
        adjacency = np.asarray(adjacency)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        n = adjacency.shape[0]
        graph = cls(n, names=names)
        for i in range(n):
            for j in range(n):
                if adjacency[i, j]:
                    delay = 1
                    if delays is not None and delays[i, j] >= 0:
                        delay = int(delays[i, j])
                    graph.add_edge(i, j, delay)
        return graph

    # ------------------------------------------------------------------ #
    # Conversion / serialization
    # ------------------------------------------------------------------ #
    def to_networkx(self) -> nx.DiGraph:
        """Export to a ``networkx.DiGraph`` with ``delay`` edge attributes."""
        import networkx as nx

        digraph = nx.DiGraph()
        for index, name in enumerate(self.names):
            digraph.add_node(index, name=name)
        for edge in self.edges:
            digraph.add_edge(edge.source, edge.target, delay=edge.delay)
        return digraph

    @classmethod
    def from_networkx(cls, digraph: nx.DiGraph,
                      names: Optional[Sequence[str]] = None) -> "TemporalCausalGraph":
        nodes = sorted(digraph.nodes())
        index_of = {node: i for i, node in enumerate(nodes)}
        graph = cls(len(nodes), names=names)
        for source, target, attributes in digraph.edges(data=True):
            graph.add_edge(index_of[source], index_of[target],
                           int(attributes.get("delay", 1)))
        return graph

    def to_dict(self) -> Dict:
        return {
            "n_series": self.n_series,
            "names": list(self.names),
            "edges": [edge.as_tuple() for edge in self.edges],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "TemporalCausalGraph":
        graph = cls(payload["n_series"], names=payload.get("names"))
        for source, target, delay in payload["edges"]:
            graph.add_edge(int(source), int(target), int(delay))
        return graph

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "TemporalCausalGraph":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------ #
    # Helpers used by evaluation and dataset generation
    # ------------------------------------------------------------------ #
    def copy(self) -> "TemporalCausalGraph":
        clone = TemporalCausalGraph(self.n_series, names=self.names)
        for edge in self.edges:
            clone.add_edge(edge.source, edge.target, edge.delay)
        return clone

    def without_self_loops(self) -> "TemporalCausalGraph":
        clone = TemporalCausalGraph(self.n_series, names=self.names)
        for edge in self.edges:
            if not edge.is_self_loop:
                clone.add_edge(edge.source, edge.target, edge.delay)
        return clone

    def max_delay(self) -> int:
        return max((edge.delay for edge in self.edges), default=0)

    def is_acyclic_ignoring_self_loops(self) -> bool:
        """True when the graph has no directed cycle besides self-loops."""
        import networkx as nx

        digraph = self.without_self_loops().to_networkx()
        return nx.is_directed_acyclic_graph(digraph)

    def edge_set(self, include_self_loops: bool = True) -> set:
        return {
            (edge.source, edge.target)
            for edge in self.edges
            if include_self_loops or not edge.is_self_loop
        }
