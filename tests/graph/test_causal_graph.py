"""TemporalCausalGraph data structure."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.graph import TemporalCausalEdge, TemporalCausalGraph


class TestEdges:
    def test_edge_validation(self):
        with pytest.raises(ValueError):
            TemporalCausalEdge(-1, 0, 1)
        with pytest.raises(ValueError):
            TemporalCausalEdge(0, 1, -2)

    def test_edge_flags(self):
        assert TemporalCausalEdge(1, 1, 1).is_self_loop
        assert TemporalCausalEdge(0, 1, 0).is_instantaneous
        assert not TemporalCausalEdge(0, 1, 2).is_self_loop

    def test_as_tuple(self):
        assert TemporalCausalEdge(0, 2, 3).as_tuple() == (0, 2, 3)


class TestGraphConstruction:
    def test_requires_positive_size(self):
        with pytest.raises(ValueError):
            TemporalCausalGraph(0)

    def test_default_names(self):
        graph = TemporalCausalGraph(3)
        assert graph.names == ["S0", "S1", "S2"]

    def test_names_length_checked(self):
        with pytest.raises(ValueError):
            TemporalCausalGraph(3, names=["a", "b"])

    def test_add_and_query_edges(self):
        graph = TemporalCausalGraph(3)
        graph.add_edge(0, 1, 2)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)
        assert graph.delay(0, 1) == 2
        assert graph.delay(1, 0) is None

    def test_add_edge_out_of_range(self):
        graph = TemporalCausalGraph(2)
        with pytest.raises(IndexError):
            graph.add_edge(0, 5)

    def test_duplicate_edge_replaces_delay(self):
        graph = TemporalCausalGraph(2)
        graph.add_edge(0, 1, 1)
        graph.add_edge(0, 1, 3)
        assert graph.n_edges == 1
        assert graph.delay(0, 1) == 3

    def test_remove_edge(self):
        graph = TemporalCausalGraph(2)
        graph.add_edge(0, 1)
        graph.remove_edge(0, 1)
        assert graph.n_edges == 0
        graph.remove_edge(0, 1)  # removing a missing edge is a no-op

    def test_parents_children(self):
        graph = TemporalCausalGraph(4)
        graph.add_edge(0, 2)
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        assert graph.parents(2) == [0, 1]
        assert graph.children(2) == [3]
        assert graph.parents(0) == []

    def test_contains_iter_len(self):
        graph = TemporalCausalGraph(3)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        assert (0, 1) in graph
        assert len(graph) == 2
        assert {edge.as_tuple()[:2] for edge in graph} == {(0, 1), (1, 2)}

    def test_equality(self):
        a = TemporalCausalGraph(2)
        a.add_edge(0, 1, 2)
        b = TemporalCausalGraph(2)
        b.add_edge(0, 1, 2)
        c = TemporalCausalGraph(2)
        c.add_edge(0, 1, 3)
        assert a == b
        assert a != c

    def test_self_loops_and_instantaneous_listing(self):
        graph = TemporalCausalGraph(3)
        graph.add_edge(0, 0, 1)
        graph.add_edge(1, 2, 0)
        assert len(graph.self_loops) == 1
        assert len(graph.instantaneous_edges) == 1


class TestMatrixViews:
    def test_adjacency_matrix(self):
        graph = TemporalCausalGraph(3)
        graph.add_edge(0, 1)
        graph.add_edge(2, 2)
        adjacency = graph.adjacency_matrix()
        assert adjacency[0, 1] == 1 and adjacency[2, 2] == 1
        assert adjacency.sum() == 2

    def test_delay_matrix(self):
        graph = TemporalCausalGraph(2)
        graph.add_edge(0, 1, 4)
        delays = graph.delay_matrix(missing=-1)
        assert delays[0, 1] == 4
        assert delays[1, 0] == -1

    def test_from_adjacency_roundtrip(self):
        adjacency = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        delays = np.where(adjacency, 2, -1)
        graph = TemporalCausalGraph.from_adjacency(adjacency, delays)
        np.testing.assert_array_equal(graph.adjacency_matrix(), adjacency)
        assert graph.delay(0, 1) == 2

    def test_from_adjacency_rejects_non_square(self):
        with pytest.raises(ValueError):
            TemporalCausalGraph.from_adjacency(np.zeros((2, 3)))


class TestConversions:
    def _sample_graph(self):
        graph = TemporalCausalGraph(3, names=["a", "b", "c"])
        graph.add_edge(0, 1, 2)
        graph.add_edge(1, 1, 1)
        graph.add_edge(2, 0, 0)
        return graph

    def test_networkx_roundtrip(self):
        graph = self._sample_graph()
        digraph = graph.to_networkx()
        assert digraph.number_of_edges() == 3
        assert digraph[0][1]["delay"] == 2
        restored = TemporalCausalGraph.from_networkx(digraph)
        assert restored == graph

    def test_networkx_loads_only_on_demand(self):
        """Discovery and the CLI never import networkx; graph export does."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        probe = ("import sys, repro.core.discovery, repro.service.cli\n"
                 "assert 'networkx' not in sys.modules\n"
                 "from repro.graph import TemporalCausalGraph\n"
                 "TemporalCausalGraph(2).to_networkx()\n"
                 "assert 'networkx' in sys.modules\n")
        subprocess.run([sys.executable, "-c", probe], check=True,
                       env={**os.environ, "PYTHONPATH": os.path.abspath(src)})

    def test_dict_roundtrip(self):
        graph = self._sample_graph()
        restored = TemporalCausalGraph.from_dict(graph.to_dict())
        assert restored == graph
        assert restored.names == ["a", "b", "c"]

    def test_json_roundtrip(self):
        graph = self._sample_graph()
        assert TemporalCausalGraph.from_json(graph.to_json()) == graph

    def test_copy_is_independent(self):
        graph = self._sample_graph()
        clone = graph.copy()
        clone.add_edge(2, 2, 1)
        assert graph.n_edges == 3 and clone.n_edges == 4


class TestHelpers:
    def test_without_self_loops(self):
        graph = TemporalCausalGraph(2)
        graph.add_edge(0, 0)
        graph.add_edge(0, 1)
        assert graph.without_self_loops().n_edges == 1

    def test_max_delay(self):
        graph = TemporalCausalGraph(2)
        assert graph.max_delay() == 0
        graph.add_edge(0, 1, 5)
        assert graph.max_delay() == 5

    def test_acyclicity_ignores_self_loops(self):
        graph = TemporalCausalGraph(3)
        graph.add_edge(0, 0)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        assert graph.is_acyclic_ignoring_self_loops()
        graph.add_edge(2, 0)
        assert not graph.is_acyclic_ignoring_self_loops()

    def test_edge_set_filters_self_loops(self):
        graph = TemporalCausalGraph(2)
        graph.add_edge(0, 0)
        graph.add_edge(0, 1)
        assert graph.edge_set() == {(0, 0), (0, 1)}
        assert graph.edge_set(include_self_loops=False) == {(0, 1)}
