"""Tests for repro.utils.gomoryhu, cross-validated against networkx."""

import itertools
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.gomoryhu import build_gomory_hu_tree
from repro.utils.maxflow import DinicMaxFlow


def _direct_min_cut(n, edges, u, v):
    net = DinicMaxFlow(max(n, 2))
    for a, b, cap in edges:
        net.add_edge(a, b, cap, cap)
    return net.solve(u, v).flow_value


class TestSmallGraphs:
    def test_triangle(self):
        edges = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]
        tree = build_gomory_hu_tree(3, edges)
        # cut(0,1): {0,2} vs {1} -> 1 + 2 = 3;  cut(1,2): {1} -> 3;
        # cut(0,2): {0} -> 1 + 3 = 4.
        assert tree.min_cut_value(0, 1) == pytest.approx(3.0)
        assert tree.min_cut_value(1, 2) == pytest.approx(3.0)
        assert tree.min_cut_value(0, 2) == pytest.approx(4.0)

    def test_path_graph(self):
        edges = [(0, 1, 5.0), (1, 2, 2.0), (2, 3, 7.0)]
        tree = build_gomory_hu_tree(4, edges)
        assert tree.min_cut_value(0, 3) == pytest.approx(2.0)
        assert tree.min_cut_value(2, 3) == pytest.approx(7.0)

    def test_disconnected_pairs_have_zero_cut(self):
        edges = [(0, 1, 4.0), (2, 3, 4.0)]
        tree = build_gomory_hu_tree(4, edges)
        assert tree.min_cut_value(0, 2) == 0.0
        assert tree.min_cut_value(1, 3) == 0.0
        assert tree.min_cut_value(0, 1) == pytest.approx(4.0)

    def test_single_vertex(self):
        tree = build_gomory_hu_tree(1, [])
        assert tree.edges() == []

    def test_tree_has_n_minus_1_edges(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]
        tree = build_gomory_hu_tree(4, edges)
        assert len(tree.edges()) == 3

    def test_path_longer_than_the_recursion_limit(self):
        # The path 0, 2, 3, ..., n-1, 1 puts every flow's sink at the far end
        # of a level graph deeper than Python's recursion limit.
        n = sys.getrecursionlimit() + 100
        order = [0, *range(2, n), 1]
        edges = [(a, b, 1.0 if a == 0 else 2.0) for a, b in zip(order, order[1:])]
        tree = build_gomory_hu_tree(n, edges)
        assert tree.min_cut_value(0, 1) == 1.0
        assert tree.min_cut_value(1, 2) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_gomory_hu_tree(0, [])
        with pytest.raises(ValueError):
            build_gomory_hu_tree(2, [(0, 5, 1.0)])
        with pytest.raises(ValueError):
            build_gomory_hu_tree(2, [(0, 1, -1.0)])
        tree = build_gomory_hu_tree(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            tree.min_cut_value(0, 0)
        with pytest.raises(ValueError):
            tree.min_cut_value(0, 9)


@st.composite
def capacitated_graphs(draw):
    n = draw(st.integers(3, 8))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append(
                    (u, v, draw(st.floats(0.5, 5.0, allow_nan=False)))
                )
    return n, edges


class TestAllPairsCorrectness:
    @given(capacitated_graphs())
    @settings(max_examples=40, deadline=None)
    def test_every_pair_matches_direct_flow(self, instance):
        n, edges = instance
        tree = build_gomory_hu_tree(n, edges)
        for u, v in itertools.combinations(range(n), 2):
            expected = _direct_min_cut(n, edges, u, v)
            assert tree.min_cut_value(u, v) == pytest.approx(
                expected, abs=1e-7
            ), (u, v)

    @given(capacitated_graphs())
    @settings(max_examples=25, deadline=None)
    def test_matches_networkx_min_cut_values(self, instance):
        # The oracle is networkx's direct minimum_cut_value per pair, NOT
        # its gomory_hu_tree: with the default flow function (networkx 3.6,
        # edmonds_karp) gomory_hu_tree can return a tree inconsistent with
        # its own minimum_cut_value on multi-edge-merged graphs, so the
        # per-pair flow computation is the trustworthy reference.
        n, edges = instance
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for u, v, cap in edges:
            if g.has_edge(u, v):
                g[u][v]["capacity"] += cap
            else:
                g.add_edge(u, v, capacity=cap)
        if not nx.is_connected(g):
            return  # mirrors gomory-hu's usual connectivity requirement
        ours = build_gomory_hu_tree(n, edges)
        for u, v in itertools.combinations(range(n), 2):
            expected = nx.minimum_cut_value(g, u, v)
            assert ours.min_cut_value(u, v) == pytest.approx(
                expected, abs=1e-7
            ), (u, v)
