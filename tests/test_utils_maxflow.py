"""Tests for repro.utils.maxflow (Dinic), cross-validated against networkx."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.maxflow import DinicMaxFlow, min_cut_value


def _cut_capacity(n, edges, source_side):
    """Capacity crossing the (undirected) cut defined by source_side."""
    total = 0.0
    for u, v, cap in edges:
        if (u in source_side) != (v in source_side):
            total += cap
    return total


class TestBasics:
    def test_single_edge(self):
        net = DinicMaxFlow(2)
        net.add_edge(0, 1, 3.5)
        result = net.solve(0, 1)
        assert result.flow_value == pytest.approx(3.5)
        assert result.source_side == {0}

    def test_no_path_is_zero_flow(self):
        net = DinicMaxFlow(3)
        net.add_edge(0, 1, 1.0)  # 2 unreachable
        result = net.solve(0, 2)
        assert result.flow_value == 0.0
        assert 2 not in result.source_side

    def test_series_bottleneck(self):
        net = DinicMaxFlow(3)
        net.add_edge(0, 1, 5.0)
        net.add_edge(1, 2, 2.0)
        assert net.solve(0, 2).flow_value == pytest.approx(2.0)

    def test_parallel_paths_add(self):
        net = DinicMaxFlow(4)
        net.add_edge(0, 1, 1.0)
        net.add_edge(1, 3, 1.0)
        net.add_edge(0, 2, 2.0)
        net.add_edge(2, 3, 2.0)
        assert net.solve(0, 3).flow_value == pytest.approx(3.0)

    def test_undirected_edge_via_rev_cap(self):
        net = DinicMaxFlow(3)
        net.add_edge(0, 1, 1.0, 1.0)
        net.add_edge(2, 1, 1.0, 1.0)  # reversed orientation, same capacity
        assert net.solve(0, 2).flow_value == pytest.approx(1.0)

    def test_classic_diamond_with_cross_edge(self):
        # Textbook instance: max flow 23.
        net = DinicMaxFlow(6)
        for u, v, c in [
            (0, 1, 16), (0, 2, 13), (1, 2, 10), (2, 1, 4),
            (1, 3, 12), (3, 2, 9), (2, 4, 14), (4, 3, 7),
            (3, 5, 20), (4, 5, 4),
        ]:
            net.add_edge(u, v, c)
        assert net.solve(0, 5).flow_value == pytest.approx(23.0)

    def test_flows_respect_capacities_and_value(self):
        net = DinicMaxFlow(4)
        edges = [(0, 1, 2.0), (0, 2, 2.0), (1, 3, 1.5), (2, 3, 1.0)]
        for u, v, c in edges:
            net.add_edge(u, v, c)
        result = net.solve(0, 3)
        caps = {(u, v): c for u, v, c in edges}
        out_of_source = sum(f for (u, _), f in result.flows.items() if u == 0)
        assert out_of_source == pytest.approx(result.flow_value)
        for (u, v), f in result.flows.items():
            assert f <= caps.get((u, v), float("inf")) + 1e-9

    def test_reset_flow_allows_resolve(self):
        net = DinicMaxFlow(3)
        net.add_edge(0, 1, 2.0)
        net.add_edge(1, 2, 2.0)
        first = net.solve(0, 2).flow_value
        net.reset_flow()
        second = net.solve(0, 2).flow_value
        assert first == pytest.approx(second)

    def test_self_loop_ignored(self):
        net = DinicMaxFlow(2)
        net.add_edge(0, 0, 5.0)
        net.add_edge(0, 1, 1.0)
        assert net.solve(0, 1).flow_value == pytest.approx(1.0)

    def test_min_cut_value_helper(self):
        value = min_cut_value(
            3, [(0, 1, 1.0), (1, 2, 3.0), (0, 2, 2.0)], 0, 2
        )
        assert value == pytest.approx(3.0)


class TestValidation:
    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            DinicMaxFlow(1)

    def test_edge_out_of_range(self):
        net = DinicMaxFlow(3)
        with pytest.raises(ValueError):
            net.add_edge(0, 3, 1.0)

    def test_negative_capacity(self):
        net = DinicMaxFlow(3)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, -1.0)

    def test_source_equals_sink(self):
        net = DinicMaxFlow(2)
        net.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            net.solve(0, 0)


@st.composite
def random_capacitated_graphs(draw):
    n = draw(st.integers(4, 10))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                cap = draw(
                    st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
                )
                edges.append((u, v, cap))
    return n, edges


class TestAgainstNetworkx:
    @given(random_capacitated_graphs())
    @settings(max_examples=60, deadline=None)
    def test_flow_value_matches_networkx(self, instance):
        n, edges = instance
        net = DinicMaxFlow(n)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for u, v, cap in edges:
            net.add_edge(u, v, cap, cap)
            g.add_edge(u, v, capacity=cap)
        expected, _ = nx.minimum_cut(g, 0, n - 1) if g.has_node(0) else (0, None)
        result = net.solve(0, n - 1)
        assert result.flow_value == pytest.approx(expected, abs=1e-7)

    @given(random_capacitated_graphs())
    @settings(max_examples=60, deadline=None)
    def test_source_side_is_a_minimum_cut(self, instance):
        n, edges = instance
        net = DinicMaxFlow(n)
        for u, v, cap in edges:
            net.add_edge(u, v, cap, cap)
        result = net.solve(0, n - 1)
        assert 0 in result.source_side
        assert (n - 1) not in result.source_side
        # Max-flow/min-cut duality: the residual-reachable set's cut
        # capacity equals the flow value.
        assert _cut_capacity(n, edges, result.source_side) == pytest.approx(
            result.flow_value, abs=1e-7
        )


class TestCutoffAndReuse:
    def test_cutoff_stops_early(self):
        net = DinicMaxFlow(3)
        net.add_edge(0, 1, 10.0)
        net.add_edge(1, 2, 10.0)
        result = net.solve(0, 2, cutoff=3.0)
        assert result.flow_value >= 3.0  # reached the threshold...
        assert result.flow_value <= 10.0

    def test_no_cutoff_is_exact(self):
        net = DinicMaxFlow(3)
        net.add_edge(0, 1, 10.0)
        net.add_edge(1, 2, 4.0)
        assert net.solve(0, 2).flow_value == pytest.approx(4.0)

    def test_cutoff_above_maxflow_is_exact(self):
        net = DinicMaxFlow(3)
        net.add_edge(0, 1, 2.0)
        net.add_edge(1, 2, 2.0)
        assert net.solve(0, 2, cutoff=100.0).flow_value == pytest.approx(2.0)

    def test_set_capacity_rearms_network(self):
        net = DinicMaxFlow(3)
        arc = net.add_edge(0, 1, 0.0)
        net.add_edge(1, 2, 5.0)
        assert net.solve(0, 2).flow_value == 0.0
        net.set_capacity(arc, 3.0)
        net.reset_flow()
        assert net.solve(0, 2).flow_value == pytest.approx(3.0)
        net.set_capacity(arc, 0.0)
        net.reset_flow()
        assert net.solve(0, 2).flow_value == 0.0

    def test_set_capacity_validation(self):
        net = DinicMaxFlow(2)
        arc = net.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            net.set_capacity(arc, -1.0)
        with pytest.raises(ValueError):
            net.set_capacity(99, 1.0)

    def test_self_loop_returns_minus_one(self):
        net = DinicMaxFlow(2)
        assert net.add_edge(0, 0, 1.0) == -1


class TestDeepLevelGraphs:
    def test_path_longer_than_the_recursion_limit(self):
        # The blocking-flow search keeps its own stack: a level graph 1,499
        # arcs deep solves under Python's default recursion limit.
        n = 1500
        net = DinicMaxFlow(n)
        for v in range(n - 1):
            net.add_edge(v, v + 1, 1, 1)
        result = net.solve(0, n - 1)
        assert result.flow_value == 1
        assert result.augmenting_paths == 1
        assert result.source_side == {0}  # every edge is saturated


def _recursive_dinic(net, s, t):
    """The textbook recursive Dinic on *net*'s arcs (reference for bit-equality).

    Returns the flow value, the final residual capacities and the number of
    augmenting paths.
    """
    to, cap = net._to, list(net._initial_cap)
    head = [[] for _ in range(net.n)]
    for arc in range(len(to)):
        head[to[arc ^ 1]].append(arc)

    def levels():
        level = [-1] * net.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for arc in head[u]:
                if level[to[arc]] < 0 and cap[arc] > 1e-12:
                    level[to[arc]] = level[u] + 1
                    queue.append(to[arc])
        return level

    def augment(u, pushed, level, it):
        if u == t:
            return pushed
        while it[u] < len(head[u]):
            arc = head[u][it[u]]
            if cap[arc] > 1e-12 and level[to[arc]] == level[u] + 1:
                found = augment(to[arc], min(pushed, cap[arc]), level, it)
                if found > 1e-12:
                    cap[arc] -= found
                    cap[arc ^ 1] += found
                    return found
            it[u] += 1
        return 0.0

    total, paths = 0.0, 0
    while True:
        level = levels()
        if level[t] < 0:
            return total, cap, paths
        it = [0] * net.n
        while True:
            pushed = augment(s, float("inf"), level, it)
            if pushed <= 1e-12:
                break
            total += pushed
            paths += 1


def _feasible_partial_flow(n, edges, seed):
    """Push flow along a few random s-t paths, each below its bottleneck."""
    rng = np.random.default_rng(seed)
    residual = {}
    for u, v, cap in edges:
        residual[u, v] = residual.get((u, v), 0.0) + cap
        residual[v, u] = residual.get((v, u), 0.0) + cap
    g = nx.DiGraph([arc for arc, cap in residual.items() if cap > 0])
    pushes = []
    for _ in range(3):
        if not (g.has_node(0) and g.has_node(n - 1) and nx.has_path(g, 0, n - 1)):
            break
        path = nx.shortest_path(g, 0, n - 1)
        arcs = list(zip(path, path[1:]))
        amount = rng.uniform(0.1, 0.9) * min(residual[a] for a in arcs)
        for a, b in arcs:
            residual[a, b] -= amount
            residual[b, a] += amount
            if residual[a, b] <= 0.0:
                g.remove_edge(a, b)
            g.add_edge(b, a)
        pushes.append((arcs, amount))
    return pushes


@st.composite
def tied_capacitated_graphs(draw):
    """Graphs whose few distinct capacities make paths saturate several arcs."""
    n = draw(st.integers(4, 10))
    cap = st.sampled_from([0.5, 1.0, 2.0])
    edges = [
        (u, v, draw(cap))
        for u in range(n)
        for v in range(u + 1, n)
        if draw(st.booleans())
    ]
    return n, edges


class TestResume:
    @given(st.one_of(random_capacitated_graphs(), tied_capacitated_graphs()))
    @settings(max_examples=120, deadline=None)
    def test_iterative_search_matches_recursive_reference_bitwise(self, instance):
        n, edges = instance
        net = DinicMaxFlow(n)
        for u, v, cap in edges:
            net.add_edge(u, v, cap, cap)
        value, residual, paths = _recursive_dinic(net, 0, n - 1)
        result = net.solve(0, n - 1)
        assert result.flow_value == value
        assert net._cap == residual
        assert result.augmenting_paths == paths

    @given(random_capacitated_graphs(), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_resume_from_a_feasible_partial_flow(self, instance, seed):
        n, edges = instance
        fresh = DinicMaxFlow(n)
        net = DinicMaxFlow(n)
        arc_of = {}
        for u, v, cap in edges:
            fresh.add_edge(u, v, cap, cap)
            arc_of[u, v] = net.add_edge(u, v, cap, cap)
        # Load a partial flow as residual capacities: a flow of a from u to
        # v on edge {u, v} leaves cap - a one way and cap + a the other.
        pushed = 0.0
        for arcs, amount in _feasible_partial_flow(n, edges, seed):
            pushed += amount
            for a, b in arcs:
                arc = arc_of[a, b] if (a, b) in arc_of else arc_of[b, a] ^ 1
                net._cap[arc] -= amount
                net._cap[arc ^ 1] += amount
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for u, v, cap in edges:
            g.add_edge(u, v, capacity=cap)
        expected = nx.maximum_flow_value(g, 0, n - 1)

        result = net.solve(0, n - 1)
        reference = fresh.solve(0, n - 1)
        assert result.flow_value == pytest.approx(expected, abs=1e-7)
        assert result.flow_value >= pushed - 1e-9
        # The residual-reachable set of any maximum flow is the
        # inclusion-minimal minimum cut: the same set as a fresh solve's.
        assert result.source_side == reference.source_side
        # ``flows`` reports the whole flow, the resumed part included:
        # conserved at every inner vertex, within capacity, of full value.
        caps = {}
        for u, v, cap in edges:
            caps[u, v] = caps.get((u, v), 0.0) + cap
            caps[v, u] = caps.get((v, u), 0.0) + cap
        net_out = [0.0] * n
        for (u, v), f in result.flows.items():
            assert f <= caps[u, v] + caps[v, u] + 1e-9
            net_out[u] += f
            net_out[v] -= f
        assert net_out[0] == pytest.approx(result.flow_value, abs=1e-7)
        for v in range(1, n - 1):
            assert net_out[v] == pytest.approx(0.0, abs=1e-7)

    def test_reset_to_a_result_resumes_from_its_flow(self):
        net = DinicMaxFlow(4)
        net.add_edge(0, 1, 2.0)
        net.add_edge(1, 3, 2.0)
        extra = net.add_edge(0, 2, 0.0)
        net.add_edge(2, 3, 1.5)
        base = net.solve(0, 3)
        assert (base.flow_value, base.augmenting_paths) == (2.0, 1)
        net.reset_flow(base)
        net.set_capacity(extra, 5.0)
        resumed = net.solve(0, 3)
        # Only the new path is augmented; the value counts the base flow.
        assert (resumed.flow_value, resumed.augmenting_paths) == (3.5, 1)
        assert resumed.flows == {(0, 1): 2.0, (1, 3): 2.0, (0, 2): 1.5, (2, 3): 1.5}
        # The reset restored the base's capacities too.
        net.reset_flow(base)
        assert net.solve(0, 3).flow_value == 2.0

    def test_reset_to_a_foreign_result_is_rejected(self):
        net = DinicMaxFlow(2)
        net.add_edge(0, 1, 1.0)
        other = DinicMaxFlow(3)
        other.add_edge(0, 1, 1.0)
        other.add_edge(1, 2, 1.0)
        with pytest.raises(ValueError):
            net.reset_flow(other.solve(0, 2))
        assert net.solve(0, 1).flow_value == 1.0
