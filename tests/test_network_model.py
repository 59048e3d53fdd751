"""Tests for repro.network.model (Network, Edge)."""

import math

import numpy as np
import pytest

import repro.network.model as model_module
from repro.network.model import Edge, Network, edge_key


class TestEdgeKey:
    def test_sorts_endpoints(self):
        assert edge_key(3, 1) == (1, 3)
        assert edge_key(1, 3) == (1, 3)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            edge_key(2, 2)


class TestEdge:
    def test_cost_is_neg_log_prr(self):
        e = Edge(0, 1, 0.5)
        assert e.cost == pytest.approx(math.log(2))

    def test_perfect_link_has_zero_cost(self):
        assert Edge(0, 1, 1.0).cost == 0.0

    @pytest.mark.parametrize("prr", [1.0, 0.5, 0.9, 0.123456789, 1e-9, 0.7 + 1e-16])
    def test_cost_is_stored_bitwise(self, prr, monkeypatch):
        e = Edge(0, 1, prr)
        expected = (-math.log(prr)).hex()
        # Computed once, at construction: reads do not call log again.
        monkeypatch.setattr(model_module.math, "log", None)
        assert e.cost.hex() == expected

    def test_equality_hash_and_repr_ignore_the_stored_cost(self):
        a, b = Edge(0, 1, 0.25), Edge(0, 1, 0.25)
        assert a == b and hash(a) == hash(b)
        assert a != Edge(0, 1, 0.5) and a != Edge(0, 2, 0.25)
        assert len({a, b, Edge(0, 1, 0.5)}) == 2
        assert repr(a) == "Edge(u=0, v=1, prr=0.25)"
        with pytest.raises(AttributeError):
            a.cost = 0.0  # frozen

    def test_pickle_and_copy_keep_the_cost(self):
        import copy
        import pickle

        e = Edge(3, 7, 0.37)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(e, protocol))
            assert clone == e and hash(clone) == hash(e)
            assert clone.cost.hex() == e.cost.hex()
        for clone in (copy.copy(e), copy.deepcopy(e)):
            assert clone == e and clone.cost.hex() == e.cost.hex()
        net = Network(2)
        net.add_link(0, 1, 0.37)
        assert pickle.loads(pickle.dumps(net)).edge(0, 1).cost.hex() == e.cost.hex()

    def test_set_prr_gives_the_new_links_cost(self):
        net = Network(3)
        net.add_link(0, 1, 0.9)
        old = net.edge(0, 1)
        new = net.set_prr(1, 0, 0.4)
        assert new == Edge(0, 1, 0.4) and new != old
        assert net.edge(0, 1) is new
        assert net.cost(0, 1) == -math.log(0.4)
        assert old.cost == -math.log(0.9)  # the replaced edge is untouched
        assert net.link_arrays().key_cost[0] == -math.log(0.4)

    def test_rejects_unordered_endpoints(self):
        with pytest.raises(ValueError, match="u < v"):
            Edge(2, 1, 0.5)

    def test_rejects_zero_prr(self):
        with pytest.raises(ValueError):
            Edge(0, 1, 0.0)

    def test_rejects_prr_above_one(self):
        with pytest.raises(ValueError):
            Edge(0, 1, 1.5)

    def test_other_endpoint(self):
        e = Edge(2, 5, 0.9)
        assert e.other(2) == 5
        assert e.other(5) == 2
        with pytest.raises(ValueError):
            e.other(1)


class TestNetworkConstruction:
    def test_minimal(self):
        net = Network(1)
        assert net.n == 1
        assert net.sink == 0
        assert net.is_connected()

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            Network(0)

    def test_scalar_energy_broadcast(self):
        net = Network(3, initial_energy=100.0)
        assert [net.initial_energy(v) for v in range(3)] == [100.0] * 3

    def test_per_node_energy(self):
        net = Network(3, initial_energy=[1.0, 2.0, 3.0])
        assert net.initial_energy(2) == 3.0
        assert net.min_initial_energy == 1.0

    def test_energy_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Network(3, initial_energy=[1.0, 2.0])

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            Network(2, initial_energy=[-1.0, 1.0])

    def test_positions_shape_checked(self):
        with pytest.raises(ValueError, match="positions"):
            Network(3, positions=np.zeros((2, 2)))

    def test_initial_energies_returns_copy(self):
        net = Network(2, initial_energy=5.0)
        arr = net.initial_energies
        arr[0] = 0.0
        assert net.initial_energy(0) == 5.0


class TestLinks:
    def test_add_and_query(self, tiny_network):
        assert tiny_network.has_edge(0, 1)
        assert tiny_network.has_edge(1, 0)  # undirected
        assert tiny_network.prr(0, 2) == 0.8
        assert tiny_network.cost(0, 2) == pytest.approx(-math.log(0.8))

    def test_add_link_returns_canonical_edge(self):
        net = Network(3)
        e = net.add_link(2, 1, 0.7)
        assert e.key == (1, 2)

    def test_replace_updates_prr(self, tiny_network):
        tiny_network.set_prr(0, 1, 0.5)
        assert tiny_network.prr(0, 1) == 0.5
        assert tiny_network.n_edges == 6  # no duplicate created

    def test_set_prr_requires_existing(self, tiny_network):
        with pytest.raises(KeyError):
            tiny_network.set_prr(0, 4, 0.9)

    def test_remove_link(self, tiny_network):
        tiny_network.remove_link(3, 4)
        assert not tiny_network.has_edge(3, 4)
        assert 4 not in tiny_network.neighbors(3)

    def test_remove_missing_raises(self, tiny_network):
        with pytest.raises(KeyError):
            tiny_network.remove_link(0, 4)

    def test_out_of_range_node(self, tiny_network):
        with pytest.raises(ValueError, match="out of range"):
            tiny_network.add_link(0, 9, 0.5)

    def test_neighbors_sorted(self, tiny_network):
        assert tiny_network.neighbors(1) == [0, 2, 3]

    def test_degree(self, tiny_network):
        assert tiny_network.degree(1) == 3
        assert tiny_network.degree(4) == 2

    def test_incident_edges_match_neighbors(self, tiny_network):
        edges = tiny_network.incident_edges(2)
        assert [e.other(2) for e in edges] == tiny_network.neighbors(2)

    def test_edges_iteration_deterministic(self, tiny_network):
        keys = [e.key for e in tiny_network.edges()]
        assert keys == sorted(keys)
        assert len(keys) == tiny_network.n_edges == 6

    def test_has_edge_self(self, tiny_network):
        assert not tiny_network.has_edge(1, 1)


class TestGraphQueries:
    def test_connected(self, tiny_network):
        assert tiny_network.is_connected()

    def test_disconnected(self):
        net = Network(3)
        net.add_link(0, 1, 0.9)
        assert not net.is_connected()

    def test_component_of(self):
        net = Network(4)
        net.add_link(0, 1, 0.9)
        net.add_link(2, 3, 0.9)
        assert net.component_of(0) == {0, 1}
        assert net.component_of(3) == {2, 3}

    def test_average_prr(self, path_network):
        assert path_network.average_prr() == pytest.approx((0.9 + 0.8 + 0.7) / 3)

    def test_average_prr_empty(self):
        assert Network(2).average_prr() == 1.0

    def test_filtered_drops_weak_links(self, tiny_network):
        filtered = tiny_network.filtered(0.75)
        assert filtered.has_edge(0, 1)
        assert filtered.has_edge(0, 2)
        assert not filtered.has_edge(3, 4)  # prr 0.5
        assert not filtered.has_edge(1, 2)  # prr 0.6
        # original untouched
        assert tiny_network.has_edge(3, 4)

    def test_filtered_preserves_energy(self):
        net = Network(2, initial_energy=[1.0, 2.0])
        net.add_link(0, 1, 0.9)
        assert net.filtered(0.5).initial_energy(1) == 2.0

    def test_copy_independent(self, tiny_network):
        clone = tiny_network.copy()
        clone.set_prr(0, 1, 0.1)
        clone.set_initial_energy(0, 7.0)
        assert tiny_network.prr(0, 1) == 1.0
        assert tiny_network.initial_energy(0) != 7.0

    def test_to_networkx_roundtrip(self, tiny_network):
        g = tiny_network.to_networkx()
        assert g.number_of_nodes() == 5
        assert g.number_of_edges() == 6
        assert g.edges[0, 2]["prr"] == 0.8
        assert g.nodes[0]["energy"] == tiny_network.initial_energy(0)
