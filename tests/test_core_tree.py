"""Tests for repro.core.tree (AggregationTree)."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.random_tree import build_random_tree
from repro.core.tree import PAPER_COST_SCALE, AggregationTree
from repro.network.model import Network
from repro.network.topology import random_graph


@pytest.fixture
def tree(tiny_network):
    """Tree 0 <- {1, 2}, 1 <- 3, 2 <- 4 over the tiny network."""
    return AggregationTree(tiny_network, {1: 0, 2: 0, 3: 1, 4: 2})


class TestConstruction:
    def test_parents_dict(self, tree):
        assert tree.parent(0) is None
        assert tree.parent(3) == 1
        assert tree.children(0) == [1, 2]
        assert tree.children(3) == []

    def test_parents_sequence(self, tiny_network):
        t = AggregationTree(tiny_network, [-1, 0, 0, 1, 2])
        assert t.parents == {1: 0, 2: 0, 3: 1, 4: 2}

    def test_sequence_length_checked(self, tiny_network):
        with pytest.raises(ValueError, match="length"):
            AggregationTree(tiny_network, [-1, 0, 0])

    def test_missing_parent_rejected(self, tiny_network):
        with pytest.raises(ValueError, match="no parent"):
            AggregationTree(tiny_network, {1: 0, 2: 0, 3: 1})

    def test_non_network_edge_rejected(self, tiny_network):
        # (0, 3) is not a link.
        with pytest.raises(ValueError, match="does not exist"):
            AggregationTree(tiny_network, {1: 0, 2: 0, 3: 0, 4: 2})

    def test_cycle_rejected(self, tiny_network):
        # 1 -> 2 -> 1 cycle (both links exist).
        with pytest.raises(ValueError, match="cycle"):
            AggregationTree(tiny_network, {1: 2, 2: 1, 3: 1, 4: 2})

    def test_out_of_range_parent_rejected(self, tiny_network):
        with pytest.raises(ValueError, match="out of range"):
            AggregationTree(tiny_network, {1: 0, 2: 0, 3: 1, 4: 9})

    def test_single_node_tree(self):
        t = AggregationTree(Network(1), {})
        assert t.edges() == []
        assert t.reliability() == 1.0
        assert t.cost() == 0.0

    def test_from_edges(self, tiny_network):
        t = AggregationTree.from_edges(
            tiny_network, [(0, 1), (0, 2), (1, 3), (2, 4)]
        )
        assert t.parent(4) == 2

    def test_from_edges_orients_away_from_sink(self, path_network):
        t = AggregationTree.from_edges(path_network, [(2, 3), (1, 2), (0, 1)])
        assert t.parent(3) == 2
        assert t.parent(1) == 0

    def test_from_edges_wrong_count(self, tiny_network):
        with pytest.raises(ValueError, match="edges"):
            AggregationTree.from_edges(tiny_network, [(0, 1), (0, 2)])

    def test_from_edges_disconnected(self, tiny_network):
        # Right edge count, but {3, 4} is cut off (0-1-2 form a cycle).
        with pytest.raises(ValueError, match="not connected"):
            AggregationTree.from_edges(
                tiny_network, [(0, 1), (0, 2), (1, 2), (3, 4)]
            )

    def test_from_edges_duplicate(self, tiny_network):
        with pytest.raises(ValueError, match="duplicate"):
            AggregationTree.from_edges(
                tiny_network, [(0, 1), (1, 0), (1, 3), (2, 4)]
            )


class TestStructure:
    def test_edges_sorted_canonical(self, tree):
        assert tree.edges() == [(0, 1), (0, 2), (1, 3), (2, 4)]

    def test_has_tree_edge(self, tree):
        assert tree.has_tree_edge(0, 1)
        assert tree.has_tree_edge(1, 0)
        assert not tree.has_tree_edge(1, 2)

    def test_subtree(self, tree):
        assert tree.subtree(1) == {1, 3}
        assert tree.subtree(0) == {0, 1, 2, 3, 4}
        assert tree.subtree(4) == {4}

    def test_depth(self, tree):
        assert tree.depth(0) == 0
        assert tree.depth(1) == 1
        assert tree.depth(4) == 2

    def test_leaves(self, tree):
        assert tree.leaves() == [3, 4]

    def test_postorder_children_before_parents(self, tree):
        order = tree.postorder()
        assert len(order) == 5
        assert order[-1] == 0
        assert order.index(3) < order.index(1)
        assert order.index(4) < order.index(2)

    def test_n_children(self, tree):
        assert tree.n_children(0) == 2
        assert tree.n_children(3) == 0


class TestMetrics:
    def test_cost_is_sum_of_edge_costs(self, tree, tiny_network):
        expected = sum(tiny_network.cost(u, v) for u, v in tree.edges())
        assert tree.cost() == pytest.approx(expected)

    def test_reliability_is_product(self, tree):
        assert tree.reliability() == pytest.approx(1.0 * 0.8 * 0.9 * 0.7)

    def test_lemma3_duality(self, tree):
        """C(T) = -log Q(T) (Lemma 3)."""
        assert tree.cost() == pytest.approx(-math.log(tree.reliability()))

    def test_paper_cost_scale(self, tree):
        assert tree.paper_cost() == pytest.approx(
            -1000.0 * math.log2(tree.reliability())
        )
        assert PAPER_COST_SCALE == pytest.approx(1000.0 / math.log(2))

    def test_node_lifetime_eq1(self, tree, tiny_network):
        model = tiny_network.energy_model
        expected = tiny_network.initial_energy(0) / (model.tx + 2 * model.rx)
        assert tree.node_lifetime(0) == pytest.approx(expected)

    def test_network_lifetime_is_min(self, tree):
        assert tree.lifetime() == min(
            tree.node_lifetime(v) for v in range(tree.n)
        )

    def test_bottleneck_achieves_minimum(self, tree):
        b = tree.bottleneck()
        assert tree.node_lifetime(b) == pytest.approx(tree.lifetime())

    def test_meets_lifetime(self, tree):
        assert tree.meets_lifetime(tree.lifetime())
        assert not tree.meets_lifetime(tree.lifetime() * 1.01)


class TestMutation:
    def test_with_parent(self, tree):
        moved = tree.with_parent(4, 3)  # link (3, 4) exists
        assert moved.parent(4) == 3
        assert tree.parent(4) == 2  # original untouched

    def test_with_parent_cycle_rejected(self, tree):
        with pytest.raises(ValueError):
            tree.with_parent(1, 3)  # 3 is in 1's subtree

    def test_sink_cannot_move(self, tree):
        with pytest.raises(ValueError, match="sink"):
            tree.with_parent(0, 1)

    def test_copy_and_equality(self, tree):
        clone = copy.copy(tree)
        assert clone == tree
        assert hash(clone) == hash(tree)
        moved = tree.with_parent(4, 3)
        assert moved != tree

    def test_equality_other_type(self, tree):
        assert tree != "not a tree"


def _set_network(tree):
    tree.network = None


def _set_new_attribute(tree):
    tree.cached_cost = 0.0


def _setattr_builtin(tree):
    setattr(tree, "_parent", [])


def _del_attribute(tree):
    del tree.network


def _write_parent_array(tree):
    tree._parent[1] = 0


def _append_child(tree):
    tree._children[0].append(5)


def _replace_children(tree):
    tree._children[0] = ()


class TestFrozen:
    """A built tree cannot be changed by any route; copies round-trip."""

    @pytest.fixture
    def built(self):
        from repro.engine import build_tree

        return build_tree("mst", random_graph(20, 0.4, seed=3)).tree

    @pytest.mark.parametrize(
        "mutate",
        [
            _set_network,
            _set_new_attribute,
            _setattr_builtin,
            _del_attribute,
            _write_parent_array,
            _append_child,
            _replace_children,
        ],
    )
    def test_every_mutation_route_raises(self, built, mutate):
        before = (built.parents, built.cost(), built.children(0))
        with pytest.raises((AttributeError, TypeError, ValueError)):
            mutate(built)
        assert (built.parents, built.cost(), built.children(0)) == before

    @pytest.mark.parametrize(
        "clone",
        [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copies_round_trip(self, built, clone):
        other = clone(built)
        assert other.parents == built.parents
        assert other.cost() == built.cost()
        assert other.reliability() == built.reliability()
        assert other.lifetime() == built.lifetime()
        assert not other._parent.flags.writeable


class TestPaperToyExample:
    def test_fig4_reliabilities(self, toy_fig4_network):
        tree_a = AggregationTree(
            toy_fig4_network, {1: 4, 2: 4, 3: 5, 4: 0, 5: 0}
        )
        tree_b = AggregationTree(
            toy_fig4_network, {1: 4, 2: 5, 3: 5, 4: 0, 5: 0}
        )
        assert tree_a.reliability() == pytest.approx(0.36)
        assert tree_b.reliability() == pytest.approx(0.648)
        assert tree_b.cost() < tree_a.cost()


class TestProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_tree_invariants(self, seed):
        net = random_graph(12, 0.5, seed=seed % 100)
        tree = build_random_tree(net, seed=seed)
        # Spanning: n-1 edges, every node reaches the sink.
        assert len(tree.edges()) == net.n - 1
        for v in range(net.n):
            assert tree.depth(v) <= net.n
        # Duality holds on arbitrary trees.
        assert tree.cost() == pytest.approx(-math.log(tree.reliability()))
        # Children counts sum to n-1.
        assert sum(tree.n_children(v) for v in range(net.n)) == net.n - 1
        # Subtree sizes: the sink's subtree is everything.
        assert tree.subtree(0) == set(range(net.n))
