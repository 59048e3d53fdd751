"""Tests for repro.analysis.stability."""

import copy

import pytest

from repro.analysis.stability import (
    estimation_stability,
    tree_distance,
)
from repro.baselines.mst import build_mst_tree
from repro.core.local_search import bfs_tree
from repro.network.dfl import dfl_network
from repro.network.topology import random_graph


class TestTreeDistance:
    def test_identical_trees(self, tiny_network):
        tree = bfs_tree(tiny_network)
        assert tree_distance(tree, copy.copy(tree)) == 0

    def test_single_reparent_is_distance_one(self, tiny_network):
        tree = bfs_tree(tiny_network)
        moved = tree.with_parent(4, 3)
        assert tree_distance(tree, moved) == 1

    def test_symmetric(self, tiny_network):
        a = bfs_tree(tiny_network)
        b = a.with_parent(4, 3)
        assert tree_distance(a, b) == tree_distance(b, a)

    def test_size_mismatch_rejected(self, tiny_network, path_network):
        with pytest.raises(ValueError):
            tree_distance(bfs_tree(tiny_network), bfs_tree(path_network))

    def test_counts_all_disagreements(self):
        net = random_graph(10, 0.9, seed=1)
        a = bfs_tree(net)
        b = a
        moved = 0
        for v in range(1, net.n):
            candidates = [
                p for p in net.neighbors(v)
                if p != b.parent(v) and p not in b.subtree(v)
            ]
            if candidates and moved < 3:
                b = b.with_parent(v, candidates[0])
                moved += 1
        assert tree_distance(a, b) == moved


class TestEstimationStability:
    @pytest.fixture(scope="class")
    def truth(self):
        return dfl_network(estimate_with_beacons=False)

    def test_mst_is_structurally_unstable_on_ties(self, truth):
        """Different beacon draws give different MSTs (near-tie costs)..."""
        report = estimation_stability(
            truth, build_mst_tree, n_draws=6, n_beacons=500
        )
        assert report.mean_pairwise_distance > 0

    def test_but_quality_stays_flat(self, truth):
        """...while the true reliability of every variant is about equal."""
        report = estimation_stability(
            truth, build_mst_tree, n_draws=6, n_beacons=500
        )
        assert report.reliability_spread < 0.05
        assert report.mean_true_reliability > 0.9

    def test_more_beacons_reduce_churn(self, truth):
        noisy = estimation_stability(
            truth, build_mst_tree, n_draws=6, n_beacons=50
        )
        clean = estimation_stability(
            truth, build_mst_tree, n_draws=6, n_beacons=5000
        )
        assert clean.mean_pairwise_distance <= noisy.mean_pairwise_distance

    def test_deterministic(self, truth):
        a = estimation_stability(truth, build_mst_tree, n_draws=4)
        b = estimation_stability(truth, build_mst_tree, n_draws=4)
        assert a == b

    def test_validation(self, truth):
        with pytest.raises(ValueError):
            estimation_stability(truth, build_mst_tree, n_draws=1)
