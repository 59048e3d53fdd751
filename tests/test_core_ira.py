"""Tests for repro.core.ira (the Iterative Relaxation Algorithm)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.aaml import build_aaml_tree
from repro.baselines.mst import build_mst_tree
from repro.core.errors import DisconnectedNetworkError, InfeasibleLifetimeError
from repro.core.ira import IterativeRelaxation, build_ira_tree
from repro.core.lifetime import lifetime_with_children
from repro.network.model import Network
from repro.network.topology import random_graph

#: Cost slack allowed for the LP tie-break perturbation.
PERTURB_SLACK = 1e-3


class TestBasicBehaviour:
    def test_loose_bound_returns_mst_cost(self, small_random_network):
        net = small_random_network
        mst = build_mst_tree(net)
        result = build_ira_tree(net, 1.0)  # trivially loose bound
        assert result.tree.cost() == pytest.approx(mst.cost(), abs=PERTURB_SLACK)
        assert result.lifetime_satisfied

    def test_output_is_spanning_tree(self, small_random_network):
        result = build_ira_tree(small_random_network, 1.0)
        assert len(result.tree.edges()) == small_random_network.n - 1

    def test_meets_declared_bound(self, small_random_network):
        net = small_random_network
        lc = lifetime_with_children(net, 0, 2)
        result = build_ira_tree(net, lc)
        assert result.lifetime_satisfied
        assert result.tree.lifetime() >= lc * (1 - 1e-9)

    def test_single_node(self):
        result = build_ira_tree(Network(1), 1.0)
        assert result.tree.edges() == []

    def test_two_nodes(self):
        net = Network(2)
        net.add_link(0, 1, 0.9)
        result = build_ira_tree(net, 1.0)
        assert result.tree.edges() == [(0, 1)]

    def test_disconnected_raises(self):
        net = Network(3)
        net.add_link(0, 1, 0.9)
        with pytest.raises(DisconnectedNetworkError):
            build_ira_tree(net, 1.0)

    def test_impossible_bound_raises(self, small_random_network):
        net = small_random_network
        # Longer than a leaf's maximum lifetime: nothing can satisfy it.
        leaf_life = lifetime_with_children(net, 0, 0)
        with pytest.raises(InfeasibleLifetimeError):
            build_ira_tree(net, leaf_life * 2)

    def test_diagnostics_populated(self, small_random_network):
        result = build_ira_tree(small_random_network, 1.0)
        assert result.iterations >= 1
        assert result.lp_solves >= result.iterations
        assert result.inflation_used in ("paper", "none")


class TestAgainstBaselines:
    def test_at_aaml_lifetime_beats_aaml_cost(self):
        """The paper's headline: same lifetime bound, far lower cost."""
        for seed in range(8):
            net = random_graph(16, 0.7, seed=seed)
            aaml = build_aaml_tree(net)
            result = build_ira_tree(net, aaml.lifetime)
            assert result.lifetime_satisfied
            assert result.tree.cost() <= aaml.tree.cost() + PERTURB_SLACK
            assert result.tree.lifetime() >= aaml.lifetime * (1 - 1e-9)

    def test_cost_sandwiched_between_mst_and_aaml(self):
        for seed in range(5):
            net = random_graph(14, 0.7, seed=100 + seed)
            aaml = build_aaml_tree(net)
            mst = build_mst_tree(net)
            result = build_ira_tree(net, aaml.lifetime)
            assert mst.cost() - PERTURB_SLACK <= result.tree.cost()
            assert result.tree.cost() <= aaml.tree.cost() + PERTURB_SLACK

    def test_cost_monotone_in_bound(self):
        """Looser lifetime bounds never cost more."""
        net = random_graph(16, 0.7, seed=55)
        aaml = build_aaml_tree(net)
        costs = [
            build_ira_tree(net, aaml.lifetime / k).tree.cost()
            for k in (1.0, 1.5, 2.0, 2.5)
        ]
        for strict, loose in zip(costs, costs[1:]):
            assert loose <= strict + PERTURB_SLACK


class TestInflationModes:
    def test_invalid_mode_rejected(self, small_random_network):
        with pytest.raises(ValueError, match="inflation"):
            IterativeRelaxation(small_random_network, 1.0, inflation="bogus")

    def test_none_mode_reports_none(self, small_random_network):
        result = build_ira_tree(small_random_network, 1.0, inflation="none")
        assert result.inflation_used == "none"

    def test_paper_mode_raises_in_blowup_regime(self, small_random_network):
        net = small_random_network
        lc = lifetime_with_children(net, 0, 1)  # 2*Rx*LC ~ I_min regime
        with pytest.raises(InfeasibleLifetimeError):
            build_ira_tree(net, lc, inflation="paper")

    def test_auto_mode_survives_blowup_regime(self, small_random_network):
        net = small_random_network
        lc = lifetime_with_children(net, 0, 1)
        result = build_ira_tree(net, lc, inflation="auto")
        assert result.inflation_used == "none"
        assert result.lifetime_satisfied

    def test_auto_never_worse_than_none(self):
        net = random_graph(14, 0.7, seed=31)
        lc = lifetime_with_children(net, 0, 2)
        auto = build_ira_tree(net, lc, inflation="auto")
        plain = build_ira_tree(net, lc, inflation="none")
        assert auto.tree.cost() <= plain.tree.cost() + 1e-9


class TestConstrainSink:
    def test_sink_constraint_can_be_disabled(self):
        # Star network: only the sink can be the hub.
        net = Network(5, initial_energy=3000.0)
        for v in range(1, 5):
            net.add_link(0, v, 0.99)
        lc = lifetime_with_children(net, 0, 2)  # sink may have <= 2 children
        with pytest.raises(InfeasibleLifetimeError):
            build_ira_tree(net, lc)  # star forces 4 children on the sink
        result = build_ira_tree(net, lc, constrain_sink=False)
        assert result.tree.n_children(0) == 4


class TestTightConstraints:
    def test_hamiltonian_path_regime(self):
        """LC at the 1-child lifetime only admits Hamiltonian paths."""
        for seed in (8, 12, 13, 18, 25, 27):  # historical stall seeds
            net = random_graph(16, 0.7, seed=seed)
            lc = lifetime_with_children(net, 0, 1)
            result = build_ira_tree(net, lc)
            assert result.lifetime_satisfied, f"seed {seed}"
            assert max(
                result.tree.n_children(v) for v in range(net.n)
            ) <= 1

    @given(seed=st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_never_returns_invalid_tree_silently(self, seed):
        """Whatever happens, the result flag must be truthful."""
        net = random_graph(12, 0.6, seed=seed)
        aaml = build_aaml_tree(net)
        result = build_ira_tree(net, aaml.lifetime)
        meets = result.tree.lifetime() >= aaml.lifetime * (1 - 1e-9)
        assert result.lifetime_satisfied == meets


class TestForcedRelaxation:
    """The degeneracy safeguard fires on ordinary tight-LC inputs."""

    def test_forced_relaxation_still_meets_lc(self):
        # Fig. 8/9 protocol: LC = AAML lifetime on G(22, 0.3) with per-node
        # energies uniform in [1500, 5000] J.
        rng = np.random.default_rng(5)
        net = random_graph(
            22, 0.3, initial_energy=rng.uniform(1500.0, 5000.0, size=22), seed=rng
        )
        lc = build_aaml_tree(net).lifetime
        result = build_ira_tree(net, lc)
        assert result.forced_relaxations
        assert result.lifetime_satisfied
        assert result.tree.lifetime() >= lc
