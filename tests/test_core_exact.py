"""Tests for repro.core.exact (the optimal MILP solver)."""

import types

import pytest

from repro.baselines.aaml import build_aaml_tree
from repro.baselines.mst import build_mst_tree
import repro.core.exact as exact_module
from repro.core.errors import (
    DisconnectedNetworkError,
    InfeasibleLifetimeError,
    LPSolverError,
)
from repro.core.exact import _integral_subtours, solve_mrlc_exact
from repro.core.ira import build_ira_tree
from repro.core.lifetime import lifetime_with_children
from repro.network.model import Network
from repro.network.topology import random_graph


class TestUnconstrained:
    def test_optimum_is_mst(self):
        for seed in range(4):
            net = random_graph(10, 0.6, seed=seed)
            exact = solve_mrlc_exact(net)
            assert exact.cost == pytest.approx(build_mst_tree(net).cost(), abs=1e-9)

    def test_single_node(self):
        result = solve_mrlc_exact(Network(1))
        assert result.cost == 0.0
        assert result.tree.edges() == []

    def test_two_nodes(self):
        net = Network(2)
        net.add_link(0, 1, 0.9)
        result = solve_mrlc_exact(net)
        assert result.tree.edges() == [(0, 1)]

    def test_disconnected_raises(self):
        net = Network(3)
        net.add_link(0, 1, 0.9)
        with pytest.raises(DisconnectedNetworkError):
            solve_mrlc_exact(net)


class TestConstrained:
    def test_output_meets_bound(self):
        net = random_graph(10, 0.7, seed=7)
        lc = lifetime_with_children(net, 0, 2)
        result = solve_mrlc_exact(net, lc)
        assert result.tree.lifetime() >= lc * (1 - 1e-9)

    def test_infeasible_bound_raises(self):
        net = random_graph(10, 0.7, seed=8)
        leaf_life = lifetime_with_children(net, 0, 0)
        with pytest.raises(InfeasibleLifetimeError):
            solve_mrlc_exact(net, leaf_life * 2)

    def test_star_needs_sink_relaxation(self):
        net = Network(5, initial_energy=3000.0)
        for v in range(1, 5):
            net.add_link(0, v, 0.99)
        lc = lifetime_with_children(net, 0, 2)
        with pytest.raises(InfeasibleLifetimeError):
            solve_mrlc_exact(net, lc)
        result = solve_mrlc_exact(net, lc, constrain_sink=False)
        assert result.tree.n_children(0) == 4

    def test_tightening_bound_never_cheapens(self):
        net = random_graph(12, 0.7, seed=9)
        loose = solve_mrlc_exact(net, lifetime_with_children(net, 0, 3))
        tight = solve_mrlc_exact(net, lifetime_with_children(net, 0, 1))
        assert tight.cost >= loose.cost - 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_ira_cost_never_below_optimum(self, seed):
        """The exact solver really is a lower bound for IRA."""
        net = random_graph(11, 0.7, seed=seed)
        aaml = build_aaml_tree(net)
        exact = solve_mrlc_exact(net, aaml.lifetime)
        ira = build_ira_tree(net, aaml.lifetime)
        assert ira.tree.cost() >= exact.cost - 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_ira_is_near_optimal(self, seed):
        """Measured headline: IRA matches the optimum on these instances."""
        net = random_graph(11, 0.7, seed=100 + seed)
        aaml = build_aaml_tree(net)
        exact = solve_mrlc_exact(net, aaml.lifetime)
        ira = build_ira_tree(net, aaml.lifetime)
        # Allow a tiny slack for the LP tie-break perturbation.
        assert ira.tree.cost() <= exact.cost * 1.05 + 1e-6


class TestSolverStatus:
    @pytest.mark.parametrize("status", [1, 4])
    def test_only_a_proven_optimum_is_returned(self, monkeypatch, status):
        """A limit's incumbent ``x`` is feasible, not optimal: it must raise."""
        net = random_graph(8, 0.7, seed=3)
        mst_edges = set(build_mst_tree(net).edges())
        incumbent = [1.0 if e.key in mst_edges else 0.0 for e in net.edges()]
        calls = []

        def limited_milp(**kwargs):
            calls.append(kwargs)
            return types.SimpleNamespace(
                status=status, x=incumbent, message="Time limit reached."
            )

        monkeypatch.setattr(exact_module, "milp", limited_milp)
        with pytest.raises(LPSolverError, match=f"status {status}"):
            solve_mrlc_exact(net)
        assert len(calls) == 1


class TestIntegralSubtours:
    def test_tree_has_no_violations(self):
        assert _integral_subtours(4, [(0, 1), (1, 2), (2, 3)]) == []

    def test_cycle_component_detected(self):
        violated = _integral_subtours(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
        assert frozenset({0, 1, 2}) in violated

    def test_two_cycles_both_detected(self):
        violated = _integral_subtours(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        assert frozenset({0, 1, 2}) in violated
        assert frozenset({3, 4, 5}) in violated
