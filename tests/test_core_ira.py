"""Tests for repro.core.ira (the Iterative Relaxation Algorithm)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.aaml import build_aaml_tree
import repro.core.lp as lp_module
from repro.baselines.mst import build_mst_tree
from repro.core.errors import DisconnectedNetworkError, InfeasibleLifetimeError
from repro.core.ira import IterativeRelaxation, build_ira_tree
from repro.core.lifetime import lifetime_with_children
from repro.core.lp import LPSolution
from repro.engine import build_tree
from repro.network.model import Network
from repro.network.topology import random_graph
from repro.obs import instrument

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
        # An iteration either calls HiGHS or reuses a certified optimum.
        assert result.lp_solves + result.lp_reused >= result.iterations
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


class TestLPReuse:
    """Reusing certified optima changes no decision IRA makes."""

    @staticmethod
    def _inputs():
        for seed in range(3):
            rng = np.random.default_rng(seed)
            net = random_graph(
                22, 0.3, initial_energy=rng.uniform(1500.0, 5000.0, size=22), seed=rng
            )
            yield net, build_aaml_tree(net).lifetime
        for seed in range(3):
            net = random_graph(25, 0.6, seed=seed)
            yield net, 0.5 * build_tree("bfs", net).lifetime

    @staticmethod
    def _outcome(net, lc, **params):
        try:
            result = build_ira_tree(net, lc, **params)
        except InfeasibleLifetimeError:
            return "infeasible", 0
        outcome = (
            result.tree.parents,
            result.iterations,
            result.forced_relaxations,
            result.lifetime_satisfied,
            result.inflation_used,
        )
        return outcome, result.lp_reused

    @pytest.mark.parametrize(
        "params",
        [
            {"inflation": "auto"},
            {"inflation": "paper"},
            {"inflation": "none"},
            {"inflation": "auto", "constrain_sink": False},
        ],
        ids=["auto", "paper", "none", "auto-unconstrained-sink"],
    )
    def test_matches_always_resolving(self, params, monkeypatch):
        inputs = list(self._inputs())
        reusing = [self._outcome(net, lc, **params) for net, lc in inputs]
        monkeypatch.setattr(LPSolution, "still_optimal_for", lambda *a: None)
        resolving = [self._outcome(net, lc, **params) for net, lc in inputs]
        assert [o for o, _ in reusing] == [o for o, _ in resolving]
        assert all(reused == 0 for _, reused in resolving)

    def test_reuse_fires_within_and_across_attempts(self):
        inputs = list(self._inputs())
        # Forced relaxations of slack rows keep x within an attempt ...
        tight = [build_ira_tree(net, lc) for net, lc in inputs[:3]]
        assert sum(r.lp_reused for r in tight) > 0
        # ... and on loose LC the inflated optimum certifies the uninflated
        # attempt's only program, so that attempt, which would rebuild the
        # same tree, is not run at all.
        with instrument() as session:
            loose = [build_ira_tree(net, lc) for net, lc in inputs[3:]]
        reg = session.registry
        assert reg.counter_value("ira.iterations", inflation="paper") == len(loose)
        assert reg.counter_value("ira.iterations", inflation="none") == 0
        assert all(r.inflation_used == "paper" for r in loose)
        assert all(r.lifetime_satisfied for r in tight + loose)


class TestRepeatedAttemptSkipped:
    """``auto`` skips an uninflated attempt that would repeat the inflated one."""

    @staticmethod
    def _result(net, lc):
        with instrument() as session:
            result = build_ira_tree(net, lc)
        return result, session.registry.counter_value("ira.iterations", inflation="none")

    @pytest.mark.parametrize("seed", range(4))
    def test_skip_returns_the_min_of_both_attempts(self, seed, monkeypatch):
        net = random_graph(25, 0.6, seed=seed)
        lc = 0.5 * build_tree("bfs", net).lifetime
        skipped, skipped_iterations = self._result(net, lc)
        # The oracle runs both attempts and returns the min of the two.
        monkeypatch.setattr(IterativeRelaxation, "_would_repeat", lambda *a: False)
        both, both_iterations = self._result(net, lc)
        assert skipped_iterations == 0 < both_iterations
        assert skipped.tree.parents == both.tree.parents
        assert skipped.tree.cost() == both.tree.cost()
        for name in (
            "spec", "iterations", "lp_solves", "lp_reused", "cuts_generated",
            "forced_relaxations", "lifetime_satisfied", "inflation_used",
        ):
            assert getattr(skipped, name) == getattr(both, name), name

    def test_no_skip_when_the_inflated_rows_bind(self):
        # Half the AAML lifetime under the Fig. 8/9 energies: the inflated
        # attempt empties W in one iteration, but its optimum sits on a row
        # the uninflated program loosens, and that attempt builds a cheaper
        # tree.
        rng = np.random.default_rng(8)
        net = random_graph(
            22, 0.3, initial_energy=rng.uniform(1500.0, 5000.0, size=22), seed=rng
        )
        lc = 0.5 * build_aaml_tree(net).lifetime
        paper = build_ira_tree(net, lc, inflation="paper")
        assert paper.iterations == 1 and not paper.forced_relaxations
        result, iterations = self._result(net, lc)
        assert iterations > 0 and result.inflation_used == "none"
        assert result.tree.cost() < paper.tree.cost()


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

    def test_one_model_per_attempt(self, monkeypatch):
        """Relaxation iterations restrict one HiGHS model instead of building
        a new one, and the tree is the one a model per iteration built."""
        rng = np.random.default_rng(5)
        net = random_graph(
            22, 0.3, initial_energy=rng.uniform(1500.0, 5000.0, size=22), seed=rng
        )
        lc = build_aaml_tree(net).lifetime
        models = []
        real = lp_module._new_model

        def spy(costs, n):
            models.append(real(costs, n))
            return models[-1]

        monkeypatch.setattr(lp_module, "_new_model", spy)
        with instrument() as session:
            result = build_ira_tree(net, lc)
        reg = session.registry
        assert result.forced_relaxations and result.inflation_used == "none"
        # The inflated attempt is infeasible at its first solve; the
        # uninflated one solves 4 of its 7 programs on one model.
        assert reg.counter_value("lp.infeasible") == 1
        assert result.iterations - result.lp_reused == 4
        assert len(models) == 2
        digest = hashlib.sha256(
            f"{sorted(result.tree.parents.items())} {result.tree.cost()!r}".encode()
        ).hexdigest()
        assert digest == (
            "94c5ae1d32e7aadcf7c4172d20ebe609c9ba997322b6453ccba62af64af9e123"
        )
