"""Tests for repro.core.lifetime (bounds, L' inflation, LifetimeSpec)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lifetime import (
    LifetimeSpec,
    children_bound,
    degree_bound,
    inflated_bound,
    lifetime_with_children,
)
from repro.network.model import Network


@pytest.fixture
def net():
    """3 nodes, paper energies (3000 J), fully connected."""
    n = Network(3, initial_energy=3000.0)
    n.add_link(0, 1, 0.9)
    n.add_link(0, 2, 0.9)
    n.add_link(1, 2, 0.9)
    return n


class TestInflatedBound:
    def test_larger_than_lc(self, net):
        lc = 1e6
        assert inflated_bound(net, lc) > lc

    def test_paper_formula(self, net):
        lc = 1e6
        rx = net.energy_model.rx
        expected = 3000.0 * lc / (3000.0 - 2 * rx * lc)
        assert inflated_bound(net, lc) == pytest.approx(expected)

    def test_small_lc_barely_inflates(self, net):
        lc = 1.0
        assert inflated_bound(net, lc) == pytest.approx(lc, rel=1e-6)

    def test_blowup_regime_rejected(self, net):
        # LC >= I_min / (2 Rx) makes the denominator non-positive.
        lc = 3000.0 / (2 * net.energy_model.rx)
        with pytest.raises(ValueError, match="infeasible"):
            inflated_bound(net, lc)

    def test_uses_minimum_energy(self):
        n = Network(3, initial_energy=[3000.0, 100.0, 3000.0])
        lc = 1e5
        rx = n.energy_model.rx
        expected = 100.0 * lc / (100.0 - 2 * rx * lc)
        assert inflated_bound(n, lc) == pytest.approx(expected)

    def test_non_positive_lc_rejected(self, net):
        with pytest.raises(ValueError):
            inflated_bound(net, 0.0)


class TestBounds:
    def test_children_bound_inverts_eq1(self, net):
        for ch in (0, 1, 2, 5):
            lifetime = lifetime_with_children(net, 1, ch)
            assert children_bound(net, 1, lifetime) == pytest.approx(ch, abs=1e-9)

    def test_degree_bound_adds_parent_slot(self, net):
        lifetime = lifetime_with_children(net, 1, 2)
        assert degree_bound(net, 1, lifetime) == pytest.approx(3.0, abs=1e-9)

    def test_sink_degree_bound_has_no_parent_slot(self, net):
        lifetime = lifetime_with_children(net, 0, 2)
        assert degree_bound(net, 0, lifetime) == pytest.approx(2.0, abs=1e-9)

    def test_bound_monotone_in_energy(self):
        n = Network(2, initial_energy=[1000.0, 4000.0])
        n.add_link(0, 1, 0.9)
        assert children_bound(n, 1, 1e6) > children_bound(n, 0, 1e6)


class TestLifetimeSpec:
    def test_resolve(self, net):
        spec = LifetimeSpec.resolve(net, 1e6)
        assert spec.lc == 1e6
        assert spec.l_prime > 1e6

    def test_uninflated(self, net):
        spec = LifetimeSpec.uninflated(net, 1e6)
        assert spec.l_prime == spec.lc == 1e6

    def test_lp_degree_bound_uses_l_prime(self, net):
        strict = LifetimeSpec.resolve(net, 1e6)
        loose = LifetimeSpec.uninflated(net, 1e6)
        assert strict.lp_degree_bound(net, 1) < loose.lp_degree_bound(net, 1)

    def test_satisfied_by_degree_matches_eq1(self, net):
        # LC = lifetime with exactly 2 children.
        lc = lifetime_with_children(net, 1, 2)
        spec = LifetimeSpec.uninflated(net, lc)
        assert spec.satisfied_by_degree(net, 1, 3)  # 2 children + parent
        assert not spec.satisfied_by_degree(net, 1, 4)  # 3 children

    def test_satisfied_by_degree_sink(self, net):
        lc = lifetime_with_children(net, 0, 2)
        spec = LifetimeSpec.uninflated(net, lc)
        assert spec.satisfied_by_degree(net, 0, 2)  # sink: degree = children
        assert not spec.satisfied_by_degree(net, 0, 3)

    def test_satisfied_by_degree_zero_degree(self, net):
        spec = LifetimeSpec.uninflated(net, 1.0)
        assert spec.satisfied_by_degree(net, 1, 0)

    def test_tree_feasible_degree_floor(self, net):
        lc = lifetime_with_children(net, 1, 2)
        spec = LifetimeSpec.uninflated(net, lc)
        assert spec.tree_feasible_degree(net, 1) == 3

    def test_tree_feasible_degree_never_negative(self, net):
        # Absurdly long lifetime -> bound clamps at 0.
        spec = LifetimeSpec.uninflated(net, 1e12)
        assert spec.tree_feasible_degree(net, 1) == 0

    @given(
        energies=st.lists(st.floats(1.0, 5000.0), min_size=2, max_size=12),
        children=st.integers(0, 12),
        nudge=st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=100, deadline=None)
    def test_satisfied_degree_caps_decide_as_the_test(self, energies, children, nudge):
        # LC on (or one ulp beside) the lifetime of some node at some
        # children count, so caps sit right at the comparison's boundary.
        n = len(energies)
        net = Network(n, initial_energy=np.array(energies))
        node = children % n
        lc = lifetime_with_children(net, node, children)
        lc = float(np.nextafter(lc, np.inf if nudge > 0 else 0.0)) if nudge else lc
        spec = LifetimeSpec.uninflated(net, lc)
        caps = spec.satisfied_degree_caps(net, range(n))
        assert sorted(caps) == list(range(n))
        for v in range(n):
            for degree in range(n):
                assert (degree <= caps[v]) == spec.satisfied_by_degree(net, v, degree)

    @given(
        energies=st.lists(
            st.one_of(st.just(0.0), st.floats(1.0, 5000.0)), min_size=1, max_size=12
        ),
        lc=st.floats(1.0, 1e7),
        inflate=st.sampled_from([None, 1.0, 1.5]),
        with_sink=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_lp_degree_bounds_equal_the_scalar_bounds(
        self, energies, lc, inflate, with_sink
    ):
        # 0 J nodes, W with and without the sink, and L' = LC, L' > LC or
        # the paper's inflated L' (when I_min admits one).
        net = Network(len(energies), initial_energy=np.array(energies))
        if inflate is None:
            try:
                spec = LifetimeSpec.resolve(net, lc)
            except ValueError:
                spec = LifetimeSpec.uninflated(net, lc)
        else:
            spec = LifetimeSpec(lc=lc, l_prime=lc * inflate)
        nodes = [v for v in net.nodes if with_sink or v != net.sink]
        bounds = spec.lp_degree_bounds(net, nodes)
        assert list(bounds) == nodes
        for v in nodes:
            assert bounds[v].hex() == spec.lp_degree_bound(net, v).hex(), v

    def test_satisfied_degree_caps_mark_hopeless_nodes(self, net):
        spec = LifetimeSpec.uninflated(net, 1e12)
        assert spec.satisfied_degree_caps(net, [0, 2]) == {0: -1, 2: -1}
