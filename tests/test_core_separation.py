"""Tests for repro.core.separation (subtour oracle)."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.lp as lp_module
import repro.core.separation as separation_module
from repro.core.ira import build_ira_tree
from repro.core.separation import (
    DEFAULT_TOLERANCE,
    SCREEN_MAX_GROUPS,
    find_violated_subtours,
    subtour_violation,
)
from repro.obs import instrument
from repro.utils.maxflow import DinicMaxFlow
from tests.test_core_lp import ORACLE_INPUTS


def _separate_counting_probes(n, edges, x, **kwargs):
    """Run the oracle instrumented; return (sets, root probes made)."""
    with instrument() as session:
        found = find_violated_subtours(n, edges, np.array(x, dtype=float), **kwargs)
    return found, session.registry.counter_value("separation.root_probes")


def _max_violation(n, edges, x):
    """Brute force: the largest subtour violation over all |S| >= 2."""
    return max(
        subtour_violation(subset, edges, x)
        for size in range(2, n + 1)
        for subset in combinations(range(n), size)
    )


def _triangle():
    """K3: edges aligned with x vectors in tests."""
    return 3, [(0, 1), (1, 2), (0, 2)]


class TestSubtourViolation:
    def test_cycle_violates(self):
        n, edges = _triangle()
        x = np.array([1.0, 1.0, 1.0])  # a 3-cycle: x(E(S)) = 3 > |S|-1 = 2
        assert subtour_violation([0, 1, 2], edges, x) == pytest.approx(1.0)

    def test_tree_does_not_violate(self):
        n, edges = _triangle()
        x = np.array([1.0, 1.0, 0.0])
        assert subtour_violation([0, 1, 2], edges, x) <= 0.0

    def test_subset_counts_internal_edges_only(self):
        n, edges = _triangle()
        x = np.array([1.0, 1.0, 1.0])
        assert subtour_violation([0, 1], edges, x) == pytest.approx(0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            find_violated_subtours(3, [(0, 1)], np.array([1.0, 1.0]))


class TestFindViolatedSubtours:
    def test_detects_integral_cycle(self):
        n, edges = _triangle()
        # Spanning "tree" constraint would be x sums to 2; here the 3-cycle
        # with all ones violates S = {0,1,2}.
        found = find_violated_subtours(n, edges, np.array([1.0, 1.0, 1.0]))
        assert frozenset({0, 1, 2}) in found

    def test_spanning_tree_point_is_clean(self):
        n, edges = _triangle()
        assert find_violated_subtours(n, edges, np.array([1.0, 0.0, 1.0])) == []

    def test_fractional_cycle_detected(self):
        # Two disjoint fractional cycles on 6 nodes; total = 5 = n - 1, so
        # the spanning equality holds but each cycle violates its subtour.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        x = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        found = find_violated_subtours(6, edges, x)
        assert frozenset({0, 1, 2}) in found

    def test_uniform_fractional_point_ok(self):
        # x_e = 2/3 on a triangle: x(E(S)) = 2 = |S| - 1 for S = V; subsets
        # of size 2 have x = 2/3 <= 1.  No violation.
        n, edges = _triangle()
        assert find_violated_subtours(n, edges, np.array([2 / 3] * 3)) == []

    def test_violation_just_over_tolerance(self):
        n, edges = _triangle()
        x = np.array([1.0, 1.0, 1e-5])
        found = find_violated_subtours(n, edges, x, tolerance=1e-6)
        assert frozenset({0, 1, 2}) in found

    def test_violation_under_tolerance_ignored(self):
        n, edges = _triangle()
        x = np.array([1.0, 1.0, 1e-9])
        assert find_violated_subtours(n, edges, x, tolerance=1e-6) == []

    def test_max_sets_cap(self):
        # Many independent triangles, each violated.
        edges = []
        for k in range(5):
            base = 3 * k
            edges += [(base, base + 1), (base + 1, base + 2), (base, base + 2)]
        x = np.ones(len(edges))
        found = find_violated_subtours(15, edges, x, max_sets=2)
        assert len(found) == 2

    def test_trivial_sizes(self):
        assert find_violated_subtours(1, [], np.array([])) == []
        assert find_violated_subtours(2, [(0, 1)], np.array([1.0])) == []

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_reported_sets_truly_violate(self, seed):
        """Soundness: every reported set must violate its constraint."""
        rng = np.random.default_rng(seed)
        n = 8
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        if not edges:
            return
        x = rng.uniform(0.0, 1.0, size=len(edges))
        # Scale to satisfy the spanning equality roughly (not required).
        found = find_violated_subtours(n, edges, x)
        for subset in found:
            assert len(subset) >= 2
            assert subtour_violation(sorted(subset), edges, x) > 0

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_completeness_against_bruteforce(self, seed):
        """If brute force finds a violated set, the oracle must find one."""
        rng = np.random.default_rng(seed)
        n = 6
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        x = rng.uniform(0.0, 0.9, size=len(edges))

        brute_violation = max(0.0, _max_violation(n, edges, x))
        found = find_violated_subtours(n, edges, x)
        if brute_violation > 1e-6:
            assert found, f"oracle missed a violation of {brute_violation}"
        if not found:
            assert brute_violation <= 1e-6


@st.composite
def _mostly_integral_points(draw):
    """A graph on n <= 8 nodes with many exact ``x_e = 1.0`` entries."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges, x = [], []
    for pair in pairs:
        kind = draw(st.sampled_from(["absent", "zero", "one", "one", "frac"]))
        if kind == "absent":
            continue
        edges.append(pair)
        if kind == "frac":
            x.append(draw(st.floats(0.0, 1.0, allow_nan=False)))
        else:
            x.append(1.0 if kind == "one" else 0.0)
    return n, edges, np.array(x, dtype=float)


class TestShrunkSeparation:
    """The oracle contracts ``x_e >= 1`` components before probing."""

    @given(point=_mostly_integral_points())
    @settings(max_examples=150, deadline=None)
    def test_exact_against_bruteforce_on_near_integral_points(self, point):
        n, edges, x = point
        found = find_violated_subtours(n, edges, x)
        for subset in found:  # soundness
            assert len(subset) >= 2
            assert subtour_violation(sorted(subset), edges, x) > DEFAULT_TOLERANCE
        worst = _max_violation(n, edges, x)
        if worst > 1e-6:  # completeness
            assert found, f"oracle missed a violation of {worst}"
        if not found:
            assert worst <= 1e-6

    def test_integral_spanning_tree_needs_no_probe(self):
        # A spanning tree of K5 at x = 1 contracts to one group: the only
        # candidate set is V, checked directly.
        n = 5
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        tree = {(0, 1), (1, 2), (1, 3), (3, 4)}
        x = [1.0 if e in tree else 0.0 for e in edges]
        found, probes = _separate_counting_probes(n, edges, x)
        assert found == []
        assert probes == 0

    def test_violated_group_reported_without_probe(self):
        # The x = 1 triangle {0, 1, 2} is one violated group; the fractional
        # path 3-4-5 leaves four groups, but the group check already fills
        # the max_sets budget.
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]
        x = [1.0, 1.0, 1.0, 0.4, 0.5, 0.5]
        found, probes = _separate_counting_probes(6, edges, x, max_sets=1)
        assert found == [frozenset({0, 1, 2})]
        assert probes == 0

    def test_one_probe_per_group(self):
        # Groups {0, 1} and {2, 3} are fine alone; their union carries
        # x(E(S)) = 3.2 > 3 and is found by probing two contracted roots.
        edges = [(0, 1), (2, 3), (1, 2), (0, 3)]
        x = [1.0, 1.0, 0.6, 0.6]
        found, probes = _separate_counting_probes(4, edges, x)
        assert found == [frozenset({0, 1, 2, 3})]
        assert probes == 2

    def test_fractional_point_probes_every_node(self):
        # No x_e reaches 1: every node is its own group (the k = n case).
        # With k = 13 > SCREEN_MAX_GROUPS groups the screen is off, so every
        # root is probed even though the point is clean: at x = 12/13 on a
        # 13-cycle, f(V) = 1 and every path of j nodes has f = 1 + (j-1)/13.
        n = 13
        assert n > SCREEN_MAX_GROUPS
        edges = [(v, (v + 1) % n) for v in range(n)]
        found, probes = _separate_counting_probes(n, edges, [12 / 13] * n)
        assert found == []
        assert probes == 13

    def test_screen_clears_a_certifying_round(self):
        # x = 2/3 on a triangle: f(S) >= 1 on every union, so the screen
        # shows that no root's probe could find a violated set.
        n, edges = _triangle()
        found, probes = _separate_counting_probes(n, edges, [2 / 3] * 3)
        assert found == []
        assert probes == 0


def _ira_oracle_points():
    """Every ``(n, edges, x)`` the oracle is asked about while IRA builds the
    trees of the LP tests' oracle inputs."""
    points = []
    real = lp_module.find_violated_subtours

    def record(n, edges, x, **kwargs):
        points.append((n, list(edges), np.array(x)))
        return real(n, edges, x, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "find_violated_subtours", record)
        for net, spec in ORACLE_INPUTS.values():
            build_ira_tree(net, spec.lc)
    return points


def _unscreened(n, edges, x, **kwargs):
    """The oracle with the root screen switched off (every root probed)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(separation_module, "SCREEN_MAX_GROUPS", 0)
        return find_violated_subtours(n, edges, x, **kwargs)


#: Values whose sums land exactly on f(S) = 1 (ties for the screen's margin).
_TIES = (0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0)


@st.composite
def _tied_points(draw, max_n=SCREEN_MAX_GROUPS):
    """A graph on n <= max_n nodes with x mixing exact ties and uniform values."""
    n = draw(st.integers(2, max_n))
    value = st.one_of(
        st.sampled_from(_TIES), st.floats(0.0, 1.0, allow_nan=False)
    )
    edges, x = [], []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append((u, v))
                x.append(draw(value))
    return n, edges, np.array(x, dtype=float)


class TestRootScreen:
    """Skipping the roots the screen clears leaves the output unchanged."""

    @given(point=_tied_points(), max_sets=st.sampled_from([1, 3, 10]))
    @settings(max_examples=300, deadline=None)
    def test_screen_returns_what_probing_every_root_returns(self, point, max_sets):
        n, edges, x = point
        screened = find_violated_subtours(n, edges, x, max_sets=max_sets)
        assert screened == _unscreened(n, edges, x, max_sets=max_sets)

    def test_screen_on_ira_lp_points(self):
        points = _ira_oracle_points()
        assert len(points) > 30
        with instrument() as screened_session:
            screened = [find_violated_subtours(*point) for point in points]
        with instrument() as full_session:
            full = [_unscreened(*point) for point in points]
        assert screened == full
        probes = "separation.root_probes"
        assert screened_session.registry.counter_value(
            probes
        ) < full_session.registry.counter_value(probes)


class _FromZero(DinicMaxFlow):
    """Solves every probe on a fresh copy of the network, from zero flow."""

    def solve(self, source, sink, *, cutoff=None):
        fresh = DinicMaxFlow(self.n)
        for arc in range(0, len(self._to), 2):
            fresh.add_edge(
                self._to[arc ^ 1],
                self._to[arc],
                self._initial_cap[arc],
                self._initial_cap[arc ^ 1],
            )
        return fresh.solve(source, sink, cutoff=cutoff)


class TestResumedProbes:
    """Probes resumed from the no-root base flow find what fresh probes find."""

    @given(
        point=_tied_points(max_n=SCREEN_MAX_GROUPS + 4),
        max_sets=st.sampled_from([1, 3, 10]),
    )
    @settings(max_examples=300, deadline=None)
    def test_resumed_probes_return_what_fresh_probes_return(self, point, max_sets):
        n, edges, x = point
        resumed = find_violated_subtours(n, edges, x, max_sets=max_sets)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(separation_module, "DinicMaxFlow", _FromZero)
            fresh = find_violated_subtours(n, edges, x, max_sets=max_sets)
        assert resumed == fresh

    def test_base_flow_shortens_the_probes(self):
        # Node 3 has x(delta(3)) = 2.3 > 2, a negative node weight, so the
        # base solve pushes flow from the source through it.  Every probe
        # then resumes from that flow instead of pushing it again.
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
        x = np.array([0.5, 0.5, 0.5, 0.5, 0.9, 0.9, 0.9])
        counts = []
        for network in (DinicMaxFlow, _FromZero):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(separation_module, "DinicMaxFlow", network)
                with instrument() as session:
                    found = find_violated_subtours(6, edges, x)
            assert found == [frozenset({3, 4, 5}), frozenset({2, 3, 4, 5})]
            counts.append(
                [
                    session.registry.counter_value(f"separation.{name}")
                    for name in ("root_probes", "augmenting_paths")
                ]
            )
        # Same probes; the base solve's paths plus the probes' own: 15
        # against 19 when every probe starts from zero.
        assert counts == [[4, 15], [4, 19]]


class _CountingSolves(DinicMaxFlow):
    """Counts every ``solve``, base solves and probes alike."""

    solves = 0

    def solve(self, source, sink, *, cutoff=None):
        type(self).solves += 1
        return super().solve(source, sink, cutoff=cutoff)


def _base_forced_and_skipped(points):
    """The oracle's answers and ``solve`` counts on *points*, first with a
    base solve in every probing call, then where it pays off only."""
    runs = []
    for force in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(separation_module, "DinicMaxFlow", _CountingSolves)
            patch.setattr(_CountingSolves, "solves", 0)
            if force:
                patch.setattr(separation_module, "_resume_from_base", lambda *a: True)
            found = [find_violated_subtours(*point) for point in points]
            runs.append((found, _CountingSolves.solves))
    return runs


class TestBaseSolveSkipped:
    """Where the base solve cannot pay off (zero base flow, or one probe),
    probes start from zero flow and find what resumed probes find."""

    def test_skipped_base_returns_what_the_forced_base_returns(self):
        points = _ira_oracle_points()
        (forced, forced_solves), (skipped, skipped_solves) = _base_forced_and_skipped(
            points
        )
        assert skipped == forced
        assert skipped_solves < forced_solves

    @given(point=_tied_points(max_n=SCREEN_MAX_GROUPS + 4))
    @settings(max_examples=200, deadline=None)
    def test_on_tied_points(self, point):
        (forced, _), (skipped, _) = _base_forced_and_skipped([point])
        assert skipped == forced

    def test_one_probe_needs_no_base_solve(self):
        # The group {0, 1, 2} is violated on its own (x(E) = 2.5) and every
        # union through another group has f >= 1, so the screen leaves one
        # root to probe.  Node 3 has x(delta(3)) = 2.7 > 2, a negative node
        # weight, so the base flow is not zero; still, with one probe the
        # oracle makes one solve, not a base solve and a probe.
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (3, 5), (3, 6)]
        x = np.array([1.0, 1.0, 0.5, 0.3, 0.8, 0.8, 0.8])
        (forced, forced_solves), (skipped, skipped_solves) = _base_forced_and_skipped(
            [(7, edges, x)]
        )
        assert skipped == forced == [[frozenset({0, 1, 2})]]
        assert (forced_solves, skipped_solves) == (2, 1)

    def test_zero_base_flow_needs_no_base_solve(self):
        # Groups {0, 1} and {2, 3} have node weights 0.4 >= 0, so the base
        # flow is zero: the two probes start from zero flow with no base
        # solve before them.
        edges = [(0, 1), (2, 3), (1, 2), (0, 3)]
        x = np.array([1.0, 1.0, 0.6, 0.6])
        (forced, forced_solves), (skipped, skipped_solves) = _base_forced_and_skipped(
            [(4, edges, x)]
        )
        assert skipped == forced == [[frozenset({0, 1, 2, 3})]]
        assert (forced_solves, skipped_solves) == (3, 2)
