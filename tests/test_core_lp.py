"""Tests for repro.core.lp (the cutting-plane LP solver)."""

import math
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as cold_linprog
from scipy.optimize._highspy._core import HighsBasisStatus, HighsModelStatus, _Highs
from scipy.sparse import csr_array

import repro.core.lp as lp_module
from repro.baselines.aaml import build_aaml_tree
from repro.baselines.mst import build_mst_tree
from repro.core.errors import InfeasibleLifetimeError, LPSolverError
from repro.core.lifetime import LifetimeSpec, lifetime_with_children
from repro.core.lp import (
    DUAL_FEASIBILITY_TOL,
    HighsRound,
    JITTER_QUANTUM,
    SUPPORT_EPS,
    TIGHT_SLACK,
    LPSolution,
    MRLCLinearProgram,
    _perturbed_cost,
    _row_block,
    solve_mrlc_lp,
)
from repro.core.separation import subtour_violation
from repro.core.tree import AggregationTree
from repro.engine import build_tree
from repro.network.model import Network
from repro.network.topology import random_graph
from repro.obs import instrument

#: Cost slack allowed for the deterministic tie-break perturbation.
PERTURB_SLACK = 1e-3


class TestUnconstrainedLP:
    """With no lifetime rows the LP optimum is the minimum spanning tree."""

    def test_matches_mst_on_random_graphs(self):
        for seed in range(5):
            net = random_graph(10, 0.6, seed=seed)
            solution = solve_mrlc_lp(net, {})
            assert solution.is_integral()
            tree = AggregationTree.from_edges(net, solution.support())
            mst = build_mst_tree(net)
            assert tree.cost() == pytest.approx(mst.cost(), abs=PERTURB_SLACK)

    def test_support_is_spanning_tree(self, tiny_network):
        solution = solve_mrlc_lp(tiny_network, {})
        support = solution.support()
        assert len(support) == tiny_network.n - 1
        AggregationTree.from_edges(tiny_network, support)  # must not raise

    def test_objective_close_to_true_cost(self, tiny_network):
        solution = solve_mrlc_lp(tiny_network, {})
        true_cost = sum(tiny_network.cost(u, v) for u, v in solution.support())
        assert solution.objective == pytest.approx(true_cost, abs=PERTURB_SLACK)

    def test_two_node_network(self):
        net = Network(2)
        net.add_link(0, 1, 0.9)
        solution = solve_mrlc_lp(net, {})
        assert solution.support() == [(0, 1)]

    def test_single_node_network(self):
        solution = solve_mrlc_lp(Network(1), {})
        assert solution.support() == []
        assert solution.objective == 0.0

    def test_degenerate_equal_costs_converge(self):
        """All-equal costs used to cycle forever; perturbation fixes it."""
        net = Network(8)
        for u in range(8):
            for v in range(u + 1, 8):
                net.add_link(u, v, 0.9)  # identical costs everywhere
        solution = solve_mrlc_lp(net, {})
        assert solution.is_integral()
        assert len(solution.support()) == 7


class TestDegreeConstrainedLP:
    def test_degree_bounds_respected(self):
        # Star-tempting network: node 0 adjacent to everything cheaply.
        net = Network(5)
        for v in range(1, 5):
            net.add_link(0, v, 0.99)
        net.add_link(1, 2, 0.9)
        net.add_link(3, 4, 0.9)
        solution = solve_mrlc_lp(net, {0: 2.0})
        assert solution.fractional_degrees(5)[0] <= 2.0 + 1e-6

    def test_infeasible_bounds_raise(self):
        net = Network(3)
        net.add_link(0, 1, 0.9)
        net.add_link(1, 2, 0.9)
        # Node 1 must have degree 2 in the only spanning tree.
        with pytest.raises(InfeasibleLifetimeError):
            solve_mrlc_lp(net, {1: 1.0})

    def test_no_edges_multi_node(self):
        with pytest.raises(InfeasibleLifetimeError):
            MRLCLinearProgram(Network(3), [], {}).solve()

    def test_restricted_edge_set(self, tiny_network):
        # Force the LP to use only a path's edges.
        edges = [(0, 1), (1, 2), (2, 4), (1, 3)]
        solution = solve_mrlc_lp(tiny_network, {}, edges=edges)
        assert sorted(solution.support()) == sorted(edges)

    def test_carrying_cuts_forward(self, small_random_network):
        first = solve_mrlc_lp(small_random_network, {})
        again = solve_mrlc_lp(
            small_random_network, {}, initial_cuts=first.cuts
        )
        assert again.objective == pytest.approx(first.objective, abs=1e-9)
        # Warm cuts can only reduce the number of LP solves.
        assert again.n_lp_solves <= first.n_lp_solves


class TestLPSolutionHelpers:
    def test_support_degrees(self):
        solution = LPSolution(
            edges=[(0, 1), (1, 2), (0, 2)],
            x=np.array([1.0, 1.0, 0.0]),
            objective=0.0,
        )
        assert list(solution.support_degrees(3)) == [1, 2, 1]

    def test_fractional_degrees(self):
        solution = LPSolution(
            edges=[(0, 1), (1, 2)],
            x=np.array([0.5, 0.25]),
            objective=0.0,
        )
        assert solution.fractional_degrees(3) == pytest.approx([0.5, 0.75, 0.25])

    def test_is_integral(self):
        assert LPSolution(edges=[(0, 1)], x=np.array([1.0 - 1e-9]), objective=0).is_integral()
        assert not LPSolution(edges=[(0, 1)], x=np.array([0.4]), objective=0).is_integral()

    def test_support_thresholds(self):
        solution = LPSolution(
            edges=[(0, 1), (1, 2)], x=np.array([1e-9, 0.3]), objective=0.0
        )
        assert solution.support() == [(1, 2)]

    def test_degrees_match_edge_loop_bitwise(self):
        """The bincount degrees equal the edge-by-edge loops they replaced."""

        def loop_fractional(edges, x, n):
            deg = np.zeros(n, dtype=float)
            for (u, v), val in zip(edges, x):
                deg[u] += val
                deg[v] += val
            return deg

        def loop_support(edges, x, n, eps=SUPPORT_EPS):
            deg = np.zeros(n, dtype=np.int64)
            for (u, v), val in zip(edges, x):
                if val > eps:
                    deg[u] += 1
                    deg[v] += 1
            return deg

        rng = np.random.default_rng(3)
        for seed in range(5):
            net = random_graph(25, 0.6, seed=seed)
            edges = [e.key for e in net.edges()]
            x = rng.random(len(edges)) / 3.0
            x[rng.random(len(edges)) < 0.4] = 0.0
            x[rng.random(len(edges)) < 0.1] = 1.0
            solution = LPSolution(edges=edges, x=x, objective=0.0)
            fractional = solution.fractional_degrees(net.n)
            support = solution.support_degrees(net.n)
            assert fractional.dtype == np.float64
            assert support.dtype == np.int64
            assert fractional.tobytes() == loop_fractional(edges, x, net.n).tobytes()
            assert np.array_equal(support, loop_support(edges, x, net.n))


class TestLifetimeIntegration:
    def test_bounds_from_spec_make_feasible_trees(self):
        net = random_graph(12, 0.7, seed=77)
        lc = lifetime_with_children(net, 1, 3)  # generous: 3 children allowed
        spec = LifetimeSpec.uninflated(net, lc)
        bounds = {v: spec.lp_degree_bound(net, v) for v in net.nodes}
        solution = solve_mrlc_lp(net, bounds)
        degrees = solution.fractional_degrees(net.n)
        for v in net.nodes:
            assert degrees[v] <= bounds[v] + 1e-6


def _certificate_inputs():
    """(name, network, degree bounds) with both tight and slack lifetime rows:
    the Fig. 8/9 protocol on G(22, 0.3) and a two-child LC on G(25, 0.6)."""
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        net = random_graph(
            22, 0.3, initial_energy=rng.uniform(1500.0, 5000.0, size=22), seed=rng
        )
        spec = LifetimeSpec.uninflated(net, build_aaml_tree(net).lifetime)
        yield f"G(22,0.3)-{seed}", net, spec
    for seed in (0, 1):
        net = random_graph(25, 0.6, seed=seed)
        spec = LifetimeSpec.uninflated(net, lifetime_with_children(net, 0, 2))
        yield f"G(25,0.6)-{seed}", net, spec


CERTIFICATE_INPUTS = {
    name: (net, spec) for name, net, spec in _certificate_inputs()
}


@pytest.fixture(params=sorted(CERTIFICATE_INPUTS), scope="module")
def solved(request):
    """A solved program plus its tight and slack lifetime rows."""
    net, spec = CERTIFICATE_INPUTS[request.param]
    bounds = {v: spec.lp_degree_bound(net, v) for v in net.nodes}
    solution = solve_mrlc_lp(net, bounds)
    degree = solution.fractional_degrees(net.n)
    tight = [v for v in sorted(bounds) if bounds[v] - degree[v] <= TIGHT_SLACK]
    slack = [v for v in sorted(bounds) if v not in tight]
    assert tight and slack
    return net, bounds, solution, tight, slack


class TestReuseCertificate:
    """``LPSolution.still_optimal_for``: reuse only a provably unchanged optimum."""

    def test_solution_records_its_bounds(self, solved):
        _, bounds, solution, _, _ = solved
        assert solution.degree_bounds == bounds

    def test_slack_rows_dropped_or_loosened_match_a_fresh_solve(self, solved):
        net, bounds, solution, _, slack = solved
        new_bounds = dict(bounds)
        for v in slack[::2]:
            del new_bounds[v]
        for v in slack[1::2]:
            new_bounds[v] += 0.5
        edges = solution.support()
        assert len(edges) < len(solution.edges)  # x_e = 0 edges removed too
        reused = solution.still_optimal_for(edges, new_bounds)
        assert reused is not None
        assert reused.n_lp_solves == 0
        assert reused.degree_bounds == new_bounds
        fresh = MRLCLinearProgram(net, edges, new_bounds).solve()
        assert reused.edges == fresh.edges
        np.testing.assert_allclose(reused.x, fresh.x, rtol=0.0, atol=1e-9)
        assert reused.support() == fresh.support()

    def test_unchanged_program_is_reused(self, solved):
        _, bounds, solution, _, _ = solved
        reused = solution.still_optimal_for(solution.edges, bounds)
        assert reused is not None
        assert np.array_equal(reused.x, solution.x)

    def test_refused_when_a_tight_row_is_dropped(self, solved):
        _, bounds, solution, tight, _ = solved
        new_bounds = {v: b for v, b in bounds.items() if v != tight[0]}
        assert solution.still_optimal_for(solution.support(), new_bounds) is None

    def test_refused_when_a_tight_row_is_loosened(self, solved):
        _, bounds, solution, tight, _ = solved
        new_bounds = {**bounds, tight[0]: bounds[tight[0]] + 0.5}
        assert solution.still_optimal_for(solution.support(), new_bounds) is None

    def test_refused_when_a_support_edge_is_removed(self, solved):
        _, bounds, solution, _, _ = solved
        edges = solution.support()
        assert solution.still_optimal_for(edges[1:], bounds) is None

    def test_refused_when_x_violates_a_tightened_row(self, solved):
        net, bounds, solution, _, slack = solved
        degree = solution.fractional_degrees(net.n)
        new_bounds = {**bounds, slack[0]: degree[slack[0]] - 0.5}
        assert solution.still_optimal_for(solution.support(), new_bounds) is None

    def test_refused_when_an_edge_is_added(self, solved):
        _, bounds, solution, _, _ = solved
        edges = solution.support()
        reused = solution.still_optimal_for(edges, bounds)
        missing = next(e for e in solution.edges if e not in edges)
        assert reused.still_optimal_for(edges + [missing], bounds) is None


class TestHighsBinding:
    def test_bundled_highs_exposes_the_methods_used(self):
        """Fails loudly if a scipy upgrade moves or trims the binding."""
        for method in (
            "addCols",
            "addRows",
            "run",
            "getModelStatus",
            "getSolution",
            "getInfo",
            "setOptionValue",
            "modelStatusToString",
        ):
            assert callable(getattr(_Highs, method, None)), method
        for status in ("kOptimal", "kInfeasible", "kUnboundedOrInfeasible"):
            assert hasattr(HighsModelStatus, status), status
        info = _Highs().getInfo()
        assert hasattr(info, "simplex_iteration_count")
        assert hasattr(info, "objective_function_value")
        assert hasattr(_Highs().getSolution(), "col_value")


class TestDualTolerance:
    def test_tolerance_is_below_the_jitter_quantum(self):
        assert DUAL_FEASIBILITY_TOL < JITTER_QUANTUM
        assert DUAL_FEASIBILITY_TOL >= 1e-10  # the smallest value HiGHS accepts

    def test_jitter_gaps_are_multiples_of_the_quantum(self):
        pairs = [(u, v) for u in range(30) for v in range(u + 1, 30)]
        offsets = np.array([_perturbed_cost(0.0, u, v) for u, v in pairs])
        steps = (offsets - lp_module.PERTURBATION_SCALE) / JITTER_QUANTUM
        np.testing.assert_allclose(steps, np.round(steps), rtol=0.0, atol=1e-6)
        assert len(np.unique(np.round(steps))) > 1


def _oracle_inputs():
    """(name, network, lifetime spec): seeded G(22, 0.3) programs under the
    AAML lifetime and G(25, 0.6) programs under half the BFS lifetime."""
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        net = random_graph(
            22, 0.3, initial_energy=rng.uniform(1500.0, 5000.0, size=22), seed=rng
        )
        spec = LifetimeSpec.uninflated(net, build_aaml_tree(net).lifetime)
        yield f"G(22,0.3)-aaml-{seed}", net, spec
    for seed in (0, 1, 2):
        net = random_graph(25, 0.6, seed=seed)
        spec = LifetimeSpec.uninflated(net, 0.5 * build_tree("bfs", net).lifetime)
        yield f"G(25,0.6)-half-bfs-{seed}", net, spec


ORACLE_INPUTS = {name: (net, spec) for name, net, spec in _oracle_inputs()}


def _cold_solve(program, solution):
    """Cold dual simplex on the program's final row set through scipy."""
    edges = program.edges
    costs = [_perturbed_cost(program.network.cost(u, v), u, v) for u, v in edges]
    rows, rhs = [], []
    for v, bound in sorted(program.degree_bounds.items()):
        rows.append([float(v in e) for e in edges])
        rhs.append(bound)
    for subset in solution.cuts:
        rows.append([float(u in subset and v in subset) for u, v in edges])
        rhs.append(len(subset) - 1.0)
    result = cold_linprog(
        costs,
        A_ub=np.array(rows) if rows else None,
        b_ub=np.array(rhs) if rows else None,
        A_eq=np.ones((1, len(edges))),
        b_eq=[program.network.n - 1.0],
        bounds=(0.0, 1.0),
        method="highs-ds",
        options={"dual_feasibility_tolerance": DUAL_FEASIBILITY_TOL},
    )
    assert result.success, result.message
    return result


class TestWarmModelMatchesColdOracle:
    """One warm model per program ends where a cold solve of its rows does."""

    @pytest.fixture(params=sorted(ORACLE_INPUTS))
    def program_input(self, request):
        net, spec = ORACLE_INPUTS[request.param]
        bounds = {v: spec.lp_degree_bound(net, v) for v in net.nodes}
        return net, bounds

    def _check(self, program):
        solution = program.solve()
        oracle = _cold_solve(program, solution)
        np.testing.assert_allclose(solution.x, oracle.x, rtol=0.0, atol=1e-9)
        assert solution.objective == pytest.approx(oracle.fun, rel=0.0, abs=1e-9)
        cold_support = [e for e, val in zip(program.edges, oracle.x) if val > SUPPORT_EPS]
        assert solution.support() == cold_support
        return solution

    def test_without_initial_cuts(self, program_input):
        net, bounds = program_input
        edges = [e.key for e in net.edges()]
        solution = self._check(MRLCLinearProgram(net, edges, bounds))
        assert solution.cuts  # the loop appended rows after the first round

    def test_with_initial_cuts(self, program_input):
        net, bounds = program_input
        edges = [e.key for e in net.edges()]
        first = MRLCLinearProgram(net, edges, bounds).solve()
        carried = first.cuts[::2]
        assert carried
        # Half the cuts carried onto the support: rows exist before round one.
        program = MRLCLinearProgram(net, first.support(), bounds, initial_cuts=carried)
        solution = self._check(program)
        assert solution.cuts[: len(carried)] == carried

    def test_each_round_appends_only_new_cuts(self, program_input, monkeypatch):
        net, bounds = program_input
        appended = []
        real = lp_module.linprog

        def spy(model, *, A_ub, b_ub, basis=None):
            appended.append(A_ub.shape[0])
            assert A_ub.shape[0] == len(b_ub)
            return real(model, A_ub=A_ub, b_ub=b_ub, basis=basis)

        monkeypatch.setattr(lp_module, "linprog", spy)
        solution = MRLCLinearProgram(net, [e.key for e in net.edges()], bounds).solve()
        assert len(appended) == solution.n_lp_solves
        assert appended[0] == len(bounds)
        assert sum(appended[1:]) == len(solution.cuts)


class TestRowBlock:
    """``_row_block`` holds exactly what the ``csr_array`` it replaced held,
    so perfbench's ``lp.rows_per_call`` and ``lp.a_ub_bytes`` read the same."""

    @staticmethod
    def _assert_same_as_csr(columns, n_cols):
        block = _row_block(columns, n_cols)
        dense = np.zeros((len(columns), n_cols))
        for row, cols in enumerate(columns):
            dense[row, cols] = 1.0
        expected = csr_array(dense)
        assert block.shape == expected.shape
        assert block.nnz == expected.nnz
        for part in ("indptr", "indices", "data"):
            got, want = getattr(block, part), getattr(expected, part)
            assert got.dtype == want.dtype, part
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lengths", [(), (0,), (3, 0, 5), (1, 1, 1, 1), (12,)])
    def test_random_columns(self, lengths):
        rng = np.random.default_rng(len(lengths))
        columns = [np.sort(rng.choice(12, size=k, replace=False)) for k in lengths]
        self._assert_same_as_csr(columns, 12)

    def test_a_programs_lifetime_and_cut_rows(self):
        net, spec = ORACLE_INPUTS[sorted(ORACLE_INPUTS)[0]]
        bounds = {v: spec.lp_degree_bound(net, v) for v in net.nodes}
        program = MRLCLinearProgram(net, [e.key for e in net.edges()], bounds)
        solution = program.solve()
        assert solution.cuts
        columns = program._degree_columns() + program._cut_columns(solution.cuts)
        self._assert_same_as_csr(columns, len(program.edges))


#: (oracle input, lifetime row change): drop a slack row, drop a tight row
#: (a forced relaxation), or loosen a tight row.  The half-BFS programs have
#: no tight row.
RESTRICT_CASES = [(name, "drop-slack") for name in sorted(ORACLE_INPUTS)] + [
    (name, change)
    for name in sorted(ORACLE_INPUTS)
    if "aaml" in name
    for change in ("drop-tight", "loosen-tight")
]


class TestRestrictedModelMatchesFresh:
    """A solved program cut down in place by ``restrict`` re-solves warm to
    the optimum a fresh program over the same edges, rows and cuts finds."""

    @pytest.mark.parametrize("name, change", RESTRICT_CASES)
    def test_matches_fresh_and_cold(self, name, change, monkeypatch):
        net, spec = ORACLE_INPUTS[name]
        bounds = {v: spec.lp_degree_bound(net, v) for v in net.nodes}
        program = MRLCLinearProgram(net, [e.key for e in net.edges()], bounds)
        first = program.solve()
        degree = first.fractional_degrees(net.n)
        victim = next(
            v
            for v in sorted(bounds)
            if (bounds[v] - degree[v] <= TIGHT_SLACK) == change.endswith("tight")
        )
        if change == "loosen-tight":
            bounds[victim] += 0.5
        else:
            del bounds[victim]
        support = first.support()
        assert len(support) < len(first.edges)
        appended = []
        real = lp_module.linprog

        def spy(model, *, A_ub, b_ub, basis=None):
            appended.append((A_ub.shape[0], basis))
            return real(model, A_ub=A_ub, b_ub=b_ub, basis=basis)

        monkeypatch.setattr(lp_module, "linprog", spy)
        program.restrict(support, bounds)
        assert program.edges == support and program.degree_bounds == bounds
        restricted = program.solve()
        # Every row was already in the model, and it re-solves warm from
        # what is left of its basis, not from a new one.
        assert appended[0] == (0, None)

        fresh = MRLCLinearProgram(net, support, bounds, initial_cuts=first.cuts).solve()
        oracle = _cold_solve(program, restricted)
        for x, objective in ((fresh.x, fresh.objective), (oracle.x, oracle.fun)):
            np.testing.assert_allclose(restricted.x, x, rtol=0.0, atol=1e-9)
            assert restricted.objective == pytest.approx(objective, rel=0.0, abs=1e-9)
        assert restricted.support() == fresh.support()
        assert restricted.cuts[: len(first.cuts)] == first.cuts
        if change == "drop-slack":
            # x stays optimal: one warm call, no new cut, and fresh agrees.
            assert restricted.n_lp_solves == 1
            assert restricted.cuts == fresh.cuts == first.cuts

    def test_rejects_what_it_cannot_delete(self):
        net, _ = ORACLE_INPUTS[sorted(ORACLE_INPUTS)[0]]
        edges = [e.key for e in net.edges()]
        program = MRLCLinearProgram(net, edges[1:], {0: 2.0})
        with pytest.raises(ValueError, match="add edge"):
            program.restrict(edges, {0: 2.0})
        with pytest.raises(ValueError, match="order"):
            program.restrict(edges[2:0:-1], {0: 2.0})
        with pytest.raises(ValueError, match="new nodes"):
            program.restrict(edges[1:], {1: 2.0})


def _greedy_degrees(net):
    """Node degrees at the greedy point: the ``n - 1`` edges cheapest under
    the LP's perturbed costs."""
    ranked = sorted(
        (_perturbed_cost(net.cost(u, v), u, v), (u, v))
        for u, v in (e.key for e in net.edges())
    )
    return Counter(chain.from_iterable(e for _, e in ranked[: net.n - 1]))


def _greedy_start(program):
    """What ``_greedy_basis`` returns for *program*'s first solve."""
    rows, rhs = program._first_block()
    return lp_module._greedy_basis(program._costs, program.network.n, rows, rhs)


def _carried_cuts(program, cuts, carry):
    """The cuts a new program over *program*'s edges carries: none, every
    other one of *cuts*, or those the greedy point meets (which keep the
    greedy start)."""
    if carry == "none":
        return []
    if carry == "half":
        return cuts[::2]
    order = np.argsort(program._costs, kind="stable")[: program.network.n - 1]
    greedy = [program.edges[i] for i in order]
    ones = np.ones(len(greedy))
    return [s for s in cuts if subtour_violation(s, greedy, ones) <= 0]


def _outcome(make_program):
    """A new program's optimum, or the error type its solve raised."""
    try:
        return make_program().solve()
    except (InfeasibleLifetimeError, LPSolverError) as exc:
        return type(exc)


def _with_and_without_start(make_program):
    """The outcome of a new program's solve, then that of another new
    program solved with the greedy start switched off."""
    started = _outcome(make_program)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "_greedy_basis", lambda *args: None)
        cold = _outcome(make_program)
    return started, cold


def _assert_same_optimum(started, cold):
    if isinstance(cold, type):
        assert started is cold
        return
    np.testing.assert_allclose(started.x, cold.x, rtol=0.0, atol=1e-9)
    assert started.support() == cold.support()
    assert started.objective == pytest.approx(cold.objective, rel=0.0, abs=1e-9)
    assert started.cuts == cold.cuts


class TestGreedyStart:
    """A new model's first round starts from the greedy crash basis only
    when that basis is optimal, and the cut loop ends where it ends without
    it: same ``x``, support, objective and cut list."""

    @pytest.mark.parametrize("carry", ["none", "half", "met"])
    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    def test_same_optimum_with_and_without_start(self, name, carry):
        net, spec = ORACLE_INPUTS[name]
        bounds = {v: spec.lp_degree_bound(net, v) for v in net.nodes}
        edges = [e.key for e in net.edges()]
        program = MRLCLinearProgram(net, edges, bounds)
        carried = _carried_cuts(program, program.solve().cuts, carry)
        assert carried or carry == "none"

        def make_program():
            return MRLCLinearProgram(net, edges, bounds, initial_cuts=carried)

        if "half-bfs" in name and carry != "half":
            assert _greedy_start(make_program()) is not None
        _assert_same_optimum(*_with_and_without_start(make_program))

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 14),
        children=st.sampled_from([None, 1, 2, 3]),
        carry=st.sampled_from(["none", "half", "met"]),
        tie=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_optimum_on_random_programs(self, seed, n, children, carry, tie):
        net = random_graph(n, 0.6, seed=seed)
        edges = [e.key for e in net.edges()]
        bounds = {}
        if children is not None:
            spec = LifetimeSpec.uninflated(net, lifetime_with_children(net, 0, children))
            bounds = {v: spec.lp_degree_bound(net, v) for v in net.nodes}
        first = MRLCLinearProgram(net, edges, {})
        carried = _carried_cuts(first, first.solve().cuts, carry)

        def make_program():
            program = MRLCLinearProgram(net, edges, bounds, initial_cuts=carried)
            if tie and len(edges) >= n:
                # The n-th cheapest cost ties the (n - 1)-th.
                order = np.argsort(program._costs, kind="stable")
                program._costs[order[n - 1]] = program._costs[order[n - 2]]
                assert _greedy_start(program) is None
            return program

        _assert_same_optimum(*_with_and_without_start(make_program))

    @pytest.mark.parametrize(
        "name", [name for name in sorted(ORACLE_INPUTS) if "half-bfs" in name]
    )
    def test_loose_first_round_takes_no_iterations(self, name, monkeypatch):
        net, spec = ORACLE_INPUTS[name]
        bounds = {v: spec.lp_degree_bound(net, v) for v in net.nodes}
        rounds = []
        real = lp_module.linprog

        def spy(model, *, A_ub, b_ub, basis=None):
            result = real(model, A_ub=A_ub, b_ub=b_ub, basis=basis)
            rounds.append((basis, result.simplex_iterations))
            return result

        monkeypatch.setattr(lp_module, "linprog", spy)
        solution = MRLCLinearProgram(net, [e.key for e in net.edges()], bounds).solve()
        (start, first_iterations), *later = rounds
        assert start is not None and first_iterations == 0
        assert all(basis is None for basis, _ in later)
        assert len(rounds) == solution.n_lp_solves > 1  # the cut loop went on

    def test_start_is_the_greedy_basis(self):
        net, spec = ORACLE_INPUTS[sorted(ORACLE_INPUTS)[-1]]
        bounds = {v: spec.lp_degree_bound(net, v) for v in net.nodes}
        program = MRLCLinearProgram(net, [e.key for e in net.edges()], bounds)
        basis = _greedy_start(program)
        statuses = Counter(basis.col_status)
        assert statuses[HighsBasisStatus.kUpper] == net.n - 2
        assert statuses[HighsBasisStatus.kBasic] == 1
        assert statuses[HighsBasisStatus.kLower] == len(program.edges) - (net.n - 1)
        cheapest = np.argsort(program._costs)[: net.n - 1]
        assert all(basis.col_status[i] != HighsBasisStatus.kLower for i in cheapest)
        assert basis.row_status == [HighsBasisStatus.kLower] + [
            HighsBasisStatus.kBasic
        ] * len(bounds)

    def test_no_start_for_an_overloaded_greedy_point(self):
        for name in sorted(ORACLE_INPUTS):
            if "aaml" in name:  # LC binds: the greedy point overloads a node
                net, spec = ORACLE_INPUTS[name]
                bounds = {v: spec.lp_degree_bound(net, v) for v in net.nodes}
                edges = [e.key for e in net.edges()]
                assert _greedy_start(MRLCLinearProgram(net, edges, bounds)) is None
        net = random_graph(12, 0.6, seed=4)
        edges = [e.key for e in net.edges()]
        assert _greedy_start(MRLCLinearProgram(net, edges, {})) is not None
        hub, degree = _greedy_degrees(net).most_common(1)[0]
        for bound, started in ((degree, True), (degree - 1.0, False)):
            program = MRLCLinearProgram(net, edges, {hub: bound})
            assert (_greedy_start(program) is not None) == started

    def test_no_start_for_a_tie_at_the_boundary(self):
        net = random_graph(12, 0.6, seed=4)
        program = MRLCLinearProgram(net, [e.key for e in net.edges()], {})
        order = np.argsort(program._costs, kind="stable")
        assert _greedy_start(program) is not None
        # A tie among the n - 1 cheapest leaves the optimum unique ...
        program._costs[order[net.n - 3]] = program._costs[order[net.n - 2]]
        assert _greedy_start(program) is not None
        # ... one across the boundary does not.
        program._costs[order[net.n - 1]] = program._costs[order[net.n - 2]]
        assert _greedy_start(program) is None


class TestSolverStatuses:
    def test_infeasible_degree_bounds_raise(self):
        net = random_graph(12, 0.6, seed=4)
        # Degree <= 1 everywhere cannot span 12 nodes.
        with pytest.raises(InfeasibleLifetimeError):
            solve_mrlc_lp(net, {v: 1.0 for v in net.nodes})

    @pytest.mark.parametrize("status", ["kInfeasible", "kUnboundedOrInfeasible"])
    def test_infeasible_statuses_raise_lifetime_error(self, status, monkeypatch):
        # x is boxed in [0, 1], so "unbounded or infeasible" means infeasible.
        reported = getattr(HighsModelStatus, status)
        monkeypatch.setattr(
            lp_module,
            "linprog",
            lambda model, *, A_ub, b_ub, basis=None: HighsRound(
                reported, None, math.nan, 0
            ),
        )
        with pytest.raises(InfeasibleLifetimeError):
            solve_mrlc_lp(random_graph(8, 0.6, seed=1), {})

    def test_non_optimal_status_raises_solver_error(self, monkeypatch):
        real = lp_module._new_model

        def capped(costs, n):
            model = real(costs, n)
            model.setOptionValue("presolve", "off")
            model.setOptionValue("simplex_iteration_limit", 0)
            return model

        monkeypatch.setattr(lp_module, "_new_model", capped)
        net = random_graph(12, 0.6, seed=4)
        # A degree bound the greedy point overloads, so the first solve gets
        # no optimal starting basis and hits the iteration limit.
        hub, degree = _greedy_degrees(net).most_common(1)[0]
        bounds = {hub: degree - 1.0}
        program = MRLCLinearProgram(net, [e.key for e in net.edges()], bounds)
        assert _greedy_start(program) is None
        with instrument() as session:
            with pytest.raises(LPSolverError, match="HiGHS failed"):
                program.solve()
        assert session.registry.counter_value("lp.solves") == 1

    def test_cut_round_overrun_records_its_solves(self, monkeypatch):
        monkeypatch.setattr(lp_module, "MAX_CUT_ROUNDS", 1)
        net, spec = ORACLE_INPUTS[sorted(ORACLE_INPUTS)[0]]
        bounds = {v: spec.lp_degree_bound(net, v) for v in net.nodes}
        with instrument() as session:
            with pytest.raises(LPSolverError, match="did not converge"):
                solve_mrlc_lp(net, bounds)  # round one always needs cuts
        assert session.registry.counter_value("lp.solves") == 1
        assert session.registry.counter_value("lp.simplex_iterations") > 0
