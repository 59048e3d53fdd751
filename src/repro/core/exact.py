"""Exact MRLC solver (branch-and-bound MILP with lazy subtour cuts).

The paper proves MRLC NP-complete and evaluates IRA only against the MST
lower bound ("there is no efficient algorithm returning the optimal
solution").  For evaluation-sized instances (n ≤ ~20) the optimum *is*
computable: this module solves the integer program

    min  sum c_e x_e
    s.t. x(E(V)) = n - 1
         x(delta(v)) <= floor(degree bound under LC)     for all v
         x(E(S)) <= |S| - 1                              (lazy)
         x_e in {0, 1}

with scipy's HiGHS branch-and-bound, generating subtour constraints lazily:
an integral solution with the right edge count either is a spanning tree or
splits into connected components, each of which yields a violated subtour
constraint directly (no min-cut needed at integral points).

``scipy.optimize`` loads on the first solve, not at import (:func:`milp`):
it costs ~49 MB and ~0.5 s that ``import repro`` would otherwise pay.

This gives the reproduction something the paper lacks: a measured
**optimality gap** for IRA (see ``benchmarks/test_bench_optimality.py``).

Note the degree bounds here use ``floor`` of the fractional bound — for
integral solutions that is exact, so the optimum equals the true MRLC
optimum for the given ``LC``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.errors import (
    DisconnectedNetworkError,
    InfeasibleLifetimeError,
    LPSolverError,
)
from repro.core.lifetime import LifetimeSpec
from repro.core.tree import AggregationTree
from repro.network.model import Network
from repro.utils.unionfind import UnionFind

__all__ = ["ExactResult", "solve_mrlc_exact"]

#: One linear constraint block ``lb <= A x <= ub`` as ``milp`` takes it.
Constraint = Tuple[np.ndarray, float, Any]

#: Lazy-constraint rounds before giving up; each round removes at least one
#: component structure, so this is never reached on sane instances.
MAX_MILP_ROUNDS = 500


def milp(**kwargs: Any) -> Any:
    """``scipy.optimize.milp``, imported on the first call.

    A module-level name, so tests can replace it; constraints travel as
    ``(A, lb, ub)`` triples and bounds as a pair, which ``milp`` accepts
    in place of its ``LinearConstraint`` and ``Bounds`` objects.
    """
    from scipy.optimize import milp as scipy_milp

    return scipy_milp(**kwargs)


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the exact solver.

    Attributes:
        tree: An optimal MRLC aggregation tree.
        cost: Its cost (natural-log units) — the true optimum for ``lc``.
        milp_solves: Branch-and-bound invocations in the lazy-cut loop.
        cuts: Subtour constraints that had to be generated.
    """

    tree: AggregationTree
    cost: float
    milp_solves: int
    cuts: Tuple[FrozenSet[int], ...]


def _integral_subtours(
    n: int, chosen: Sequence[Tuple[int, int]]
) -> List[FrozenSet[int]]:
    """Violated subtour sets of an integral selection with ``n - 1`` edges.

    The selection is a spanning tree iff it is acyclic; otherwise every
    connected component that contains a cycle (edges >= nodes) violates its
    own subtour constraint.
    """
    uf = UnionFind(range(n))
    for u, v in chosen:
        uf.union(u, v)
    components: Dict[int, Set[int]] = {}
    for v in range(n):
        components.setdefault(uf.find(v), set()).add(v)
    edge_count: Dict[int, int] = {}
    for u, v in chosen:
        edge_count[uf.find(u)] = edge_count.get(uf.find(u), 0) + 1
    violated = []
    for root, members in components.items():
        if edge_count.get(root, 0) >= len(members) and len(members) >= 2:
            violated.append(frozenset(members))
    return violated


def solve_mrlc_exact(
    network: Network,
    lc: Optional[float] = None,
    *,
    constrain_sink: bool = True,
) -> ExactResult:
    """Solve MRLC to optimality on *network* (exponential time; keep n small).

    Args:
        network: Connected WSN instance.
        lc: Lifetime bound; ``None`` solves the unconstrained problem
            (whose optimum is the MST — useful for validation).
        constrain_sink: Whether the sink's lifetime is bounded too
            (matching :class:`~repro.core.ira.IterativeRelaxation`).

    Raises:
        DisconnectedNetworkError: No spanning tree exists.
        InfeasibleLifetimeError: No tree meets ``lc``.
        LPSolverError: HiGHS did not prove a MILP optimal (a time or
            iteration limit with an incumbent included) or the lazy loop
            exceeded its cap.
    """
    if not network.is_connected():
        raise DisconnectedNetworkError(
            "network is disconnected; no spanning tree exists"
        )
    n = network.n
    if n == 1:  # scipy.optimize.milp rejects an empty objective
        return ExactResult(
            tree=AggregationTree(network, {}), cost=0.0, milp_solves=0, cuts=()
        )

    edges = [e.key for e in network.edges()]
    costs = np.array([network.cost(u, v) for u, v in edges])
    n_vars = len(edges)

    constraints: List[Constraint] = []
    # Spanning equality.
    constraints.append((np.ones((1, n_vars)), n - 1.0, n - 1.0))
    # Integral degree bounds from the lifetime requirement.
    if lc is not None:
        spec = LifetimeSpec.uninflated(network, lc)
        rows = []
        ubs = []
        for v in network.nodes:
            if v == network.sink and not constrain_sink:
                continue
            bound = spec.tree_feasible_degree(network, v)
            row = np.zeros(n_vars)
            for i, (a, b) in enumerate(edges):
                if a == v or b == v:
                    row[i] = 1.0
            rows.append(row)
            ubs.append(float(bound))
        if rows:
            constraints.append((np.vstack(rows), -np.inf, np.array(ubs)))

    cuts: List[FrozenSet[int]] = []

    milp_solves = 0
    for _ in range(MAX_MILP_ROUNDS):
        cut_constraints = list(constraints)
        for subset in cuts:
            row = np.zeros(n_vars)
            for i, (a, b) in enumerate(edges):
                if a in subset and b in subset:
                    row[i] = 1.0
            cut_constraints.append((row.reshape(1, -1), -np.inf, len(subset) - 1.0))
        result = milp(
            c=costs,
            constraints=cut_constraints,
            bounds=(0.0, 1.0),
            integrality=np.ones(n_vars),
        )
        milp_solves += 1
        if result.status == 2:  # infeasible
            raise InfeasibleLifetimeError(
                f"no data aggregation tree meets LC={lc}"
            )
        if result.status != 0:
            # Only a proven optimum may be returned as one: a limit's
            # incumbent ``x`` is feasible but not optimal.
            raise LPSolverError(
                f"HiGHS MILP status {result.status}: {result.message}"
            )

        chosen = [edges[i] for i in range(n_vars) if result.x[i] > 0.5]
        violated = _integral_subtours(n, chosen)
        if not violated:
            tree = AggregationTree.from_edges(network, chosen)
            return ExactResult(
                tree=tree,
                cost=float(costs @ np.round(result.x)),
                milp_solves=milp_solves,
                cuts=tuple(cuts),
            )
        cuts.extend(violated)

    raise LPSolverError(
        f"lazy subtour loop exceeded {MAX_MILP_ROUNDS} MILP rounds"
    )
