"""Delay-bounded collection trees (depth-capped cost minimisation).

The paper's related work (Shen et al., IWCMC 2012) builds gathering trees
under a delay constraint; under the TDMA schedule of
:mod:`repro.simulation.events` the per-round latency is exactly the tree
depth, so "delay bound" = "hop bound".  Minimum-cost spanning trees of
depth ≤ D are NP-hard (hop-constrained MST), and — a subtlety worth
recording — the natural "union of per-node optimal ≤D-hop paths" does
**not** yield a depth-≤D tree: a node's recorded predecessor may itself
prefer a cheaper-but-longer path, so the union tree's depth is unbounded.

The implementation here is therefore constructive:

1. **Layered seed** — BFS hop levels (feasibility check: the BFS
   eccentricity must be ≤ D), each node adopting the cheapest parent among
   its strictly-shallower neighbours.  Depth equals the minimum possible.
2. **Depth-aware cost descent** — greedy re-parent moves that strictly
   reduce tree cost and keep every node of the moved subtree within the
   bound.  With a loose bound this walks toward the SPT; with a tight one
   it only reshuffles within the latency budget.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import DisconnectedNetworkError
from repro.core.tree import AggregationTree
from repro.engine.treestate import TreeState
from repro.network.model import Network

__all__ = ["build_delay_bounded_tree"]

#: Safety cap on local-search moves (each strictly decreases tree cost).
MAX_MOVES = 100_000


def _layered_seed(network: Network, max_depth: int) -> AggregationTree:
    """Minimum-hop tree with cheapest-parent selection per BFS layer."""
    n = network.n
    hop = [-1] * n
    hop[network.sink] = 0
    frontier = [network.sink]
    order: List[int] = [network.sink]
    while frontier:
        nxt: List[int] = []
        for u in frontier:
            for v in network.neighbors(u):
                if hop[v] < 0:
                    hop[v] = hop[u] + 1
                    nxt.append(v)
                    order.append(v)
        frontier = nxt
    if any(h < 0 for h in hop):
        raise DisconnectedNetworkError(
            "network is disconnected; no spanning tree exists"
        )
    eccentricity = max(hop)
    if eccentricity > max_depth:
        offenders = [v for v in range(n) if hop[v] > max_depth]
        raise ValueError(
            f"depth bound {max_depth} infeasible: nodes {offenders} are "
            f"{eccentricity} hops from the sink even on shortest paths"
        )
    # Cheapest parent among strictly shallower neighbours, accumulated
    # along the BFS order so parents' path costs are already final.
    path_cost = [0.0] * n
    parents: Dict[int, int] = {}
    for v in order:
        if v == network.sink:
            continue
        best: Optional[Tuple[float, int]] = None
        for p in network.neighbors(v):
            if hop[p] == hop[v] - 1:
                candidate = path_cost[p] + network.cost(p, v)
                if best is None or candidate < best[0]:
                    best = (candidate, p)
        assert best is not None  # BFS guarantees a shallower neighbour
        path_cost[v] = best[0]
        parents[v] = best[1]
    return AggregationTree(network, parents)


def build_delay_bounded_tree(
    network: Network, max_depth: int, *, max_moves: int = MAX_MOVES
) -> AggregationTree:
    """Heuristic cheapest tree with every node within *max_depth* hops.

    See the module docstring for the construction.  The returned tree's
    depth is guaranteed ≤ *max_depth*; its cost is locally optimal under
    single re-parent moves that respect the bound.

    Raises:
        DisconnectedNetworkError: Some node cannot reach the sink at all.
        ValueError: *max_depth* < 1, or smaller than the graph's BFS
            eccentricity (no tree can meet the bound).
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    n = network.n
    state = TreeState(_layered_seed(network, max_depth))
    sink = state.sink

    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        depths = state.depths()
        # Deepest descendant of every node, by relaxing depths upward in
        # deepest-first order (each node folds into its parent exactly once).
        subtree_max = list(depths)
        for v in sorted(range(n), key=depths.__getitem__, reverse=True):
            if v == sink:
                continue
            p = state.parent(v)
            assert p is not None
            if subtree_max[v] > subtree_max[p]:
                subtree_max[p] = subtree_max[v]
        # The depth gate is "depths[cand] + 1 + relative depth of child's
        # subtree <= max_depth": the move must not push the subtree too deep.
        depths_arr = np.asarray(depths, dtype=np.int64)
        rel_arr = np.asarray(subtree_max, dtype=np.int64) - depths_arr

        def _depth_ok(child: np.ndarray, cand: np.ndarray) -> np.ndarray:
            return depths_arr[cand] + 1 + rel_arr[child] <= max_depth

        best = state.best_cost_reparent(pair_ok=_depth_ok, threshold=-1e-15)
        if best is not None:
            state.reparent(best[1], best[2], check=False)
            moves += 1
            improved = True

    tree = state.freeze()
    final_depth = max(tree.depth(v) for v in range(n))
    assert final_depth <= max_depth
    return tree
