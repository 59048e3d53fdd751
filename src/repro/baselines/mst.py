"""Prim's minimum spanning tree — the paper's reliability lower bound.

Section VII: "The optimal solution of MRLC should be at least the cost of
MST. We use MST as the lower bound of optimal solutions to our problem."
Prim's algorithm is run on the link costs ``c_e = -log q_e``, so the result
is simultaneously the maximum-reliability *unconstrained* aggregation tree.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.core.errors import DisconnectedNetworkError
from repro.core.tree import AggregationTree
from repro.network.model import Network

__all__ = ["build_mst_tree", "mst_cost"]


def build_mst_tree(network: Network) -> AggregationTree:
    """Minimum-cost spanning tree via Prim's algorithm, rooted at the sink.

    "It initializes a tree with the root node. Then it grows the tree by one
    edge: of the edges that connect the tree to vertices not yet in the tree,
    find the min-cost edge and transfer it to the tree" (Section VII).

    Ties are broken deterministically by (cost, child id, parent id).

    Raises:
        DisconnectedNetworkError: The network has no spanning tree.
    """
    start = network.sink
    n = network.n
    in_tree = [False] * n
    in_tree[start] = True
    parents = {}
    heap: List[Tuple[float, int, int]] = []

    def push_edges(u: int) -> None:
        for edge in network.incident_edges(u):
            v = edge.other(u)
            if not in_tree[v]:
                heapq.heappush(heap, (edge.cost, v, u))

    push_edges(start)
    added = 1
    while heap and added < n:
        cost, v, u = heapq.heappop(heap)
        if in_tree[v]:
            continue
        in_tree[v] = True
        parents[v] = u
        added += 1
        push_edges(v)

    if added != n:
        raise DisconnectedNetworkError(
            f"only {added} of {n} nodes reachable; no spanning tree exists"
        )
    return AggregationTree(network, parents)


def mst_cost(network: Network) -> float:
    """Cost of the minimum spanning tree (natural-log units)."""
    return build_mst_tree(network).cost()
