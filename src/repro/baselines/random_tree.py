"""Uniform random spanning trees (Wilson's algorithm).

Used as an "arbitrary tree" starting point for AAML, as a null model in the
extended benchmarks (how much does *any* optimization buy over a random
tree?), and as a generator of unbiased test cases for the Prüfer codec's
property tests.
"""

from __future__ import annotations

from typing import Dict

from repro.core.errors import DisconnectedNetworkError
from repro.core.tree import AggregationTree
from repro.network.model import Network
from repro.utils.rng import SeedLike, as_rng

__all__ = ["build_random_tree"]


def build_random_tree(network: Network, *, seed: SeedLike = None) -> AggregationTree:
    """Sample a spanning tree uniformly at random (Wilson's algorithm).

    Performs loop-erased random walks from each unvisited node to the
    growing tree (rooted at the sink).  The walk is over network links only,
    so the result is always a valid aggregation tree of *network*.

    Raises:
        DisconnectedNetworkError: Detected when a walk cannot reach the tree
            (checked up front for a clear error).
    """
    if not network.is_connected():
        raise DisconnectedNetworkError(
            "network is disconnected; no spanning tree exists"
        )
    n = network.n
    rng = as_rng(seed)
    in_tree = [False] * n
    in_tree[network.sink] = True
    next_hop: Dict[int, int] = {}

    for start in range(n):
        if in_tree[start]:
            continue
        # Loop-erased random walk: overwrite next_hop along the walk; the
        # final pointers trace a simple path because later visits overwrite
        # earlier loops.
        u = start
        while not in_tree[u]:
            nbrs = network.neighbors(u)
            u_next = int(nbrs[rng.integers(0, len(nbrs))])
            next_hop[u] = u_next
            u = u_next
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = next_hop[u]

    parents = {v: next_hop[v] for v in range(n) if v != network.sink}
    return AggregationTree(network, parents)
