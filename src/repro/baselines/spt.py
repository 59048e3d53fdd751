"""Shortest-path tree over link costs (an ETX/CTP-style comparison point).

Not one of the paper's two headline baselines, but the natural third point of
comparison: deployed collection stacks (CTP [7], ETX routing [10]) build
shortest-path trees over a link-quality metric.  An SPT maximizes each
*individual* node's path reliability, whereas MST/IRA maximize the *product
over the whole tree* — on aggregation workloads the SPT is therefore
generally worse than MST in total cost but better in depth.  The extended
benchmarks use it to show where the paper's objective diverges from
path-metric routing.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.core.errors import DisconnectedNetworkError
from repro.core.tree import AggregationTree
from repro.network.model import Network

__all__ = ["build_spt_tree"]


def build_spt_tree(
    network: Network, *, hop_metric: bool = False
) -> AggregationTree:
    """Dijkstra shortest-path tree from the sink.

    Args:
        network: Connected WSN instance.
        hop_metric: Use hop count instead of ``c_e = -log q_e`` as the path
            metric (minimum-depth tree).

    Raises:
        DisconnectedNetworkError: Some node cannot reach the sink.
    """
    n = network.n
    dist = [float("inf")] * n
    dist[network.sink] = 0.0
    parents = {}
    heap: List[Tuple[float, int]] = [(0.0, network.sink)]
    done = [False] * n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for edge in network.incident_edges(u):
            v = edge.other(u)
            if done[v]:
                continue
            weight = 1.0 if hop_metric else edge.cost
            nd = d + weight
            if nd < dist[v]:
                dist[v] = nd
                parents[v] = u
                heapq.heappush(heap, (nd, v))

    if not all(done):
        raise DisconnectedNetworkError(
            "network is disconnected; no spanning tree exists"
        )
    return AggregationTree(network, parents)
