"""Minimum-energy aggregation tree (Kuo, Lin & Tsai, arXiv:1402.6457).

Kuo et al. study the construction of data aggregation trees with minimum
total energy cost, prove the relay-selection version NP-complete, and give
shortest-path-tree-based approximation algorithms: every source reaches the
sink along a minimum-energy path, and aggregation makes path sharing free,
so the union of those paths is the approximate minimum-energy tree.

Mapping their model onto this library's (every node is a source, links are
lossy): the energy to move one aggregated packet across link ``e`` with
ARQ retransmissions is ``(Tx + Rx) / q_e`` joules in expectation — one
transmit plus one receive per attempt, ``1/q_e`` expected attempts.  The
builder therefore runs Dijkstra from the sink under that per-link energy
weight and orients the resulting shortest-path forest into a tree.  Unlike
the cost SPT (:mod:`repro.baselines.spt`, metric ``-log q_e``), path sums
of ``(Tx + Rx) / q_e`` rank paths differently — the two trees genuinely
disagree on lossy topologies — and unlike the MST the per-*path* optimum is
what Kuo et al.'s approximation guarantees.

Parent choice among equal-cost predecessors is deterministic (cheapest
final hop, then smallest node id), so the tree is a pure function of the
network.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional

from repro.core.errors import DisconnectedNetworkError
from repro.core.tree import AggregationTree
from repro.network.model import Network

__all__ = ["KuoEnergyResult", "build_kuo_energy_tree", "link_energy_j"]


def link_energy_j(network: Network, u: int, v: int) -> float:
    """Expected radio energy (J) to deliver one packet across ``{u, v}``.

    One transmission costs ``Tx`` at the sender plus ``Rx`` at the
    receiver; with per-attempt success probability ``q_e`` the expected
    attempt count under ARQ is ``1 / q_e``.
    """
    model = network.energy_model
    return (model.tx + model.rx) / network.prr(u, v)


@dataclass(frozen=True)
class KuoEnergyResult:
    """Outcome of the minimum-energy-path tree construction.

    Attributes:
        tree: The oriented shortest-energy-path tree.
        tree_energy_j: Expected per-round radio energy summed over the tree
            edges (the objective Kuo et al. approximate, in joules).
        max_path_energy_j: The most expensive node-to-sink path in the
            tree, in joules (the per-path guarantee).
    """

    tree: AggregationTree
    tree_energy_j: float
    max_path_energy_j: float


def build_kuo_energy_tree(network: Network) -> KuoEnergyResult:
    """Shortest-energy-path tree from the sink (Kuo–Lin–Tsai approximation).

    Raises:
        DisconnectedNetworkError: Some node cannot reach the sink.
    """
    n = network.n
    if n == 1:  # the general loop would report an int 0 energy, not 0.0
        tree = AggregationTree(network, {})
        return KuoEnergyResult(tree, 0.0, 0.0)

    dist: List[float] = [math.inf] * n
    parent: List[Optional[int]] = [None] * n
    dist[network.sink] = 0.0
    # Heap entries are (distance, node); the node id breaks exact float
    # ties, which keeps the settle order deterministic.
    heap: List[tuple] = [(0.0, network.sink)]
    settled = [False] * n
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        for v in network.neighbors(u):
            if settled[v]:
                continue
            nd = d + link_energy_j(network, u, v)
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))

    unreachable = [v for v in range(n) if not settled[v]]
    if unreachable:
        raise DisconnectedNetworkError(
            f"{len(unreachable)} node(s) cannot reach the sink "
            f"(e.g. node {unreachable[0]})"
        )

    # Orient the forest: each node attaches to the optimal predecessor with
    # the cheapest final hop (ties -> smallest id).  Optimality is checked
    # with a tolerance-free comparison against the settled distances, which
    # is exact because the candidate sum is the very float Dijkstra stored.
    for v in range(n):
        if v == network.sink:
            continue
        best: Optional[tuple] = None
        for u in network.neighbors(v):
            w = link_energy_j(network, u, v)
            if dist[u] + w <= dist[v] and (
                best is None or (w, u) < best[:2]
            ):
                best = (w, u)
        if best is None:  # pragma: no cover - settled nodes always have one
            raise DisconnectedNetworkError(f"node {v} has no optimal predecessor")
        parent[v] = best[1]

    tree = AggregationTree(
        network, {v: int(parent[v]) for v in range(n) if v != network.sink}
    )
    tree_energy = sum(link_energy_j(network, u, v) for u, v in tree.edges())
    max_path = max(dist[v] for v in range(n))
    return KuoEnergyResult(
        tree=tree, tree_energy_j=tree_energy, max_path_energy_j=max_path
    )
