"""Maximum-lifetime convergecast tree (John, Kasbekar & Baghini, arXiv:1910.09793).

Convergecast is collection *without* aggregation: each round every node
forwards every packet of its subtree to its parent.  A node ``v`` with
subtree size ``s_v`` (itself plus its descendants) therefore transmits
``s_v`` packets and receives ``s_v - 1``, so its per-round energy is
``Tx * s_v + Rx * (s_v - 1)`` — a load model driven by *subtree size*,
not child count like the aggregation model of Eq. 1.  That difference is
the whole point of racing this builder against the aggregation-aware
ones: the convergecast optimum hates deep heavy spines that the
aggregation model tolerates.

Following John et al., the sink is the mains-powered base station and is
excluded from the objective — necessarily so here, because the sink's
convergecast load (all ``n - 1`` packets) is the same for every spanning
tree, which would make a sink-inclusive minimum a constant.

The builder maximizes the minimum convergecast lifetime with a
lexicographic local search over reparent moves (the same potential
argument AAML uses, applied to the convergecast lifetime vector): each
accepted move strictly increases the ascending per-node lifetime vector,
which over the finite tree space guarantees termination.  Starting point
is the BFS tree; candidate evaluation updates subtree sizes only along
the two affected ancestor chains, so a move scan is cheap.

The returned :class:`AggregationTree` is judged by the library's usual
aggregation metrics like every other builder — the *construction
objective* is convergecast lifetime, reported in the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.local_search import bfs_tree
from repro.core.tree import AggregationTree
from repro.network.model import Network

__all__ = [
    "ConvergecastResult",
    "build_convergecast_tree",
    "convergecast_lifetime",
    "convergecast_node_lifetime",
]

#: Safety cap on accepted moves; the lexicographic potential terminates the
#: search long before this on any realistic instance.
MAX_MOVES = 100_000


def convergecast_node_lifetime(
    network: Network, node: int, subtree_size: int
) -> float:
    """Rounds until *node* dies forwarding ``subtree_size`` packets per round."""
    model = network.energy_model
    per_round = model.tx * subtree_size + model.rx * (subtree_size - 1)
    return network.initial_energy(node) / per_round


def convergecast_lifetime(tree: AggregationTree) -> float:
    """Minimum convergecast lifetime over the sensor (non-sink) nodes.

    The sink is excluded: it is the base station, and its load is
    tree-invariant anyway.  A single-node network has no sensors and
    returns ``inf``.
    """
    if tree.n == 1:
        return math.inf
    sizes = _subtree_sizes(
        [tree.parent(v) if v != tree.sink else -1 for v in range(tree.n)],
        tree.sink,
    )
    return min(
        convergecast_node_lifetime(tree.network, v, sizes[v])
        for v in range(tree.n)
        if v != tree.sink
    )


@dataclass(frozen=True)
class ConvergecastResult:
    """Outcome of the convergecast lifetime search.

    Attributes:
        tree: The final tree.
        lifetime: Its minimum convergecast lifetime in rounds (the search
            objective; *not* the aggregation lifetime of Eq. 1).
        moves: Accepted local-search moves.
    """

    tree: AggregationTree
    lifetime: float
    moves: int


def _subtree_sizes(parent: List[int], sink: int) -> List[int]:
    """Subtree size per node for a parent-array tree (iterative, no recursion)."""
    n = len(parent)
    sizes = [1] * n
    order = sorted(range(n), key=lambda v: -_depth(parent, sink, v))
    for v in order:
        if v != sink:
            sizes[parent[v]] += sizes[v]
    return sizes


def _depth(parent: List[int], sink: int, v: int) -> int:
    d = 0
    while v != sink:
        v = parent[v]
        d += 1
    return d


def build_convergecast_tree(
    network: Network,
    *,
    initial_tree: Optional[AggregationTree] = None,
    max_moves: int = MAX_MOVES,
) -> ConvergecastResult:
    """Lexicographic max-min convergecast-lifetime local search.

    Args:
        network: Connected WSN instance.
        initial_tree: Starting tree; defaults to the BFS tree.
        max_moves: Safety cap on accepted moves.

    Raises:
        DisconnectedNetworkError: No spanning tree exists (via the BFS
            start tree).
        ValueError: ``initial_tree`` spans a different network.
    """
    start = initial_tree if initial_tree is not None else bfs_tree(network)
    if start.network is not network:
        raise ValueError("initial_tree must be built over the same network")
    n = network.n
    sink = network.sink
    parent: List[int] = [
        -1 if v == sink else int(start.parent(v))  # type: ignore[arg-type]
        for v in range(n)
    ]
    sizes = _subtree_sizes(parent, sink)
    # life[sink] is pinned +inf so the sink never participates in the
    # objective vector (its load is tree-invariant; see module docstring).
    life = [
        math.inf
        if v == sink
        else convergecast_node_lifetime(network, v, sizes[v])
        for v in range(n)
    ]

    def in_subtree(candidate: int, root: int) -> bool:
        v = candidate
        while v != sink:
            if v == root:
                return True
            v = parent[v]
        return v == root

    def chain_deltas(child: int, new_parent: int) -> Dict[int, int]:
        """Net subtree-size change per node if *child* moves under *new_parent*."""
        moved = sizes[child]
        deltas: Dict[int, int] = {}
        v = parent[child]
        while v != -1:
            deltas[v] = deltas.get(v, 0) - moved
            v = parent[v]
        v = new_parent
        while v != -1:
            deltas[v] = deltas.get(v, 0) + moved
            v = parent[v]
        return {v: d for v, d in deltas.items() if d != 0}

    current = sorted(life)
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        best_vector: Optional[List[float]] = None
        best_move: Optional[Tuple[int, int]] = None
        for child in range(n):
            if child == sink:
                continue
            for q in network.neighbors(child):
                if q == parent[child] or in_subtree(q, child):
                    continue
                deltas = chain_deltas(child, q)
                trial = life.copy()
                for v, d in deltas.items():
                    if v == sink:
                        continue
                    trial[v] = convergecast_node_lifetime(
                        network, v, sizes[v] + d
                    )
                trial_sorted = sorted(trial)
                if trial_sorted > current and (
                    best_vector is None or trial_sorted > best_vector
                ):
                    best_vector = trial_sorted
                    best_move = (child, q)
        if best_move is not None:
            child, q = best_move
            for v, d in chain_deltas(child, q).items():
                sizes[v] += d
                if v != sink:
                    life[v] = convergecast_node_lifetime(network, v, sizes[v])
            parent[child] = q
            current = sorted(life)
            moves += 1
            improved = True

    tree = AggregationTree(
        network, {v: parent[v] for v in range(n) if v != sink}
    )
    return ConvergecastResult(tree=tree, lifetime=min(life), moves=moves)
