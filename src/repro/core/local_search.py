"""Tree local-search primitives shared by AAML and IRA's repair pass.

All four searches operate on the same move: detach a node from its parent
and re-attach it under a network neighbour outside its own subtree.

* :func:`maximize_lifetime` — lexicographically raise the ascending per-node
  lifetime vector.  This is the engine of the AAML baseline (Wu et al. 2008:
  "iteratively reduce the load on bottleneck nodes") and, because it drives
  the tree toward the lifetime-optimal load distribution, also the
  feasibility fallback of IRA's repair pass.
* :func:`repair_overload` — cheapest single moves that reduce the total
  children-cap excess; fixes the bounded violation a forced relaxation can
  leave behind.
* :func:`reduce_cost_under_caps` — greedy cost descent that never violates
  the children caps; polishes a feasibility-first tree back toward low cost.
* :func:`polish_under_caps` — that descent followed by
  :func:`improve_hamiltonian_path`'s 2-opt; the one polish IRA's repair
  pass and the ``local_search`` builder share.

Every search strictly decreases (or lexicographically increases) a potential
per accepted move over a finite state space, so all of them terminate.

All move loops run on the incremental :class:`~repro.engine.treestate.TreeState`
engine: a re-parent changes only the two parents' lifetimes and one tree
edge, cycle filtering is an ancestor walk, and no :class:`AggregationTree`
is constructed until the search ``freeze()``s its result.  The two greedy
cost descents score every candidate at once through
:meth:`~repro.engine.treestate.TreeState.best_cost_reparent`; the lifetime
ascent (:meth:`~repro.engine.treestate.TreeState.ascend_lifetime`) scores
only the moves of the loaded nodes it visits, most starved first.  The
accepted moves and final trees are decision-identical to the historical
rebuild-per-candidate implementation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.tree import AggregationTree
from repro.engine.treestate import TreeState
from repro.obs import OBS

__all__ = [
    "bfs_tree",
    "improve_hamiltonian_path",
    "lifetime_vector",
    "maximize_lifetime",
    "polish_under_caps",
    "repair_overload",
    "reduce_cost_under_caps",
]

#: Strict-descent cutoff shared by every greedy cost scan.
COST_EPS = -1e-15


def _caps_array(caps: Dict[int, int], n: int) -> np.ndarray:
    return np.array([caps[v] for v in range(n)], dtype=np.int64)


def bfs_tree(network) -> AggregationTree:
    """Breadth-first (shortest-hop) spanning tree — the canonical start point.

    Used as AAML's "arbitrary tree" and as the restart point of IRA's repair
    pass.  Neighbours are visited in ascending id order, so the first node
    to reach each node is its parent.  Raises
    :class:`~repro.core.errors.DisconnectedNetworkError` when some node
    cannot reach the sink.
    """
    from repro.core.errors import DisconnectedNetworkError

    sink = network.sink
    parents: Dict[int, int] = {}
    queue = [sink]
    for u in queue:
        for v in network.neighbors(u):
            if v != sink and v not in parents:
                parents[v] = u
                queue.append(v)
    if len(queue) != network.n:
        raise DisconnectedNetworkError(
            "network is disconnected; no spanning tree exists"
        )
    return AggregationTree(network, parents)


def lifetime_vector(tree: AggregationTree) -> Tuple[float, ...]:
    """Per-node lifetimes sorted ascending — the lexicographic potential."""
    return tuple(sorted(tree.node_lifetime(v) for v in range(tree.n)))


def maximize_lifetime(
    tree: AggregationTree, *, max_moves: int = 100_000
) -> Tuple[AggregationTree, int]:
    """Lexicographic bottleneck-lifetime ascent; returns (tree, moves).

    Each iteration takes the most-starved loaded node that has a strictly
    improving move, accepts its lexicographically best move of the
    ascending lifetime vector, and stops at a local optimum.
    :meth:`~repro.engine.treestate.TreeState.ascend_lifetime` scores the
    moves of one loaded node at a time and walks ancestors only for the
    few it checks for legality; the accepted moves are those of the scalar
    scan (``_reference_maximize_lifetime`` in :mod:`repro.engine.bench`).
    """
    state = TreeState(tree)
    moves, checked = state.ascend_lifetime(max_moves)
    if OBS.enabled:
        reg = OBS.registry
        reg.counter("local_search.moves_accepted", op="maximize_lifetime").inc(moves)
        reg.counter("local_search.moves_evaluated", op="maximize_lifetime").inc(
            checked
        )
    return state.freeze(), moves


def repair_overload(
    tree: AggregationTree, caps: Dict[int, int]
) -> Optional[AggregationTree]:
    """Re-home excess children until every node meets its children cap.

    Each move takes a child of an overloaded node to an under-cap network
    neighbour, preferring the smallest cost increase.  Returns the repaired
    tree, or ``None`` when no single move can make progress (the caller
    should fall back to :func:`maximize_lifetime`).
    """
    state = TreeState(tree)
    caps_arr = _caps_array(caps, state.n)
    moves = 0
    while True:
        counts = state.children_counts()
        overloaded = counts > caps_arr
        if not overloaded.any():
            break
        # Children of overloaded parents only, scanned by ascending
        # (overloaded parent, child, cand).
        parents = state.parents_array()
        group = np.where(
            (parents >= 0) & overloaded[np.maximum(parents, 0)], parents, -1
        )
        best = state.best_cost_reparent(
            cand_ok=counts < caps_arr, child_group=group
        )
        if best is None:
            if OBS.enabled and moves:
                OBS.registry.counter(
                    "local_search.moves_accepted", op="repair_overload"
                ).inc(moves)
            return None
        state.reparent(best[1], best[2], check=False)
        moves += 1
    if OBS.enabled and moves:
        OBS.registry.counter(
            "local_search.moves_accepted", op="repair_overload"
        ).inc(moves)
    return state.freeze()


def improve_hamiltonian_path(
    tree: AggregationTree, *, max_moves: int = 10_000
) -> AggregationTree:
    """2-opt cost descent for Hamiltonian-path aggregation trees.

    The strictest feasible MRLC regime (uniform energy, ``LC`` equal to the
    one-child lifetime) only admits Hamiltonian paths with the sink as an
    endpoint.  Re-parent moves cannot descend there (no node has spare child
    capacity), but the classic 2-opt move can: pick positions ``i < j`` on
    the path, reverse the segment between them, and keep the change when the
    two swapped links exist in the network and are cheaper.  The sink end is
    pinned (it must stay the root).

    Returns *tree* unchanged when it is not a sink-rooted Hamiltonian path.
    """
    network = tree.network
    n = tree.n
    if n < 4:
        return tree
    if any(tree.n_children(v) > 1 for v in range(n)):
        return tree
    if tree.n_children(tree.sink) != 1:
        return tree

    # Path order from the sink: order[0] = sink, order[k+1] = child of order[k].
    order: List[int] = [tree.sink]
    while tree.n_children(order[-1]) == 1:
        order.append(tree.children(order[-1])[0])
    if len(order) != n:
        return tree  # disconnected path structure (cannot happen, defensive)

    def cost(u: int, v: int) -> float:
        return network.cost(u, v)

    def two_opt_best() -> Optional[Tuple[float, Tuple[int, int]]]:
        # Reverse order[i+1 .. j]: replaces (order[i], order[i+1]) and
        # (order[j], order[j+1]) with (order[i], order[j]) and
        # (order[i+1], order[j+1]).  j = n-1 drops the second pair.
        best: Optional[Tuple[float, Tuple[int, int]]] = None
        for i in range(0, n - 2):
            a = order[i]
            b = order[i + 1]
            for j in range(i + 2, n):
                c = order[j]
                if not network.has_edge(a, c):
                    continue
                if j + 1 < n:
                    d = order[j + 1]
                    if not network.has_edge(b, d):
                        continue
                    delta = cost(a, c) + cost(b, d) - cost(a, b) - cost(c, d)
                else:
                    delta = cost(a, c) - cost(a, b)
                if delta < -1e-15 and (best is None or delta < best[0]):
                    best = (delta, (i, j))
        return best

    def or_opt_best() -> Optional[Tuple[float, Tuple[int, int, int]]]:
        # Relocate the segment order[i .. i+length-1] to sit after
        # position k (k outside the segment); segments of length 1-3.
        best: Optional[Tuple[float, Tuple[int, int, int]]] = None
        for length in (1, 2, 3):
            for i in range(1, n - length + 1):
                seg_head = order[i]
                seg_tail = order[i + length - 1]
                prev = order[i - 1]
                nxt = order[i + length] if i + length < n else None
                # Cost of closing the hole the segment leaves behind.
                removed = cost(prev, seg_head)
                if nxt is not None:
                    if not network.has_edge(prev, nxt):
                        continue
                    removed += cost(seg_tail, nxt) - cost(prev, nxt)
                for k in range(0, n):
                    if i - 1 <= k <= i + length - 1:
                        continue  # target inside/adjacent to the segment
                    left = order[k]
                    right = order[k + 1] if k + 1 < n else None
                    if right is not None and i <= k + 1 <= i + length - 1:
                        continue
                    if not network.has_edge(left, seg_head):
                        continue
                    added = cost(left, seg_head)
                    if right is not None:
                        if not network.has_edge(seg_tail, right):
                            continue
                        added += cost(seg_tail, right) - cost(left, right)
                    delta = added - removed
                    if delta < -1e-15 and (best is None or delta < best[0]):
                        best = (delta, (i, length, k))
        return best

    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        two = two_opt_best()
        orm = or_opt_best()
        if two is not None and (orm is None or two[0] <= orm[0]):
            _, (i, j) = two
            order[i + 1 : j + 1] = reversed(order[i + 1 : j + 1])
            moves += 1
            improved = True
        elif orm is not None:
            _, (i, length, k) = orm
            segment = order[i : i + length]
            del order[i : i + length]
            insert_at = k + 1 if k < i else k + 1 - length
            order[insert_at:insert_at] = segment
            moves += 1
            improved = True

    if OBS.enabled and moves:
        OBS.registry.counter(
            "local_search.moves_accepted", op="improve_hamiltonian_path"
        ).inc(moves)
    parents = {order[k + 1]: order[k] for k in range(n - 1)}
    return AggregationTree(network, parents)


def reduce_cost_under_caps(
    tree: AggregationTree, caps: Dict[int, int], *, max_moves: int = 100_000
) -> AggregationTree:
    """Greedy cost descent with children caps as a hard constraint.

    Only accepts strictly cost-decreasing re-parent moves whose target stays
    under its cap, so a cap-feasible input remains cap-feasible throughout.
    """
    state = TreeState(tree)
    caps_arr = _caps_array(caps, state.n)
    moves = 0
    while moves < max_moves:
        best = state.best_cost_reparent(
            cand_ok=state.children_counts() < caps_arr, threshold=COST_EPS
        )
        if best is None:
            break
        state.reparent(best[1], best[2], check=False)
        moves += 1
    if OBS.enabled and moves:
        OBS.registry.counter(
            "local_search.moves_accepted", op="reduce_cost_under_caps"
        ).inc(moves)
    return state.freeze()


def polish_under_caps(
    tree: AggregationTree, caps: Dict[int, int], *, max_moves: int = 100_000
) -> AggregationTree:
    """Cost descent for a cap-feasible tree: re-parent moves, then path 2-opt.

    In the Hamiltonian-path regime (all caps 1) re-parent moves are
    blocked — no node has spare capacity — and a feasibility-first tree can
    be several times costlier than optimal; 2-opt closes most of that gap
    (measured against the exact solver in
    benchmarks/test_bench_optimality.py).  Shared by IRA's repair pass and
    the ``local_search`` builder.
    """
    return improve_hamiltonian_path(
        reduce_cost_under_caps(tree, caps, max_moves=max_moves)
    )
