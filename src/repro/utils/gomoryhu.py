"""Gomory–Hu trees: all-pairs minimum cuts from n-1 max-flow calls.

A Gomory–Hu tree of a capacitated undirected graph is a weighted tree on
the same vertices such that, for every pair ``(u, v)``, the minimum u-v cut
value equals the smallest edge weight on the tree path between them — and
the corresponding tree edge's removal induces a minimum cut.

Provided as an optimisation substrate for cut-heavy workloads (a Gomory–Hu
tree answers *all* pairwise cut queries after ``n - 1`` flows).  The subtour
separation oracle does not use it: it contracts the ``x_e = 1`` components
of the support graph first and then probes one root per component, which
usually needs far fewer flows than a Gomory–Hu build over the original
nodes.
The structure is exposed, tested against networkx, and used by the
analysis tooling.

Implementation: Gusfield's simplification of the Gomory–Hu construction
(no vertex contraction needed), on top of the same Dinic solver the
separation oracle uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.utils.maxflow import DinicMaxFlow

__all__ = ["GomoryHuTree", "build_gomory_hu_tree"]


@dataclass(frozen=True)
class GomoryHuTree:
    """The cut-equivalent tree.

    Attributes:
        n: Vertex count.
        parent: ``parent[v]`` for every vertex except vertex 0 (the root).
        weight: ``weight[v]`` = min-cut value between ``v`` and its parent.
    """

    n: int
    parent: Tuple[int, ...]
    weight: Tuple[float, ...]

    def min_cut_value(self, u: int, v: int) -> float:
        """Minimum u-v cut value (smallest weight on the tree path)."""
        if u == v:
            raise ValueError("min cut requires two distinct vertices")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertices ({u}, {v}) out of range")
        # Walk both vertices to the root, tracking path minima.
        def path_to_root(x: int) -> List[int]:
            path = [x]
            while path[-1] != 0:
                path.append(self.parent[path[-1]])
            return path

        pu, pv = path_to_root(u), path_to_root(v)
        set_u = set(pu)
        # Lowest common ancestor = first vertex of pv also on pu.
        lca = next(x for x in pv if x in set_u)
        best = float("inf")
        for x in pu:
            if x == lca:
                break
            best = min(best, self.weight[x])
        for x in pv:
            if x == lca:
                break
            best = min(best, self.weight[x])
        return best

    def edges(self) -> List[Tuple[int, int, float]]:
        """Tree edges as (child, parent, weight)."""
        return [
            (v, self.parent[v], self.weight[v]) for v in range(1, self.n)
        ]


def build_gomory_hu_tree(
    n: int, edges: Sequence[Tuple[int, int, float]]
) -> GomoryHuTree:
    """Gusfield's algorithm over an undirected capacitated edge list.

    Args:
        n: Vertex count (ids ``0..n-1``).
        edges: ``(u, v, capacity)`` triples; parallel edges add up.

    ``n - 1`` max-flow computations; vertices in components disconnected
    from vertex 0 end up joined by weight-0 tree edges, which is exactly
    their true min cut.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for u, v, cap in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        if cap < 0:
            raise ValueError(f"negative capacity on ({u}, {v})")

    parent = [0] * n
    weight = [0.0] * n
    for v in range(1, n):
        net = DinicMaxFlow(max(n, 2))
        for a, b, cap in edges:
            if a != b:
                net.add_edge(a, b, cap, cap)
        result = net.solve(v, parent[v])
        weight[v] = result.flow_value
        source_side = result.source_side
        for w in range(v + 1, n):
            # Gusfield re-hang: later vertices on v's side that currently
            # hang off the same parent move under v.
            if w in source_side and parent[w] == parent[v]:
                parent[w] = v
    return GomoryHuTree(n=n, parent=tuple(parent), weight=tuple(weight))
