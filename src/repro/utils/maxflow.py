"""Dinic maximum-flow / minimum-cut solver on dense small graphs.

The subtour-elimination separation oracle (:mod:`repro.core.separation`)
reduces "find a violated subtour constraint" to a handful of s-t minimum-cut
computations (Padberg & Wolsey, 1983).  The graphs involved are tiny (tens of
nodes) but the oracle is called inside the IRA cutting-plane loop, so the
implementation below keeps allocation out of the hot path by storing the
residual network in flat adjacency arrays.

The implementation is self-contained (no networkx dependency); the test suite
cross-validates it against :func:`networkx.maximum_flow` on random graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["DinicMaxFlow", "MaxFlowResult"]

_EPS = 1e-12


@dataclass
class MaxFlowResult:
    """Outcome of a max-flow computation.

    Attributes:
        flow_value: Value of the maximum s-t flow (== capacity of the min cut).
        source_side: Set of vertices reachable from the source in the final
            residual network; this is the source side of a minimum cut.
        flows: Mapping ``(u, v) -> flow`` for every directed arc that carries
            positive flow, derived on first access from a snapshot of the
            solved network (min-cut callers never pay for it).
    """

    flow_value: float
    source_side: Set[int]
    #: (arc heads, initial capacities, residual capacities) at solve time.
    _arcs: Tuple[List[int], List[float], List[float]] = field(
        default=([], [], []), repr=False, compare=False
    )

    @cached_property
    def flows(self) -> Dict[Tuple[int, int], float]:
        to, initial, residual = self._arcs
        flows: Dict[Tuple[int, int], float] = {}
        for arc, cap in enumerate(residual):
            used = initial[arc] - cap
            if used > _EPS:
                # Arc ``arc`` runs from the head of its paired reverse arc.
                key = (to[arc ^ 1], to[arc])
                flows[key] = flows.get(key, 0.0) + used
        return flows


class DinicMaxFlow:
    """Incremental builder for a flow network solved with Dinic's algorithm.

    Typical usage::

        net = DinicMaxFlow(n_vertices)
        net.add_edge(u, v, capacity)            # directed arc
        net.add_edge(u, v, cap, cap)            # undirected (equal both ways)
        result = net.solve(source, sink)

    A solved instance can be re-solved after :meth:`reset_flow` (capacities
    are retained), which the separation oracle uses when probing several
    source choices over the same base network.
    """

    def __init__(self, n_vertices: int) -> None:
        if n_vertices < 2:
            raise ValueError(f"need at least 2 vertices, got {n_vertices}")
        self.n = n_vertices
        # Arc-list representation: arc i and its reverse arc i^1 are paired.
        self._to: List[int] = []
        self._cap: List[float] = []
        self._initial_cap: List[float] = []
        self._head: List[List[int]] = [[] for _ in range(n_vertices)]

    def add_edge(self, u: int, v: int, cap: float, rev_cap: float = 0.0) -> int:
        """Add a directed arc ``u -> v`` with capacity *cap*.

        *rev_cap* sets the capacity of the paired reverse arc, making the
        edge effectively undirected when ``rev_cap == cap``.  Returns the
        forward arc's index (usable with :meth:`set_capacity`); self-loops
        return ``-1``.
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) out of range for {self.n} vertices")
        if cap < 0 or rev_cap < 0:
            raise ValueError(f"capacities must be non-negative, got {cap}, {rev_cap}")
        if u == v:
            return -1  # self-loops carry no flow
        arc = len(self._to)
        self._head[u].append(arc)
        self._to.append(v)
        self._cap.append(cap)
        self._head[v].append(len(self._to))
        self._to.append(u)
        self._cap.append(rev_cap)
        self._initial_cap.extend((cap, rev_cap))
        return arc

    def set_capacity(self, arc: int, cap: float) -> None:
        """Change one arc's capacity (both current and initial).

        Lets callers reuse one network across solves that differ in a few
        arcs (the separation oracle switches a per-root source arc):
        ``set_capacity`` + :meth:`reset_flow` re-arms the instance.
        """
        if not (0 <= arc < len(self._cap)):
            raise ValueError(f"arc index {arc} out of range")
        if cap < 0:
            raise ValueError(f"capacity must be non-negative, got {cap}")
        self._cap[arc] = cap
        self._initial_cap[arc] = cap

    def reset_flow(self) -> None:
        """Restore all capacities to their initial values (undo the flow)."""
        self._cap = list(self._initial_cap)

    def _bfs_levels(self, s: int, t: int) -> List[int]:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for arc in self._head[u]:
                v = self._to[arc]
                if level[v] < 0 and self._cap[arc] > _EPS:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _dfs_augment(
        self, u: int, t: int, pushed: float, level: List[int], it: List[int]
    ) -> float:
        if u == t:
            return pushed
        while it[u] < len(self._head[u]):
            arc = self._head[u][it[u]]
            v = self._to[arc]
            if self._cap[arc] > _EPS and level[v] == level[u] + 1:
                found = self._dfs_augment(
                    v, t, min(pushed, self._cap[arc]), level, it
                )
                if found > _EPS:
                    self._cap[arc] -= found
                    self._cap[arc ^ 1] += found
                    return found
            it[u] += 1
        return 0.0

    def solve(
        self, source: int, sink: int, *, cutoff: Optional[float] = None
    ) -> MaxFlowResult:
        """Compute the maximum flow from *source* to *sink*.

        With *cutoff*, augmentation stops as soon as the flow reaches it —
        callers that only need to know whether the min cut is *below* the
        cutoff (the separation oracle's violation test) save the remaining
        work.  A cutoff-terminated result reports the flow found so far;
        its ``source_side`` is still the residual-reachable set, which is a
        valid minimum cut only when the run was not cut off.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        total = 0.0
        while cutoff is None or total < cutoff:
            level = self._bfs_levels(source, sink)
            if level[sink] < 0:
                break
            it = [0] * self.n
            while cutoff is None or total < cutoff:
                pushed = self._dfs_augment(source, sink, float("inf"), level, it)
                if pushed <= _EPS:
                    break
                total += pushed
        return MaxFlowResult(
            flow_value=total,
            source_side=self._residual_reachable(source),
            _arcs=(self._to, list(self._initial_cap), list(self._cap)),
        )

    def _residual_reachable(self, s: int) -> Set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for arc in self._head[u]:
                v = self._to[arc]
                if v not in seen and self._cap[arc] > _EPS:
                    seen.add(v)
                    queue.append(v)
        return seen


def min_cut_value(
    n: int, edges: List[Tuple[int, int, float]], source: int, sink: int
) -> float:
    """Convenience wrapper: min s-t cut value of an undirected capacitated graph."""
    net = DinicMaxFlow(n)
    for u, v, cap in edges:
        net.add_edge(u, v, cap, cap)
    return net.solve(source, sink).flow_value
