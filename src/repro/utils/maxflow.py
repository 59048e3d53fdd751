"""Dinic maximum-flow / minimum-cut solver on dense small graphs.

The subtour-elimination separation oracle (:mod:`repro.core.separation`)
reduces "find a violated subtour constraint" to a handful of s-t minimum-cut
computations (Padberg & Wolsey, 1983).  The graphs involved are tiny (tens of
nodes) but the oracle is called inside the IRA cutting-plane loop, so the
implementation below keeps the residual network in flat lists: arc heads and
capacities indexed by arc, plus every vertex's arcs in one list sliced by
per-vertex offsets.  The blocking-flow search is iterative (an explicit
stack of arcs), so level graphs of any depth solve without touching Python's
recursion limit.

A solve starts from the flow the network already carries: after
:meth:`DinicMaxFlow.reset_flow` that is zero, and after
``reset_flow(result)`` it is the maximum flow of an earlier solve, which a
caller that only adds capacity (the oracle opening one root arc) can resume.

The implementation is self-contained (no networkx dependency); the test suite
cross-validates it against :func:`networkx.maximum_flow` on random graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["DinicMaxFlow", "MaxFlowResult"]

_EPS = 1e-12


@dataclass
class MaxFlowResult:
    """Outcome of a max-flow computation.

    Attributes:
        flow_value: Value of the maximum s-t flow (== capacity of the min cut),
            including any flow the network carried when the solve started.
        source_side: Set of vertices reachable from the source in the final
            residual network; this is the source side of a minimum cut.
        augmenting_paths: Augmenting paths this solve pushed flow along.
        flows: Mapping ``(u, v) -> flow`` for every directed arc that carries
            positive flow, derived on first access from a snapshot of the
            solved network (min-cut callers never pay for it).
    """

    flow_value: float
    source_side: Set[int]
    augmenting_paths: int = 0
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

    A solve augments the network's current flow.  :meth:`reset_flow`
    returns to zero flow (capacities are retained) or to an earlier
    result's flow, which the separation oracle uses when probing several
    source choices over the same base network.
    """

    def __init__(self, n_vertices: int) -> None:
        if n_vertices < 2:
            raise ValueError(f"need at least 2 vertices, got {n_vertices}")
        self.n = n_vertices
        # Arc i and its reverse arc i^1 are paired.
        self._to: List[int] = []
        self._cap: List[float] = []
        self._initial_cap: List[float] = []
        # Adjacency, rebuilt on the first solve after an add_edge: vertex
        # u's arcs are _adj[_first[u]:_first[u + 1]], in insertion order.
        self._adj: List[int] = []
        self._first: List[int] = []

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
        self._to.extend((v, u))
        self._cap.extend((cap, rev_cap))
        self._initial_cap.extend((cap, rev_cap))
        self._first = []
        return arc

    def set_capacity(self, arc: int, cap: float) -> None:
        """Change one arc's capacity (both current and initial).

        Lets callers reuse one network across solves that differ in a few
        arcs (the separation oracle switches a per-root source arc).  On an
        arc that carries no flow this keeps the current flow feasible, so a
        following solve resumes from it.
        """
        if not (0 <= arc < len(self._cap)):
            raise ValueError(f"arc index {arc} out of range")
        if cap < 0:
            raise ValueError(f"capacity must be non-negative, got {cap}")
        self._cap[arc] = cap
        self._initial_cap[arc] = cap

    def reset_flow(self, result: Optional[MaxFlowResult] = None) -> None:
        """Undo the flow: back to zero, or to the state *result* was solved to.

        ``reset_flow(result)`` restores the capacities and residual
        capacities a solve of this network returned with, so a solve that
        follows resumes from that flow.
        """
        if result is None:
            self._cap = list(self._initial_cap)
            return
        _, initial, residual = result._arcs
        if len(residual) != len(self._cap):
            raise ValueError("result was not solved on this network's arcs")
        self._initial_cap = list(initial)
        self._cap = list(residual)

    def _flat_adjacency(self) -> Tuple[List[int], List[int]]:
        if not self._first:
            # Arc a leaves the head of its reverse arc; a stable sort by
            # tail keeps each vertex's arcs in insertion order.
            tails = [self._to[arc ^ 1] for arc in range(len(self._to))]
            self._adj = sorted(range(len(tails)), key=tails.__getitem__)
            counts = [0] * self.n
            for tail in tails:
                counts[tail] += 1
            self._first = [0, *accumulate(counts)]
        return self._adj, self._first

    def _bfs_levels(self, s: int, t: int) -> List[int]:
        """BFS levels from *s* over residual arcs, stopping once *t* is labelled.

        Vertices left unlabelled then lie at *t*'s level or beyond, where no
        level-increasing path reaches *t*, so the blocking flow is the same.
        When *t* is unreachable (``t = -1`` never is reached) the labelled
        vertices are the whole residual-reachable set.  Reads the arc lists
        :meth:`_flat_adjacency` built.
        """
        to, cap, adj, first = self._to, self._cap, self._adj, self._first
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            next_level = level[u] + 1
            for arc in adj[first[u] : first[u + 1]]:
                v = to[arc]
                if level[v] < 0 and cap[arc] > _EPS:
                    level[v] = next_level
                    if v == t:
                        return level
                    queue.append(v)
        return level

    def solve(
        self, source: int, sink: int, *, cutoff: Optional[float] = None
    ) -> MaxFlowResult:
        """Augment the network's current flow to a maximum *source*-*sink* flow.

        The reported value counts the flow already carried (the net flow
        out of *source*, zero after :meth:`reset_flow`).  Each phase's
        blocking flow follows the arcs of every vertex in insertion order
        and saturates paths one at a time, so a solve from zero flow makes
        the same float operations in the same order as a recursive
        depth-first search.

        With *cutoff*, augmentation stops as soon as the flow reaches it —
        callers that only need to know whether the min cut is *below* the
        cutoff (the separation oracle's violation test) save the remaining
        work.  A cutoff-terminated result reports the flow found so far;
        its ``source_side`` is still the residual-reachable set, which is a
        valid minimum cut only when the run was not cut off.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        to, cap, initial = self._to, self._cap, self._initial_cap
        adj, first = self._flat_adjacency()
        total = 0.0
        for arc in adj[first[source] : first[source + 1]]:
            total += initial[arc] - cap[arc]
        paths = 0
        reachable: Optional[List[int]] = None
        while cutoff is None or total < cutoff:
            level = self._bfs_levels(source, sink)
            if level[sink] < 0:
                reachable = level
                break
            # One blocking flow.  ``path`` holds the arcs from the source to
            # ``u``; ``it[v]`` is v's next untried arc, advanced only past
            # arcs that lead nowhere (a recursive DFS's iterator).
            it = first[:]
            path: List[int] = []
            u = source
            while True:
                if u == sink:
                    pushed = min([cap[arc] for arc in path])
                    for arc in path:
                        cap[arc] -= pushed
                        cap[arc ^ 1] += pushed
                    total += pushed
                    paths += 1
                    if cutoff is not None and total >= cutoff:
                        break
                    # Retreat to the tail of the first saturated arc: a walk
                    # from the source would retrace the arcs before it.
                    for depth, arc in enumerate(path):
                        if cap[arc] <= _EPS:
                            del path[depth:]
                            u = to[arc ^ 1]
                            break
                    continue
                i, end, want = it[u], first[u + 1], level[u] + 1
                while i < end:
                    arc = adj[i]
                    if cap[arc] > _EPS and level[to[arc]] == want:
                        break
                    i += 1
                it[u] = i
                if i < end:
                    path.append(arc)
                    u = to[arc]
                elif path:
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                else:
                    break  # the source is exhausted: the flow is blocking
        if reachable is None:
            reachable = self._bfs_levels(source, -1)
        return MaxFlowResult(
            flow_value=total,
            source_side={v for v, lv in enumerate(reachable) if lv >= 0},
            augmenting_paths=paths,
            _arcs=(self._to, list(initial), list(cap)),
        )


def min_cut_value(
    n: int, edges: List[Tuple[int, int, float]], source: int, sink: int
) -> float:
    """Convenience wrapper: min s-t cut value of an undirected capacitated graph."""
    net = DinicMaxFlow(n)
    for u, v, cap in edges:
        net.add_edge(u, v, cap, cap)
    return net.solve(source, sink).flow_value
