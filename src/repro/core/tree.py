"""Rooted data aggregation trees: reliability, cost, lifetime.

An aggregation tree is a spanning tree of the network rooted at the sink
(node 0).  During one data aggregation round each node receives one packet
per child, aggregates, and sends one packet to its parent; the round succeeds
iff every link delivery succeeds, so (Section III-B):

* reliability  ``Q(T) = prod(q_e for e in T)``
* cost         ``C(T) = sum(-log q_e) = -log Q(T)``  (Lemma 3)
* lifetime     ``L(T) = min_v I(v) / (Tx + Rx * Ch_T(v))``  (Eq. 1)

Cost and reliability read each tree edge's ``-log q_e`` and ``q_e`` off the
network's link snapshot (:meth:`~repro.network.model.Network.link_arrays`)
and fold them in :meth:`AggregationTree.edges` order; lifetime is Eq. 1 for
every node in one numpy pass.

The paper's figures plot cost in ``-1000 * log2(q)`` units (recoverable from
the published cost/reliability pairs, e.g. MST cost 55 ↔ reliability 0.963);
:data:`PAPER_COST_SCALE` converts natural-log cost to those units.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.network.model import LinkArrays, Network, edge_key

__all__ = ["AggregationTree", "PAPER_COST_SCALE"]

#: Multiply a natural-log cost by this to get the paper's plotted cost units
#: (−1000·log2 q).  E.g. reliability 0.963 → paper cost ≈ 54.4 ≈ Fig. 7's 55.
PAPER_COST_SCALE = 1000.0 / math.log(2.0)


def _validate_rooted(parent: List[int], sink: int) -> None:
    """Every node must reach the sink via parent pointers (no cycles)."""
    state = [0] * len(parent)  # 0 unvisited, 1 in-progress, 2 ok
    state[sink] = 2
    for start in range(len(parent)):
        path = []
        v = start
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = parent[v]
        if state[v] == 1:
            raise ValueError(f"parent pointers contain a cycle through node {v}")
        for u in path:
            state[u] = 2


class AggregationTree:
    """A spanning tree of a :class:`Network`, rooted at the sink.

    Stored as a parent map: ``parent[v]`` for every non-sink node ``v``; the
    sink has no parent.  The tree must be spanning (every node present) and
    every tree edge must exist in the network — both validated on
    construction.

    Immutable by construction: attribute assignment and deletion raise
    ``AttributeError``, the parent array is read-only and children are
    tuples, so a built (and certified) tree can be shared freely — the serve
    cache hands the same object to every hit.  Derive a changed tree with
    :meth:`with_parent` or through :class:`~repro.engine.treestate.TreeState`.
    Pickle and :mod:`copy` rebuild through the constructor.

    Args:
        network: The network this tree spans.
        parents: Mapping or sequence giving each non-sink node's parent.  A
            sequence must have length ``n`` with ``parents[0]`` ignored
            (conventionally ``-1``).
    """

    __slots__ = ("network", "_parent", "_children", "_positions")

    network: Network
    _parent: np.ndarray
    _children: Tuple[Tuple[int, ...], ...]
    #: The network's link snapshot and the tree edges' positions in it, set
    #: by the first metric read against that snapshot.
    _positions: Optional[Tuple[LinkArrays, np.ndarray]]

    def __init__(
        self,
        network: Network,
        parents: Dict[int, int] | Sequence[int],
    ) -> None:
        n = network.n
        sink = network.sink
        parent_arr = np.full(n, -1, dtype=np.int64)
        if isinstance(parents, dict):
            items = parents.items()
        else:
            if len(parents) != n:
                raise ValueError(
                    f"parents sequence must have length {n}, got {len(parents)}"
                )
            items = ((v, p) for v, p in enumerate(parents) if v != sink)
        for v, p in items:
            if v == sink:
                continue
            if not (0 <= v < n) or not (0 <= p < n):
                raise ValueError(f"parent entry ({v} -> {p}) out of range")
            parent_arr[v] = p
        parent_arr.setflags(write=False)
        parent_list = parent_arr.tolist()
        # Visiting v in ascending order leaves every child list sorted.
        children: List[List[int]] = [[] for _ in range(n)]
        has_edge = network.has_edge
        for v, p in enumerate(parent_list):
            if v == sink:
                continue
            if p < 0:
                raise ValueError(f"node {v} has no parent; tree is not spanning")
            if not has_edge(v, p):
                raise ValueError(
                    f"tree edge ({v}, {p}) does not exist in the network"
                )
            children[p].append(v)
        _validate_rooted(parent_list, sink)
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "_parent", parent_arr)
        object.__setattr__(self, "_children", tuple(map(tuple, children)))
        object.__setattr__(self, "_positions", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"AggregationTree is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"AggregationTree is immutable; cannot delete {name!r}")

    def __reduce__(self) -> Tuple[type, Tuple[Network, List[int]]]:
        return (AggregationTree, (self.network, self._parent.tolist()))

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, network: Network, edges: Iterable[Tuple[int, int]]
    ) -> "AggregationTree":
        """Build from an undirected edge set by orienting away from the sink.

        Raises ``ValueError`` if the edges do not form a spanning tree.
        """
        adj: Dict[int, List[int]] = {v: [] for v in network.nodes}
        count = 0
        seen_edges: Set[Tuple[int, int]] = set()
        for u, v in edges:
            key = edge_key(u, v)
            if key in seen_edges:
                raise ValueError(f"duplicate edge {key}")
            seen_edges.add(key)
            adj[u].append(v)
            adj[v].append(u)
            count += 1
        if count != network.n - 1:
            raise ValueError(
                f"spanning tree needs {network.n - 1} edges, got {count}"
            )
        parents: Dict[int, int] = {}
        visited = {network.sink}
        stack = [network.sink]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in visited:
                    visited.add(v)
                    parents[v] = u
                    stack.append(v)
        if len(visited) != network.n:
            raise ValueError("edge set is not connected; not a spanning tree")
        return cls(network, parents)

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.network.n

    @property
    def sink(self) -> int:
        return self.network.sink

    def parent(self, v: int) -> Optional[int]:
        """Parent of *v*, or ``None`` for the sink."""
        if v == self.sink:
            return None
        return int(self._parent[v])

    @property
    def parents(self) -> Dict[int, int]:
        """Copy of the parent map (non-sink nodes only)."""
        sink = self.sink
        return {v: p for v, p in enumerate(self._parent.tolist()) if v != sink}

    def children(self, v: int) -> List[int]:
        """Sorted children of *v*."""
        return list(self._children[v])

    def n_children(self, v: int) -> int:
        """``Ch_T(v)`` of Eq. 1."""
        return len(self._children[v])

    def edges(self) -> List[Tuple[int, int]]:
        """Tree edges as canonical keys, sorted."""
        return sorted(
            edge_key(v, int(self._parent[v]))
            for v in range(self.n)
            if v != self.sink
        )

    def has_tree_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return (
            (u != self.sink and int(self._parent[u]) == v)
            or (v != self.sink and int(self._parent[v]) == u)
        )

    def subtree(self, v: int) -> Set[int]:
        """All nodes in the subtree rooted at *v* (including *v*)."""
        out = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for c in self._children[u]:
                out.add(c)
                stack.append(c)
        return out

    def depth(self, v: int) -> int:
        """Hop count from *v* to the sink."""
        d = 0
        while v != self.sink:
            v = int(self._parent[v])
            d += 1
            if d > self.n:
                raise RuntimeError("cycle detected walking to the sink")
        return d

    def leaves(self) -> List[int]:
        """Nodes with no children."""
        return [v for v in range(self.n) if not self._children[v]]

    def postorder(self) -> List[int]:
        """Nodes in post-order (children before parents); sink last."""
        order: List[int] = []
        stack: List[Tuple[int, bool]] = [(self.sink, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            else:
                stack.append((node, True))
                for c in reversed(self._children[node]):
                    stack.append((c, False))
        return order

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------
    def _link_positions(self) -> Tuple[LinkArrays, np.ndarray]:
        """The network's link snapshot and the tree edges' positions in it,
        ascending: the order of :meth:`edges`.

        The positions are kept while the snapshot is current; a link change
        replaces the snapshot, and the next read finds them again.
        """
        links = self.network.link_arrays()
        if self._positions is None or self._positions[0] is not links:
            tree = [(v, p) for v, p in enumerate(self._parent.tolist()) if p >= 0]
            positions = np.sort(self.network.edge_index(tree))
            object.__setattr__(self, "_positions", (links, positions))
        return self._positions

    def cost(self) -> float:
        """``C(T) = sum(-log q_e)`` in natural-log units (Eq. 10).

        Summed left to right in :meth:`edges` order, off the network's link
        snapshot.
        """
        links, positions = self._link_positions()
        return sum(links.key_cost[positions].tolist())

    def paper_cost(self) -> float:
        """Cost in the paper's plotted units (−1000·log2 q)."""
        return self.cost() * PAPER_COST_SCALE

    def reliability(self) -> float:
        """``Q(T) = prod(q_e)`` — success probability of a full round.

        Multiplied left to right in :meth:`edges` order, off the network's
        link snapshot.
        """
        links, positions = self._link_positions()
        return math.prod(links.key_prr[positions].tolist(), start=1.0)

    def node_lifetime(self, v: int) -> float:
        """Eq. 1 lifetime of node *v* in aggregation rounds."""
        return self.network.energy_model.lifetime_rounds(
            self.network.initial_energy(v), self.n_children(v)
        )

    def lifetime(self) -> float:
        """Network lifetime ``L(T) = min_v L(v)`` in aggregation rounds.

        Eq. 1 for every node at once, with :meth:`node_lifetime`'s float
        operations.
        """
        children = np.bincount(self._parent[self._parent >= 0], minlength=self.n)
        network = self.network
        lifetimes = network.energy_model.lifetime_rounds_unchecked(
            network.initial_energies, children
        )
        return float(lifetimes.min())

    def bottleneck(self) -> int:
        """The node realising the minimum lifetime (ties -> smallest id)."""
        return min(range(self.n), key=lambda v: (self.node_lifetime(v), v))

    def meets_lifetime(self, bound: float, *, rel_tol: float = 1e-9) -> bool:
        """Whether ``L(T) >= bound`` (with a small relative tolerance)."""
        return self.lifetime() >= bound * (1.0 - rel_tol)

    # ------------------------------------------------------------------
    # Derived trees
    # ------------------------------------------------------------------
    def with_parent(self, child: int, new_parent: int) -> "AggregationTree":
        """New tree with *child* re-attached under *new_parent*.

        The caller must ensure *new_parent* is outside *child*'s subtree
        (otherwise construction raises on the resulting cycle).
        """
        if child == self.sink:
            raise ValueError("the sink has no parent to change")
        parents = self.parents
        parents[child] = new_parent
        return AggregationTree(self.network, parents)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregationTree):
            return NotImplemented
        return self.network is other.network and np.array_equal(
            self._parent, other._parent
        )

    def __hash__(self) -> int:
        return hash((id(self.network), tuple(self._parent.tolist())))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AggregationTree(n={self.n}, cost={self.cost():.4f}, "
            f"reliability={self.reliability():.4f})"
        )
