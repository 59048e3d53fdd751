"""Core network data structures: nodes, links, and the WSN graph.

The paper models a WSN as an undirected connected graph ``G = (V, E)`` with
``V = {v0, ..., v_{n-1}}`` where ``v0`` is the sink, a packet reception ratio
``q_e`` on every link, and an initial energy ``I(v)`` on every node
(Section III-B).  :class:`Network` is the single source of truth for that
data; tree builders, the LP, and the simulators all consume it.

Link costs are derived, not stored: ``c_e = -log q_e`` (Eq. 9), so maximizing
tree reliability equals minimizing total tree cost (Lemma 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.network.energy import DEFAULT_BATTERY_J, EnergyModel, TELOSB
from repro.utils.validation import check_non_negative, check_probability

__all__ = ["Edge", "LinkArrays", "Network", "edge_key"]

#: Smallest PRR treated as a usable link; below this the cost -log(q) blows
#: up and the link is numerically (and practically) useless.
MIN_USABLE_PRR = 1e-9


def edge_key(u: int, v: int) -> Tuple[int, int]:
    """Canonical undirected edge key (sorted endpoint pair)."""
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) is not a valid link")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Edge:
    """An undirected wireless link.

    Attributes:
        u, v: Endpoint node ids with ``u < v``.
        prr: Packet reception ratio ``q_e`` in ``(0, 1]``.
        cost: Link cost ``c_e = -log q_e = log ETX(e)`` (Eq. 9), computed
            once here from *prr*; equality, hashing and ``repr`` leave it
            out.
    """

    u: int
    v: int
    prr: float
    cost: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.u >= self.v:
            raise ValueError(f"Edge endpoints must satisfy u < v, got ({self.u}, {self.v})")
        check_probability(self.prr, "prr", allow_zero=False)
        object.__setattr__(self, "cost", -math.log(self.prr))

    @property
    def key(self) -> Tuple[int, int]:
        return (self.u, self.v)

    def other(self, node: int) -> int:
        """The endpoint that is not *node*."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node} is not an endpoint of edge {self.key}")


class LinkArrays(NamedTuple):
    """The derived link snapshot of one :class:`Network` link set.

    ``src``, ``dst`` and ``cost`` list every directed link; ``keys`` and the
    ``key_*`` arrays list every undirected link once, in :meth:`Network.edges`
    order.  See :meth:`Network.link_arrays`.
    """

    src: np.ndarray
    dst: np.ndarray
    cost: np.ndarray
    #: Canonical ``(u, v)`` keys, ``u < v``, sorted.
    keys: Tuple[Tuple[int, int], ...]
    #: ``Edge.cost`` of each key.
    key_cost: np.ndarray
    #: ``Edge.prr`` of each key.
    key_prr: np.ndarray
    #: Position of each key in :attr:`keys` (what :meth:`Network.edge_index`
    #: reads).
    index: Mapping[Tuple[int, int], int]


class Network:
    """A wireless sensor network: sink, sensors, unreliable links.

    Node ids are the contiguous integers ``0 .. n-1``; node ``0`` is the sink
    (the paper's labelling, which the Prüfer machinery also relies on: the
    sink carries the smallest label).

    Args:
        n_nodes: Total node count including the sink.
        initial_energy: Scalar (applied to every node) or per-node array of
            initial energies ``I(v)`` in joules.
        energy_model: Per-packet Tx/Rx energy model (defaults to the paper's
            TelosB constants).
        positions: Optional ``(n, 2)`` array of node coordinates in meters;
            kept for topology generators and plotting, unused by algorithms.
    """

    def __init__(
        self,
        n_nodes: int,
        *,
        initial_energy: float | Iterable[float] = DEFAULT_BATTERY_J,
        energy_model: EnergyModel = TELOSB,
        positions: Optional[np.ndarray] = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n = int(n_nodes)
        self.sink = 0
        self.energy_model = energy_model

        if isinstance(initial_energy, (int, float)):
            energies = np.full(self.n, float(initial_energy))
        else:
            energies = np.asarray(list(initial_energy), dtype=float)
            if energies.shape != (self.n,):
                raise ValueError(
                    f"initial_energy must have length {self.n}, got {energies.shape}"
                )
        if np.any(energies < 0) or not np.all(np.isfinite(energies)):
            raise ValueError("initial energies must be finite and non-negative")
        self._energy = energies

        if positions is not None:
            positions = np.asarray(positions, dtype=float)
            if positions.shape != (self.n, 2):
                raise ValueError(
                    f"positions must have shape ({self.n}, 2), got {positions.shape}"
                )
        self.positions = positions

        self._edges: Dict[Tuple[int, int], Edge] = {}
        self._adj: List[Dict[int, Edge]] = [dict() for _ in range(self.n)]
        self._links: Optional[LinkArrays] = None

    def __getstate__(self) -> Dict[str, object]:
        # The link snapshot is derived data: pickles and copies rebuild it.
        state = self.__dict__.copy()
        state["_links"] = None
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_link(self, u: int, v: int, prr: float) -> Edge:
        """Add (or replace) the undirected link ``{u, v}`` with PRR *prr*."""
        self._check_node(u)
        self._check_node(v)
        key = edge_key(u, v)
        edge = Edge(key[0], key[1], prr)
        self._edges[key] = edge
        self._adj[u][v] = edge
        self._adj[v][u] = edge
        self._links = None
        return edge

    def remove_link(self, u: int, v: int) -> None:
        """Remove the link ``{u, v}``; raises ``KeyError`` if absent."""
        key = edge_key(u, v)
        del self._edges[key]
        del self._adj[u][v]
        del self._adj[v][u]
        self._links = None

    def set_prr(self, u: int, v: int, prr: float) -> Edge:
        """Update the PRR of an existing link (used by the dynamic protocol)."""
        if edge_key(u, v) not in self._edges:
            raise KeyError(f"no link {edge_key(u, v)} in network")
        return self.add_link(u, v, prr)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> range:
        """All node ids, sink first."""
        return range(self.n)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def edges(self) -> Iterator[Edge]:
        """Iterate all links in canonical-key order (deterministic)."""
        for key in sorted(self._edges):
            yield self._edges[key]

    def edge(self, u: int, v: int) -> Edge:
        """The link ``{u, v}``; raises ``KeyError`` if absent."""
        return self._edges[edge_key(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return edge_key(u, v) in self._edges

    def prr(self, u: int, v: int) -> float:
        return self.edge(u, v).prr

    def cost(self, u: int, v: int) -> float:
        return self.edge(u, v).cost

    def neighbors(self, node: int) -> List[int]:
        """Sorted neighbor ids of *node*."""
        self._check_node(node)
        return sorted(self._adj[node])

    def link_arrays(self) -> LinkArrays:
        """Every link as read-only arrays, built once per link set.

        The directed rows (``src``, ``dst``, ``cost``) run in (src
        ascending, dst ascending) order, the order of a scalar ``for v in
        nodes: for u in neighbors(v)`` scan.  The undirected view is the
        rows with ``src < dst``: ``keys`` in :meth:`edges` order, with each
        link's cost and PRR, and ``index`` from each key to its position
        (:meth:`edge_index`).  Costs are the
        scalar ``math.log`` values of :attr:`Edge.cost` (``np.log`` need not
        round like libm), so bulk reads of them stay bitwise equal to
        :meth:`cost` and :meth:`prr`.  :meth:`add_link`, :meth:`remove_link`
        and :meth:`set_prr` drop the snapshot; pickles and copies leave it
        out.  A search that reads it must not change links while it runs —
        true for every builder; the churn simulator changes PRRs only
        between builds.
        """
        if self._links is None:
            keys = sorted(self._edges)
            edges = [self._edges[key] for key in keys]
            key_cost = np.array([edge.cost for edge in edges], dtype=np.float64)
            pairs = np.fromiter(
                chain.from_iterable(keys), dtype=np.int64, count=2 * len(keys)
            ).reshape(-1, 2)
            key_u, key_v = pairs[:, 0], pairs[:, 1]
            # Each link once per direction, in (src, dst) order.
            src = np.concatenate((key_u, key_v))
            dst = np.concatenate((key_v, key_u))
            order = np.lexsort((dst, src))
            links = LinkArrays(
                src=src[order],
                dst=dst[order],
                cost=np.concatenate((key_cost, key_cost))[order],
                keys=tuple(keys),
                key_cost=key_cost,
                key_prr=np.array([edge.prr for edge in edges], dtype=np.float64),
                index=MappingProxyType(dict(zip(keys, range(len(keys))))),
            )
            for array in links:
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
            self._links = links
        return self._links

    def edge_index(self, pairs: Iterable[Tuple[int, int]]) -> np.ndarray:
        """Positions in ``link_arrays().keys`` of the links ``(u, v)`` in
        *pairs*, each in either orientation.

        Raises ``KeyError`` when some pair is not a link.
        """
        keys = [(u, v) if u < v else (v, u) for u, v in pairs]
        return np.fromiter(
            map(self.link_arrays().index.__getitem__, keys), dtype=np.intp, count=len(keys)
        )

    def degree(self, node: int) -> int:
        self._check_node(node)
        return len(self._adj[node])

    def incident_edges(self, node: int) -> List[Edge]:
        """Edges incident to *node*, neighbor-sorted."""
        self._check_node(node)
        return [self._adj[node][nbr] for nbr in sorted(self._adj[node])]

    def initial_energy(self, node: int) -> float:
        self._check_node(node)
        return float(self._energy[node])

    @property
    def initial_energies(self) -> np.ndarray:
        """Copy of the per-node initial-energy vector."""
        return self._energy.copy()

    @property
    def min_initial_energy(self) -> float:
        """``I_min`` over sensor nodes — used by IRA's bound inflation."""
        return float(np.min(self._energy))

    def set_initial_energy(self, node: int, energy: float) -> None:
        self._check_node(node)
        check_non_negative(energy, "energy")
        self._energy[node] = energy

    # ------------------------------------------------------------------
    # Graph-level queries
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether every node can reach the sink."""
        if self.n == 1:
            return True
        seen = {self.sink}
        stack = [self.sink]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    def component_of(self, node: int) -> Set[int]:
        """The connected component containing *node*."""
        self._check_node(node)
        seen = {node}
        stack = [node]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def filtered(self, min_prr: float) -> "Network":
        """Copy of the network keeping only links with ``prr >= min_prr``.

        Section VII-A applies this with ``min_prr = 0.95`` before running
        AAML, since AAML is link-quality agnostic.
        """
        check_probability(min_prr, "min_prr")
        out = Network(
            self.n,
            initial_energy=self._energy,
            energy_model=self.energy_model,
            positions=None if self.positions is None else self.positions.copy(),
        )
        for e in self.edges():
            if e.prr >= min_prr:
                out.add_link(e.u, e.v, e.prr)
        return out

    def copy(self) -> "Network":
        """Deep copy (independent energies and link set)."""
        out = Network(
            self.n,
            initial_energy=self._energy,
            energy_model=self.energy_model,
            positions=None if self.positions is None else self.positions.copy(),
        )
        for e in self.edges():
            out.add_link(e.u, e.v, e.prr)
        return out

    def average_prr(self) -> float:
        """Mean PRR over all links (0 links -> 1.0 by convention)."""
        if not self._edges:
            return 1.0
        return float(np.mean([e.prr for e in self._edges.values()]))

    def to_networkx(self):
        """Export as a :class:`networkx.Graph` (for tests and plotting only).

        Attributes: ``prr`` and ``cost`` on edges, ``energy`` on nodes.
        """
        import networkx as nx

        g = nx.Graph()
        for v in self.nodes:
            g.add_node(v, energy=float(self._energy[v]))
        for e in self.edges():
            g.add_edge(e.u, e.v, prr=e.prr, cost=e.cost)
        return g

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.n):
            raise ValueError(f"node id {node} out of range [0, {self.n})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Network(n={self.n}, edges={self.n_edges})"
