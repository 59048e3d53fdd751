"""The serving layer's two cache tiers.

Tier 1 — :class:`ResultCache`: a bounded LRU mapping full request keys
(topology fingerprint + builder + canonical effective params) to the
:class:`~repro.serve.request.ReplyBody` of each finished build.  The body
is computed once, when the build lands: its metrics dict (the paper's
``C(T)``, ``Q(T)`` and ``L(T)`` plus the builder's meta) and its wire-ready
metrics and tree documents.  A hit is a dict lookup plus C-level copies of
those dicts; it walks no tree and runs no ``tree_to_dict`` or
``json_safe``.  ``AggregationTree`` is frozen by its type (attribute writes
raise, the parent array is read-only and children are tuples), so hits
hand back the stored tree itself.  A body lives exactly as long as its
entry, so memory stays bounded by the capacity.  Measured with
``tracemalloc`` on G(n, 8/n), one ``mst`` entry holds ~4.8 kB at n=30
(the tree ~2.5 kB, the body's own dicts ~2.2 kB) and ~53 kB at n=500
(~31 kB and ~21 kB); the body's node-label strings are interned, so
entries share them.

Tier 2 — :class:`StructureCache`: per-*fingerprint* warm state shared by
every request on a topology, whatever its builder, LC bound, or seed.  A
:class:`WarmStructures` entry memoizes, lazily:

* the topology fingerprint itself (computed once per ``Network`` object,
  via a weak identity map — O(E) hashing leaves the per-request path);
* the pickled network payload shipped to worker processes (pickled once,
  re-sent cheaply; workers keep their own fingerprint-keyed decode memo,
  see :mod:`repro.serve.workers`);
* connectivity, for admission prechecks;
* the Gomory–Hu cut tree (:mod:`repro.utils.gomoryhu`), so min-cut /
  separation-style queries against one topology pay the ``n - 1`` max-flow
  construction once and every later probe — e.g. sweeping nearby LC values
  and asking how well-connected a bottleneck node is — is a tree walk.

Both tiers expose hit/miss/eviction counts that the server surfaces through
``repro.obs`` and ``stats()``.
"""

from __future__ import annotations

import pickle
import weakref
from collections import OrderedDict
from typing import Dict, Optional

from repro.network.model import Network
from repro.network.serialization import topology_fingerprint
from repro.serve.request import ReplyBody, UnknownTopologyError
from repro.utils.gomoryhu import GomoryHuTree, build_gomory_hu_tree

__all__ = ["ResultCache", "StructureCache", "WarmStructures"]


class ResultCache:
    """Bounded LRU store of finished builds' reply bodies, by request key."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, ReplyBody]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[ReplyBody]:
        """The cached body for *key*, refreshing its recency; else None."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, body: ReplyBody) -> None:
        """Insert (or refresh) *key*; evicts the least-recent overflow."""
        self._entries[key] = body
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    @property
    def hit_rate(self) -> float:
        """Hits over lookups so far (0.0 before the first lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class WarmStructures:
    """Everything reusable about one topology, built at most once.

    Instances are created by :class:`StructureCache` and shared by every
    request with the same fingerprint.  The serving layer treats the
    underlying network as frozen; re-registering a *changed* topology
    yields a different fingerprint and therefore a fresh entry.
    """

    __slots__ = (
        "fingerprint",
        "network",
        "_payload",
        "_connected",
        "_cut_tree",
        "cut_queries",
    )

    def __init__(self, fingerprint: str, network: Network) -> None:
        self.fingerprint = fingerprint
        self.network = network
        self._payload: Optional[bytes] = None
        self._connected: Optional[bool] = None
        self._cut_tree: Optional[GomoryHuTree] = None
        #: Min-cut probes answered from the memoized cut tree.
        self.cut_queries = 0

    def payload(self) -> bytes:
        """Pickled network bytes for worker-process shipment (memoized)."""
        if self._payload is None:
            self._payload = pickle.dumps(
                self.network, protocol=pickle.HIGHEST_PROTOCOL
            )
        return self._payload

    def is_connected(self) -> bool:
        """Memoized sink-reachability — the admission precheck."""
        if self._connected is None:
            self._connected = self.network.is_connected()
        return self._connected

    def cut_tree(self) -> GomoryHuTree:
        """The memoized Gomory–Hu tree over PRR capacities."""
        if self._cut_tree is None:
            self._cut_tree = build_gomory_hu_tree(
                self.network.n,
                [(e.u, e.v, e.prr) for e in self.network.edges()],
            )
        return self._cut_tree

    def min_cut(self, u: int, v: Optional[int] = None) -> float:
        """Min-cut value between *u* and *v* (default: the sink).

        First call per topology builds the cut tree (``n - 1`` max flows);
        every later call — any pair, any LC sweep — is a tree-path walk.
        """
        target = self.network.sink if v is None else v
        value = self.cut_tree().min_cut_value(u, target)
        self.cut_queries += 1
        return value


class StructureCache:
    """Fingerprint-keyed LRU of :class:`WarmStructures`.

    Also memoizes ``topology_fingerprint`` per live ``Network`` object
    (weak identity map, so retired networks do not pin memory): the O(E)
    canonical hash runs once per topology object, not once per request.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, WarmStructures]" = OrderedDict()
        self._fingerprints: "weakref.WeakValueDictionary[int, Network]" = (
            weakref.WeakValueDictionary()
        )
        self._fingerprint_by_id: Dict[int, str] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def fingerprint_of(self, network: Network) -> str:
        """Memoized :func:`topology_fingerprint` of a live network object."""
        key = id(network)
        if self._fingerprints.get(key) is network:
            return self._fingerprint_by_id[key]
        fingerprint = topology_fingerprint(network)
        self._fingerprints[key] = network
        self._fingerprint_by_id[key] = fingerprint
        # Drop ids whose network has been garbage collected (id reuse).
        for stale in [
            k for k in self._fingerprint_by_id if k not in self._fingerprints
        ]:
            del self._fingerprint_by_id[stale]
        return fingerprint

    def get(self, fingerprint: str) -> Optional[WarmStructures]:
        """The warm entry for *fingerprint*, refreshing recency; else None."""
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self._entries.move_to_end(fingerprint)
        return entry

    def get_or_create(
        self, fingerprint: str, network: Optional[Network]
    ) -> WarmStructures:
        """Resolve warm structures, creating them when *network* is given.

        A fingerprint-only request (``network is None``) for a topology the
        server has never seen raises :class:`UnknownTopologyError` — the
        client must (re)upload the network.
        """
        entry = self.get(fingerprint)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        if network is None:
            raise UnknownTopologyError(
                f"no registered topology with fingerprint {fingerprint[:16]}…; "
                "send the network once to register it"
            )
        entry = WarmStructures(fingerprint, network)
        self._entries[fingerprint] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return entry

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "cut_queries": sum(e.cut_queries for e in self._entries.values()),
        }
