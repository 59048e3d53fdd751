"""Typed request/response model for the tree-serving layer.

A :class:`BuildRequest` names *what* to build — a topology, a registered
builder and its config knobs — and the server answers with a
:class:`BuildResponse` carrying the tree, its summary metrics, and a
:class:`CacheInfo` describing where the answer came from.

A request has one spelling: every knob, the lifetime bound ``lc`` and the
``seed`` included, lives in ``params`` under the builder's own knob name.

Two derived identities make the cache tiers work:

* the **topology fingerprint** (:func:`repro.network.serialization.
  topology_fingerprint`) — content address of the network alone, shared by
  every request on that topology regardless of builder or knobs;
* the **request key** (:func:`request_key`) — SHA-256 over fingerprint +
  builder name + the canonical JSON of ``params``, so knob ordering and
  numpy scalar types never split a cache slot.

A finished build is turned into its :class:`ReplyBody` once
(:func:`reply_body`): the metrics dict, and the wire-ready metrics and
tree documents.  Every response for that key, the cold one included, is
cut from the same body, so a hit and a cold build stay byte-identical and
a hit walks no tree.

Builders stay pure functions of ``(network, params)``.  On a cache miss
the server binds ``params`` to the builder's signature before queueing,
refusing unknown or missing knobs, and refuses a request to a builder
with a ``seed`` knob that carries no seed (its tree would be one random
draw pinned under a seedless key).
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.tree import AggregationTree
from repro.engine import BuildResult
from repro.network.model import Network
from repro.network.serialization import tree_to_dict
from repro.obs.trace import json_safe

__all__ = [
    "BuildRequest",
    "BuildResponse",
    "CacheInfo",
    "ReplyBody",
    "ServeError",
    "ServerOverloadedError",
    "UnknownTopologyError",
    "canonical_params_json",
    "reply_body",
    "request_key",
    "result_body",
]


class ServeError(RuntimeError):
    """Base class for tree-serving errors (bad requests, admission, ...)."""


class ServerOverloadedError(ServeError):
    """Raised at admission when the pending-request ceiling is reached.

    This is the backpressure signal: the request was *not* queued, and the
    client should retry after backing off (or the load driver should slow
    down).  Queued work is never dropped.
    """


class UnknownTopologyError(ServeError):
    """A fingerprint-only request referenced a topology never registered."""


@dataclass(frozen=True)
class BuildRequest:
    """One tree-construction request.

    Attributes:
        builder: Registry name of the algorithm (``"ira"``, ``"mst"``, ...).
        network: The topology to build on.  May be ``None`` when
            *fingerprint* names a topology the server has already seen —
            the wire protocol uses this so clients upload a network once
            and then address it by content hash.
        params: Builder config knobs by knob name (``{"lc": ...}``,
            ``{"seed": ...}``, ...); the server binds them to the builder's
            signature on a cache miss.
        fingerprint: Optional precomputed topology fingerprint; trusted as
            the topology's identity when given, so hot clients fingerprint
            once per topology instead of once per request.
    """

    builder: str
    network: Optional[Network] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    fingerprint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.network is None and self.fingerprint is None:
            raise ServeError(
                "BuildRequest needs a network or a fingerprint referencing "
                "a previously registered topology"
            )
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True)
class CacheInfo:
    """Where a response came from, for observability and tests.

    Attributes:
        hit: Whether the build itself was skipped (result-store hit or
            coalesced onto an identical in-flight request).
        source: ``"result"`` (content-addressed store), ``"inflight"``
            (coalesced), or ``"built"`` (cold build this request).
        fingerprint: Topology fingerprint of the request.
        key: Full request key (fingerprint + builder + params).
    """

    hit: bool
    source: str
    fingerprint: str
    key: str


#: Metric value types that are immutable, so copies may share them.
_IMMUTABLE = (type(None), str, int, float, bool)


@dataclass(frozen=True)
class ReplyBody:
    """Everything a response for one finished build serves, computed once.

    The server keeps one body per :class:`~repro.serve.cache.ResultCache`
    entry and cuts every response for that key from it (:meth:`metrics_copy`,
    :meth:`wire_copy`), so a hit runs no ``C(T)`` / ``Q(T)`` / ``L(T)``
    walk, no ``tree_to_dict`` and no ``json_safe``.  Callers get copies:
    mutating what a response hands out never changes a later hit.

    Attributes:
        builder: Registry name that produced the tree.
        tree: The built (frozen) tree; shared, since it cannot change.
        metrics: ``cost`` / ``reliability`` / ``lifetime`` / ``elapsed_s``
            plus the builder's meta entries, as built.
        wire_metrics: ``metrics`` coerced to plain JSON types.
        wire_tree: The tree's ``tree_to_dict`` document.
        nested: Keys of ``metrics`` whose values may be mutable.
        wire_nested: Keys of ``wire_metrics`` holding lists or dicts.
    """

    builder: str
    tree: AggregationTree
    metrics: Dict[str, Any]
    wire_metrics: Dict[str, Any]
    wire_tree: Dict[str, Any]
    nested: Tuple[str, ...]
    wire_nested: Tuple[str, ...]

    def metrics_copy(self) -> Dict[str, Any]:
        """A fresh metrics dict; its mutable values are deep copies."""
        return _fresh(self.metrics, self.nested)

    def wire_copy(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Fresh ``(metrics, tree)`` wire documents for one reply."""
        tree = dict(self.wire_tree)
        tree["parents"] = dict(tree["parents"])
        return _fresh(self.wire_metrics, self.wire_nested), tree


def _fresh(values: Dict[str, Any], nested: Tuple[str, ...]) -> Dict[str, Any]:
    out = dict(values)
    for key in nested:
        out[key] = _copy(out[key])
    return out


def _copy(value: Any) -> Any:
    """A deep copy; plain dicts and lists (all a wire document holds) are
    copied directly, at a third of ``copy.deepcopy``'s cost."""
    kind = type(value)
    if kind is dict:
        return {k: _copy(v) for k, v in value.items()}
    if kind is list:
        return [_copy(v) for v in value]
    if kind in _IMMUTABLE:
        return value
    return copy.deepcopy(value)


def _mutable_keys(values: Mapping[str, Any]) -> Tuple[str, ...]:
    return tuple(k for k, v in values.items() if not isinstance(v, _IMMUTABLE))


def reply_body(
    builder: str, tree: AggregationTree, metrics: Dict[str, Any]
) -> ReplyBody:
    """The :class:`ReplyBody` serving *metrics* and *tree*.

    *metrics* is owned by the body from here on; pass a dict no one else
    mutates.
    """
    wire_metrics = {str(k): json_safe(v) for k, v in metrics.items()}
    wire_tree = tree_to_dict(tree)
    # Interned node labels: every stored body shares one key string per
    # label, which halves a body at n=500.
    wire_tree["parents"] = {
        sys.intern(v): p for v, p in wire_tree["parents"].items()
    }
    return ReplyBody(
        builder=builder,
        tree=tree,
        metrics=metrics,
        wire_metrics=wire_metrics,
        wire_tree=wire_tree,
        nested=_mutable_keys(metrics),
        wire_nested=_mutable_keys(wire_metrics),
    )


def result_body(result: BuildResult) -> ReplyBody:
    """The :class:`ReplyBody` of a finished build: its three paper metrics
    (``C(T)``, ``Q(T)``, ``L(T)``), its wall time, then its meta entries."""
    metrics: Dict[str, Any] = {
        "cost": result.cost,
        "reliability": result.reliability,
        "lifetime": result.lifetime,
        "elapsed_s": result.elapsed_s,
    }
    for name, value in result.meta.items():
        metrics.setdefault(name, _copy(value))
    return reply_body(result.builder, result.tree, metrics)


@dataclass(frozen=True)
class BuildResponse:
    """The server's answer to one :class:`BuildRequest`.

    Attributes:
        builder: Registry name that produced the tree.
        tree: The constructed aggregation tree.
        metrics: Flat summary — ``cost`` / ``reliability`` / ``lifetime`` /
            ``elapsed_s`` plus the builder's own meta entries.
        cache_info: Provenance of the answer (cache tier, keys).
        trace_id: Request trace id when the server had instrumentation
            active; quote it to the ``trace`` TCP op to fetch this
            request's span tree.  ``None`` with observability off.
            Excluded from :meth:`signature` — provenance, not content.
        body: The stored :class:`ReplyBody` this response was cut from;
            :func:`~repro.serve.protocol.encode_response` encodes its wire
            documents instead of re-deriving them.  ``None`` for a response
            assembled by hand, which is encoded from its own fields.
    """

    builder: str
    tree: AggregationTree
    metrics: Dict[str, Any]
    cache_info: CacheInfo
    trace_id: Optional[str] = None
    body: Optional[ReplyBody] = field(default=None, repr=False, compare=False)

    def signature(self) -> str:
        """Canonical text form of the *served content* (tree + metrics).

        Two responses are bitwise-identical answers iff their signatures
        are equal: parents in sorted node order and every float rendered
        with ``repr`` (the shortest exact round-trip form).  Tests use this
        to pin that cache hits equal cold builds without comparing floats
        with ``==`` at hundreds of call sites.
        """
        parents = ",".join(
            f"{v}:{p}" for v, p in sorted(self.tree.parents.items())
        )
        metrics = ",".join(
            f"{k}={_canonical_scalar(self.metrics[k])}"
            for k in sorted(self.metrics)
        )
        return f"{self.builder}|{parents}|{metrics}"


def _canonical_scalar(value: Any) -> Any:
    """Normalize one leaf value for hashing/signatures (dtype-stable)."""
    if isinstance(value, bool):  # before int: bool is an int subclass
        return value
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return int(value)
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical_scalar(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _canonical_scalar(v) for k, v in value.items()}
    return repr(value)


def canonical_params_json(params: Mapping[str, Any]) -> str:
    """Sorted-key, dtype-normalized JSON of a params mapping.

    Key order and numpy scalar types never change the output, so the
    request key is stable across call-site styles.
    """
    return json.dumps(
        {str(k): _canonical_scalar(v) for k, v in params.items()},
        sort_keys=True,
        separators=(",", ":"),
    )


def request_key(fingerprint: str, builder: str, params: Mapping[str, Any]) -> str:
    """Content address of one (topology, builder, params) build."""
    material = f"{fingerprint}|{builder}|{canonical_params_json(params)}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()
