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

Builders stay pure functions of ``(network, params)``.  On a cache miss
the server binds ``params`` to the builder's signature before queueing,
refusing unknown or missing knobs, and refuses a request to a builder
with a ``seed`` knob that carries no seed (its tree would be one random
draw pinned under a seedless key).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.core.tree import AggregationTree
from repro.network.model import Network

__all__ = [
    "BuildRequest",
    "BuildResponse",
    "CacheInfo",
    "ServeError",
    "ServerOverloadedError",
    "UnknownTopologyError",
    "canonical_params_json",
    "request_key",
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
    """

    builder: str
    tree: AggregationTree
    metrics: Dict[str, Any]
    cache_info: CacheInfo
    trace_id: Optional[str] = None

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
