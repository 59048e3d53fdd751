"""JSON-lines wire protocol for the tree server.

Each request and response is one JSON document per line.  Operations:

``{"op": "ping"}``
    → ``{"ok": true, "op": "ping"}`` — liveness probe.

``{"op": "register", "network": {<repro-network doc>}}``
    → ``{"ok": true, "fingerprint": "..."}`` — upload a topology once;
    later builds may reference it by fingerprint only.

``{"op": "build", "builder": "ira", "network": {...} | null,
"fingerprint": "..." | null, "params": {"lc": 900000}, "id": "anything"}``
    → ``{"ok": true, "id": ..., "builder": ..., "fingerprint": ...,
    "key": ..., "cache": {"hit": ..., "source": ...}, "metrics": {...},
    "tree": {<repro-tree doc>}}`` — the build itself.  ``id`` is echoed
    verbatim so clients can pipeline requests on one connection.  Every
    knob goes in ``params`` under the builder's knob name; a top-level
    ``lc`` or ``seed`` is refused.  On a cache miss the server refuses,
    before queueing, params that do not bind to the builder's knobs
    (unknown or missing required) and a request to a builder with a
    ``seed`` knob that carries no seed.

``{"op": "stats"}``
    → ``{"ok": true, "stats": {...}}`` — the server's
    :meth:`~repro.serve.server.TreeServer.stats` snapshot.

``{"op": "min_cut", "fingerprint": "...", "u": 3, "v": 0}``
    → ``{"ok": true, "value": ...}`` — probe the topology's memoized
    Gomory–Hu structure (``v`` defaults to the sink).

``{"op": "metrics", "format": "prometheus" | "json"}``
    → ``{"ok": true, "format": "prometheus", "enabled": ..., "body":
    "<exposition text>"}`` or ``{"ok": true, "format": "json",
    "enabled": ..., "metrics": {...}}`` — a live export of the server's
    metrics registry (Prometheus text or JSON snapshot).  ``enabled`` is
    ``false`` (and the registry payload empty) when the server runs
    without an instrumentation session.  The server keeps no history;
    ``repro obs top`` keeps its own from successive replies.

``{"op": "trace", "trace": "<trace_id>"}``
    → ``{"ok": true, "trace": ..., "spans": [...]}`` — the span
    documents of one request's trace, as quoted by a build response's
    ``trace`` key.  Unknown (or expired) ids are ``bad-request`` errors.

When the server traced a build, its response carries a ``trace`` key with
the request's trace id.

Errors come back as ``{"ok": false, "error": "...", "kind":
"overloaded" | "unknown-topology" | "bad-request"}`` with the request
``id`` echoed when present; ``overloaded`` is the backpressure signal and
the only kind worth retrying verbatim.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.network.serialization import network_from_dict
from repro.serve.request import (
    BuildRequest,
    BuildResponse,
    ServeError,
    ServerOverloadedError,
    UnknownTopologyError,
    reply_body,
)

__all__ = [
    "decode_build_request",
    "encode_error",
    "encode_response",
]


def decode_build_request(doc: Dict[str, Any]) -> BuildRequest:
    """Parse a ``build`` op document into a :class:`BuildRequest`.

    Raises :class:`ServeError` on structural problems so the transport can
    answer with a ``bad-request`` error instead of dropping the line.
    """
    builder = doc.get("builder")
    if not isinstance(builder, str) or not builder:
        raise ServeError("build request needs a 'builder' name")
    network_doc = doc.get("network")
    network = None
    if network_doc is not None:
        try:
            network = network_from_dict(network_doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"bad network document: {exc}") from exc
    params = doc.get("params") or {}
    if not isinstance(params, dict):
        raise ServeError("'params' must be an object")
    fingerprint = doc.get("fingerprint")
    if fingerprint is not None and not isinstance(fingerprint, str):
        raise ServeError("'fingerprint' must be a string")
    for knob in ("lc", "seed"):
        if knob in doc:
            raise ServeError(
                f"top-level {knob!r} is not a build field; send it as "
                f"params[{knob!r}]"
            )
    return BuildRequest(
        builder=builder, network=network, params=params, fingerprint=fingerprint
    )


def encode_response(
    response: BuildResponse, request_id: Optional[Any] = None
) -> Dict[str, Any]:
    """Serialize a :class:`BuildResponse` to its wire document.

    A response the server cut from a stored
    :class:`~repro.serve.request.ReplyBody` is encoded from that body's
    wire documents, copied, so encoding a hit re-derives nothing.  The
    served content is the body's: the response's own ``metrics`` dict is
    the caller's copy.
    """
    info = response.cache_info
    body = response.body
    if body is None:
        body = reply_body(response.builder, response.tree, response.metrics)
    metrics, tree = body.wire_copy()
    doc: Dict[str, Any] = {
        "ok": True,
        "builder": response.builder,
        "fingerprint": info.fingerprint,
        "key": info.key,
        "cache": {"hit": info.hit, "source": info.source},
        "metrics": metrics,
        "tree": tree,
    }
    if response.trace_id is not None:
        doc["trace"] = response.trace_id
    if request_id is not None:
        doc["id"] = request_id
    return doc


def encode_error(
    error: BaseException, request_id: Optional[Any] = None
) -> Dict[str, Any]:
    """Serialize any serve-side failure to its wire document."""
    if isinstance(error, ServerOverloadedError):
        kind = "overloaded"
    elif isinstance(error, UnknownTopologyError):
        kind = "unknown-topology"
    else:
        kind = "bad-request"
    doc: Dict[str, Any] = {
        "ok": False,
        "kind": kind,
        "error": f"{type(error).__name__}: {error}",
    }
    if request_id is not None:
        doc["id"] = request_id
    return doc
