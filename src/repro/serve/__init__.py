"""MRLC-as-a-service: the async, cached, sharded tree-serving layer.

ROADMAP item 1: wrap the builder registry in a long-running service.
Clients submit :class:`BuildRequest` objects (topology + builder + its
knobs, the LC bound and seed among them); a :class:`TreeServer` batches compatible
requests, shards batches across a reusable :class:`WorkerPool`, and serves
repeat queries from a two-tier cache — a content-addressed
:class:`~repro.serve.cache.ResultCache` keyed by
(:func:`~repro.network.serialization.topology_fingerprint`, builder,
canonical params), plus per-fingerprint
:class:`~repro.serve.cache.WarmStructures` (pickled payloads, connectivity,
memoized Gomory–Hu min-cut trees) that nearby-LC queries reuse warm.

In-process usage::

    from repro.serve import BuildRequest, TreeServer

    async with TreeServer() as server:
        response = await server.submit(
            BuildRequest("ira", network=net, params={"lc": 900_000})
        )
        response.tree.reliability()
        response.cache_info.hit     # False the first time, True after

Over the wire: ``repro serve run`` starts the JSON-lines TCP front end
(:mod:`repro.serve.tcp`).  ``repro bench serve`` drives the synthetic
repeat-query workload of :mod:`repro.serve.bench`, whose reports feed
``BENCH_serve.json``.  The full architecture is documented in
``docs/serving.md``.
"""

from repro.serve.cache import ResultCache, StructureCache, WarmStructures
from repro.serve.request import (
    BuildRequest,
    BuildResponse,
    CacheInfo,
    ServeError,
    ServerOverloadedError,
    UnknownTopologyError,
    canonical_params_json,
    request_key,
)
from repro.serve.server import ServeConfig, TraceBuffer, TreeServer, make_response
from repro.serve.workers import POOL_MODES, ShardOutcome, WorkItem, WorkerPool

__all__ = [
    "BuildRequest",
    "BuildResponse",
    "CacheInfo",
    "POOL_MODES",
    "ResultCache",
    "ServeConfig",
    "ServeError",
    "ServerOverloadedError",
    "ShardOutcome",
    "StructureCache",
    "TraceBuffer",
    "TreeServer",
    "UnknownTopologyError",
    "WarmStructures",
    "WorkItem",
    "WorkerPool",
    "canonical_params_json",
    "make_response",
    "request_key",
]
