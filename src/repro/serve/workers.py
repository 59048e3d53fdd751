"""Worker pool: where batched build shards actually execute.

Two modes, one async-facing API (:meth:`WorkerPool.run_shard`):

* ``inline`` — builds run synchronously on the event-loop thread.  Zero
  concurrency, zero pickling, perfectly deterministic scheduling; the mode
  tests and small servers use.  A shard holding an LP build
  (:data:`SOLVER_BUILDERS`) first loads the solver in a thread, so its
  one-time import does not hold the loop.
* ``process`` — shards are shipped to a :class:`ProcessPoolExecutor`
  (the sharded, "as fast as the hardware allows" mode).  Work items
  travel as ``(builder, params)`` pairs next to the topology's pickled
  payload; each worker process keeps a fingerprint-keyed decode memo so
  a hot topology is unpickled once per worker, not once per shard.

The executor is created once and reused for the server's lifetime.  It is
not :mod:`repro.engine.pool`'s shared pool: a timed-out portfolio race
kills that pool's workers, and a server's in-flight shards must not die
with them.  Both modes build through :mod:`repro.engine.pool`'s one
remote-build path, so a failed build reads ``"ExcType: message"`` in
either mode, and a process-built tree is re-bound to the server's own
``Network`` by :func:`~repro.engine.pool.bind_row` (bitwise the same
tree).

Tracing crosses the boundary the same way: a :class:`WorkItem` may carry
the originating request's serialized span context
(:meth:`~repro.obs.spanctx.SpanContext.to_dict`).  The worker mints a
child span id — its process-unique prefix guarantees no collision with
server-side ids — times the build with ``perf_counter``, and ships
``{"ctx": ..., "dur": ...}`` back on the :class:`ShardOutcome`; the
server keeps it with the request's other spans in its
:class:`~repro.serve.server.TraceBuffer`.  With observability off the
context is ``None`` and no clock is read.

A shard's outcomes come back in item order, one per item, so nothing on
an item or an outcome names the request it belongs to.
"""

from __future__ import annotations

import asyncio
import pickle
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.lp import load_highs
from repro.engine import BuildResult
from repro.engine.pool import (
    BuildRow,
    attempt_build,
    bind_row,
    default_workers,
    remote_build,
)
from repro.network.model import Network
from repro.obs.spanctx import SpanContext
from repro.serve.cache import WarmStructures
from repro.utils.rng import reject_generators

__all__ = ["ShardOutcome", "WorkItem", "WorkerPool", "POOL_MODES"]

#: Builders that solve an LP or MILP.  The first such build in a process
#: imports ``scipy.optimize`` (~0.5 s), so an inline shard holding one
#: does that import in a thread first instead of on the event loop.  (A
#: portfolio told to race ``ira`` in-process still imports it inline.)
SOLVER_BUILDERS = frozenset({"ira", "exact"})

#: Supported pool modes, in increasing order of machinery.
POOL_MODES = ("inline", "process")


@dataclass(frozen=True)
class WorkItem:
    """One queued build: what the builder needs.

    ``span`` is the originating request's serialized span context
    (``None`` when the server has observability off); it travels with
    the item so the worker-side build span re-attaches to the right
    trace.
    """

    builder: str
    params: Mapping[str, Any]
    span: Optional[Dict[str, str]] = None


@dataclass(frozen=True)
class ShardOutcome:
    """One work item's result: a build or a re-raisable error string.

    ``span`` (when the item carried a parent context) is
    ``{"ctx": <serialized child SpanContext>, "dur": seconds}`` — the
    worker-measured build span for the server to splice into the trace.
    It is attached to error outcomes too: failed builds take time.
    """

    result: Optional[BuildResult]
    error: Optional[str] = None
    span: Optional[Dict[str, Any]] = None


def _child_span(
    parent: Optional[Dict[str, str]], start: float
) -> Optional[Dict[str, Any]]:
    """Close a worker-side build span against its shipped parent context."""
    if parent is None:
        return None
    child = SpanContext.from_dict(parent).child()
    return {"ctx": child.to_dict(), "dur": time.perf_counter() - start}


def _build_one(network: Network, item: WorkItem) -> ShardOutcome:
    start = time.perf_counter() if item.span is not None else 0.0
    result, error, _ = attempt_build(network, item.builder, item.params)
    return ShardOutcome(result, error, _child_span(item.span, start))


# ----------------------------------------------------------------------
# Process-mode plumbing (module-level: must pickle by reference)
# ----------------------------------------------------------------------

#: Per-worker-process decode memo: fingerprint -> Network.  Bounded FIFO so
#: a long-lived worker serving many topologies cannot grow without limit.
_WORKER_NETWORKS: "OrderedDict[str, Network]" = OrderedDict()
_WORKER_MEMO_CAPACITY = 64


def _worker_network(fingerprint: str, payload: bytes) -> Network:
    network = _WORKER_NETWORKS.get(fingerprint)
    if network is None:
        network = pickle.loads(payload)
        _WORKER_NETWORKS[fingerprint] = network
        while len(_WORKER_NETWORKS) > _WORKER_MEMO_CAPACITY:
            _WORKER_NETWORKS.popitem(last=False)
    else:
        _WORKER_NETWORKS.move_to_end(fingerprint)
    return network


#: One remote work item on the wire: (builder, params, parent span ctx).
_WireItem = Tuple[str, Dict[str, Any], Optional[Dict[str, str]]]
#: One remote outcome on the wire, in item order: (build row, worker span).
_WireRow = Tuple[BuildRow, Optional[Dict[str, Any]]]


def _build_shard_remote(
    fingerprint: str, payload: bytes, items: Sequence[_WireItem]
) -> List[_WireRow]:
    """Run one shard inside a worker process.

    No ``AggregationTree``/``Network`` objects travel back, only each
    item's :data:`~repro.engine.pool.BuildRow` plus the worker-measured
    build span (``None`` when the item carried no trace context).
    """
    network = _worker_network(fingerprint, payload)
    out: List[_WireRow] = []
    for builder, params, parent_span in items:
        start = time.perf_counter() if parent_span is not None else 0.0
        row = remote_build(network, builder, params)
        out.append((row, _child_span(parent_span, start)))
    return out


class WorkerPool:
    """A reusable executor with an async shard-execution front end."""

    def __init__(self, mode: str = "inline", n_workers: Optional[int] = None) -> None:
        if mode not in POOL_MODES:
            raise ValueError(f"mode must be one of {POOL_MODES}, got {mode!r}")
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.mode = mode
        self.n_workers = 1 if mode == "inline" else (n_workers or default_workers())
        self._executor: Optional[ProcessPoolExecutor] = None
        if mode == "process":
            self._executor = ProcessPoolExecutor(max_workers=self.n_workers)

    @property
    def parallelism(self) -> int:
        """How many shards are worth dispatching concurrently."""
        return self.n_workers

    async def run_shard(
        self, warm: WarmStructures, items: Sequence[WorkItem]
    ) -> List[ShardOutcome]:
        """Execute *items* (all on *warm*'s topology) in this pool.

        Returns one outcome per item, in item order.  In process mode the
        items' params go to another process, so a live
        ``numpy.random.Generator`` in them raises ``ValueError``.
        """
        if not items:
            return []
        if self.mode == "inline":
            if any(item.builder in SOLVER_BUILDERS for item in items):
                await asyncio.to_thread(load_highs)
            return [_build_one(warm.network, item) for item in items]
        for item in items:
            reject_generators(item.params, f"build {item.builder!r}")
        loop = asyncio.get_running_loop()
        wire_items = [(item.builder, dict(item.params), item.span) for item in items]
        rows = await loop.run_in_executor(
            self._executor,
            _build_shard_remote,
            warm.fingerprint,
            warm.payload(),
            wire_items,
        )
        outcomes: List[ShardOutcome] = []
        for item, (row, span) in zip(items, rows, strict=True):
            result, error, _ = bind_row(warm.network, item.builder, item.params, row)
            outcomes.append(ShardOutcome(result, error, span))
        return outcomes

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
