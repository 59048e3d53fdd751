"""Worker pool: where batched build shards actually execute.

Three modes, one async-facing API (:meth:`WorkerPool.run_shard`):

* ``inline`` — builds run synchronously on the event-loop thread.  Zero
  concurrency, zero pickling, perfectly deterministic scheduling; the mode
  tests and small servers use.
* ``thread`` — builds run on a shared :class:`ThreadPoolExecutor`.  The
  event loop stays responsive while a build computes; CPU parallelism is
  still GIL-bound, so this mode is for latency, not throughput.
* ``process`` — shards are shipped to a shared
  :class:`ProcessPoolExecutor` (the sharded, "as fast as the hardware
  allows" mode).  Work items travel as ``(key, builder, params)`` triples
  next to the topology's pickled payload; each worker process keeps a
  fingerprint-keyed decode memo so a hot topology is unpickled once per
  worker, not once per shard.

The executor is created once and reused for the server's lifetime — the
same discipline :func:`repro.experiments.parallel.parallel_map` supports
via its ``executor`` argument, and :attr:`WorkerPool.executor` exposes the
underlying pool so sweep code can share the very same workers.

Worker-side results cross the process boundary as plain parent maps plus
meta dicts; the server re-binds them to its own ``Network`` object, which
reproduces the identical tree (same parents over the same links ⇒ same
cost/reliability/lifetime floats).  ``BuildResult.raw`` does not survive
the boundary (solver internals are not worth pickling) and is ``None`` for
process-built responses.

Tracing crosses the boundary the same way: a :class:`WorkItem` may carry
the originating request's serialized span context
(:meth:`~repro.obs.spanctx.SpanContext.to_dict`).  The worker mints a
child span id — its process-unique prefix guarantees no collision with
server-side ids — times the build with ``perf_counter``, and ships
``{"ctx": ..., "dur": ...}`` back on the :class:`ShardOutcome`; the
server splices it into the request trace with ``Tracer.add_span``.  With
observability off the context is ``None`` and no clock is read.
"""

from __future__ import annotations

import asyncio
import pickle
import time
import traceback
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.tree import AggregationTree
from repro.engine import BuildResult, build_tree
from repro.experiments.parallel import default_workers
from repro.network.model import Network
from repro.obs.spanctx import SpanContext
from repro.serve.cache import WarmStructures
from repro.utils.rng import reject_generators

__all__ = ["ShardOutcome", "WorkItem", "WorkerPool", "POOL_MODES"]

#: Supported pool modes, in increasing order of machinery.
POOL_MODES = ("inline", "thread", "process")


@dataclass(frozen=True)
class WorkItem:
    """One queued build: the request key plus what the builder needs.

    ``span`` is the originating request's serialized span context
    (``None`` when the server has observability off); it travels with
    the item so the worker-side build span re-attaches to the right
    trace.
    """

    key: str
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

    key: str
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
    try:
        result = build_tree(item.builder, network, **dict(item.params))
        return ShardOutcome(
            key=item.key, result=result, span=_child_span(item.span, start)
        )
    except Exception as exc:  # noqa: BLE001 — reported per item, not fatal
        return ShardOutcome(
            key=item.key,
            result=None,
            error=f"{type(exc).__name__}: {exc}",
            span=_child_span(item.span, start),
        )


def _build_shard_local(
    network: Network, items: Sequence[WorkItem]
) -> List[ShardOutcome]:
    return [_build_one(network, item) for item in items]


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


#: One remote work item on the wire: (key, builder, params, parent span ctx).
_WireItem = Tuple[str, str, Dict[str, Any], Optional[Dict[str, str]]]
#: One remote outcome on the wire: (key, parents, meta, elapsed_s, error, span).
_WireRow = Tuple[
    str,
    Optional[Dict[int, int]],
    Dict[str, Any],
    float,
    Optional[str],
    Optional[Dict[str, Any]],
]


def _build_shard_remote(
    fingerprint: str, payload: bytes, items: Sequence[_WireItem]
) -> List[_WireRow]:
    """Run one shard inside a worker process.

    Returns wire-friendly tuples ``(key, parents, meta, elapsed_s, error,
    span)`` — no ``AggregationTree``/``Network`` objects travel back, only
    the parent map the server re-binds locally plus the worker-measured
    build span (``None`` when the item carried no trace context).
    """
    network = _worker_network(fingerprint, payload)
    out: List[_WireRow] = []
    for key, builder, params, parent_span in items:
        start = time.perf_counter() if parent_span is not None else 0.0
        try:
            result = build_tree(builder, network, **params)
            span = _child_span(parent_span, start)
            out.append(
                (
                    key,
                    dict(result.tree.parents),
                    dict(result.meta),
                    result.elapsed_s,
                    None,
                    span,
                )
            )
        except Exception as exc:  # noqa: BLE001 — reported per item
            detail = f"{type(exc).__name__}: {exc}"
            if not str(exc):
                detail = f"{type(exc).__name__}: {traceback.format_exc(limit=1)}"
            out.append((key, None, {}, 0.0, detail, _child_span(parent_span, start)))
    return out


class WorkerPool:
    """A reusable executor with an async shard-execution front end."""

    def __init__(
        self, mode: str = "inline", n_workers: Optional[int] = None
    ) -> None:
        if mode not in POOL_MODES:
            raise ValueError(
                f"mode must be one of {POOL_MODES}, got {mode!r}"
            )
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.mode = mode
        self.n_workers = (
            1 if mode == "inline" else (n_workers or default_workers())
        )
        self._executor: Optional[Executor] = None
        if mode == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="repro-serve"
            )
        elif mode == "process":
            self._executor = ProcessPoolExecutor(max_workers=self.n_workers)

    @property
    def executor(self) -> Optional[Executor]:
        """The long-lived executor (``None`` in inline mode).

        Exposed so other layers reuse the same workers, e.g.
        ``parallel_map(..., executor=pool.executor)``.
        """
        return self._executor

    @property
    def parallelism(self) -> int:
        """How many shards are worth dispatching concurrently."""
        return self.n_workers

    async def run_shard(
        self, warm: WarmStructures, items: Sequence[WorkItem]
    ) -> List[ShardOutcome]:
        """Execute *items* (all on *warm*'s topology) in this pool.

        Outside inline mode the items' params go to another thread or
        process, so a live ``numpy.random.Generator`` in them raises
        ``ValueError``.
        """
        if not items:
            return []
        if self.mode == "inline":
            return _build_shard_local(warm.network, items)
        for item in items:
            reject_generators(item.params, f"build {item.builder!r}")
        loop = asyncio.get_running_loop()
        if self.mode == "thread":
            return await loop.run_in_executor(
                self._executor,
                _build_shard_local,
                warm.network,
                list(items),
            )
        wire_items = [
            (item.key, item.builder, dict(item.params), item.span)
            for item in items
        ]
        rows = await loop.run_in_executor(
            self._executor,
            _build_shard_remote,
            warm.fingerprint,
            warm.payload(),
            wire_items,
        )
        outcomes: List[ShardOutcome] = []
        by_key = {item.key: item for item in items}
        for key, parents, meta, elapsed, error, span in rows:
            if parents is None:
                outcomes.append(
                    ShardOutcome(key=key, result=None, error=error, span=span)
                )
                continue
            item = by_key[key]
            tree = AggregationTree(warm.network, parents)
            outcomes.append(
                ShardOutcome(
                    key=key,
                    result=BuildResult(
                        builder=item.builder,
                        tree=tree,
                        params=dict(item.params),
                        meta=meta,
                        raw=None,
                        elapsed_s=elapsed,
                    ),
                    span=span,
                )
            )
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
