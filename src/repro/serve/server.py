"""The async tree server: admission → cache → batcher → worker shards.

Request lifecycle (one ``await server.submit(request)``):

1. **Resolve** — the builder name is resolved through the engine registry
   (fail fast on typos) and the topology fingerprint is computed (or taken
   precomputed / memoized from the structure cache).
2. **Cache** — the content-addressed result store is probed with the full
   request key; a hit returns immediately (``cache_info.source ==
   "result"``).  Otherwise, if an *identical* request is already queued or
   building, this one coalesces onto its future (``"inflight"``) — the
   build runs once however many clients ask.
3. **Admission** — a miss whose ``params`` do not bind to the builder's
   signature (an unknown knob, a missing required one), or that asks a
   builder with a ``seed`` knob without a seed, is refused with
   :class:`~repro.serve.request.ServeError`.  If the pending count
   (queued + building) has reached ``max_pending``, the request is
   refused with
   :class:`~repro.serve.request.ServerOverloadedError` *before* touching
   the queue: backpressure rejects new work, never drops accepted work.
   Disconnected topologies are refused here too (no builder can span
   them).
4. **Batch** — the batcher task drains the queue into micro-batches: up to
   ``batch_size`` requests.  With a process pool it waits at most
   ``batch_window_s`` for stragglers after the first arrival; the inline
   pool takes only what is already queued and does not wait, because it
   builds a batch's requests one after another anyway (identical
   requests have already coalesced at ``submit``).  A batch is grouped
   by topology fingerprint and split into shards, which the worker pool
   executes concurrently (processes in ``process`` mode — this is the
   sharded path; see :mod:`repro.serve.workers`).
5. **Resolve futures** — each finished build becomes one
   :class:`~repro.serve.request.ReplyBody` (metrics and wire documents,
   computed once), which populates the result store and wakes every
   coalesced waiter; per-item build errors become exceptions on exactly
   the futures that asked for them.  Every response for a key, the cold
   one included, is cut from that body.

Builders remain pure ``(network, params)`` functions, which is the
whole foundation: identical keys ⇒ identical trees, so serving from cache
is *bitwise* identical to a cold build (pinned per builder in
``tests/test_serve_cache.py``).

Observability: with an active :func:`repro.obs.instrument` session the
server reports ``serve.requests`` / ``serve.cache_hits`` /
``serve.rejected`` counters, ``serve.queue_depth`` / ``serve.inflight``
gauges, and ``serve.batch_size`` / ``serve.build_seconds`` /
``serve.request_seconds`` histograms — all behind ``OBS.enabled`` guards
(lint rule REP102 covers this package).  Each submitted request
additionally gets a trace of its own: a ``serve.request`` root span, a
``serve.queue`` span for time spent waiting on the batcher, and a
``serve.build`` span measured wherever the build ran — including inside
a process worker, whose span context travels out on the
:class:`~repro.serve.workers.WorkItem` and back on the
:class:`~repro.serve.workers.ShardOutcome` (see
:mod:`repro.obs.spanctx`).  The server's :class:`TraceBuffer` is the one
store of these spans (the session tracer does not keep them), and the
response carries ``trace_id`` so a client can fetch them via the
``trace`` TCP op.

Independent of instrumentation, :class:`ServeConfig` may declare
:class:`~repro.obs.slo.SLO` objectives; the server then counts every
``submit`` against the ``build`` objective (latency breaches and errors)
and surfaces burn rates in :meth:`TreeServer.stats`.
"""

from __future__ import annotations

import asyncio
import inspect
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.engine import BuildResult, RegisteredBuilder, get_builder
from repro.network.model import Network
from repro.obs import OBS
from repro.obs.slo import SLO, SLOTracker
from repro.obs.spanctx import SpanContext, activate_span
from repro.obs.trace import TraceEvent
from repro.serve.cache import ResultCache, StructureCache, WarmStructures
from repro.serve.request import (
    BuildRequest,
    BuildResponse,
    CacheInfo,
    ReplyBody,
    ServeError,
    ServerOverloadedError,
    request_key,
    result_body,
)
from repro.serve.workers import ShardOutcome, WorkItem, WorkerPool

__all__ = ["ServeConfig", "TraceBuffer", "TreeServer", "make_response"]

#: Capacity of the content-addressed result store.
RESULT_CACHE_SIZE = 4096
#: Capacity (in topologies) of the warm-structure store.
STRUCTURE_CACHE_SIZE = 256
#: Completed request traces kept for the ``trace`` op.
TRACE_CAPACITY = 512


def make_response(
    result: BuildResult,
    fingerprint: str,
    key: str,
    *,
    hit: bool,
    source: str,
    trace_id: Optional[str] = None,
) -> BuildResponse:
    """Assemble the public response for one finished build.

    Module-level (not a server method) so offline verifiers — the bench
    driver's divergence check, tests — produce byte-identical response
    shapes from a cold :func:`repro.engine.build_tree` call: the server
    cuts its responses from the same :func:`~repro.serve.request.result_body`.
    """
    return _respond(
        result_body(result), fingerprint, key, hit=hit, source=source, trace_id=trace_id
    )


def _respond(
    body: ReplyBody,
    fingerprint: str,
    key: str,
    *,
    hit: bool,
    source: str,
    trace_id: Optional[str],
) -> BuildResponse:
    """One response cut from a stored body: fresh metrics, shared tree."""
    return BuildResponse(
        builder=body.builder,
        tree=body.tree,
        metrics=body.metrics_copy(),
        cache_info=CacheInfo(
            hit=hit, source=source, fingerprint=fingerprint, key=key
        ),
        trace_id=trace_id,
        body=body,
    )


def _check_params(builder: RegisteredBuilder, params: Mapping[str, Any]) -> None:
    """Refuse *params* that *builder* cannot serve, without building.

    They must bind to its signature (no unknown knob, every required knob
    present), and a builder with a ``seed`` knob needs a seed: a seedless
    randomized build would pin one random draw under a seedless key.

    Raises:
        ServeError: Naming the builder and what is wrong.
    """
    try:
        inspect.signature(builder.fn).bind(None, **params)
    except TypeError as exc:
        raise ServeError(f"builder {builder.name!r}: {exc}") from None
    if "seed" in builder.knobs and params.get("seed") is None:
        raise ServeError(
            f"builder {builder.name!r} takes a seed: a served request "
            "must carry params['seed']"
        )


class TraceBuffer:
    """Bounded store of completed request traces (span docs by trace id).

    It is the one store of a served request's spans (request root, queue
    wait, worker build), so a TCP client can fetch one request's span tree
    with the ``trace`` op moments after getting its response.  Append-only
    per trace; evicts whole least-recently-*written* traces beyond
    *capacity*, so a long-lived server holds the most recent few hundred
    requests' traces, never an unbounded log.
    """

    def __init__(self, capacity: int = TRACE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._traces: "OrderedDict[str, List[Dict[str, Any]]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._traces)

    def add(self, trace_id: str, span_doc: Dict[str, Any]) -> None:
        """Append one span document to *trace_id*'s trace."""
        spans = self._traces.get(trace_id)
        if spans is None:
            spans = self._traces[trace_id] = []
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)
        else:
            self._traces.move_to_end(trace_id)
        spans.append(span_doc)

    def get(self, trace_id: str) -> Optional[List[Dict[str, Any]]]:
        """The spans of *trace_id* in record order, or ``None``."""
        spans = self._traces.get(trace_id)
        return list(spans) if spans is not None else None


@dataclass(frozen=True)
class ServeConfig:
    """Scheduler knobs.

    Attributes:
        batch_size: Max requests per micro-batch.
        batch_window_s: How long the batcher of a process pool waits for
            stragglers after the first request of a batch arrives (0
            disables waiting).  The inline pool never waits: it builds a
            batch's requests one after another, so a straggler would gain
            nothing by joining.
        max_pending: Admission ceiling on requests queued or building;
            submissions beyond it raise ``ServerOverloadedError``.
        slos: Declared :class:`~repro.obs.slo.SLO` objectives; an empty
            tuple (the default) disables SLO accounting entirely.
    """

    batch_size: int = 16
    batch_window_s: float = 0.002
    max_pending: int = 1024
    slos: Tuple[SLO, ...] = ()

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be non-negative")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")


@dataclass
class _Pending:
    """One queued build and the future its submitters share.

    ``ctx`` is the first submitter's request span context (``None`` with
    observability off); ``enqueued_at`` is its ``perf_counter`` enqueue
    time, read only to close the ``serve.queue`` span at dispatch.
    """

    key: str
    warm: WarmStructures
    item: WorkItem
    future: "asyncio.Future[ReplyBody]"
    ctx: Optional[SpanContext] = None
    enqueued_at: float = 0.0


class TreeServer:
    """Long-running MRLC-as-a-service front end over the builder registry.

    Use as an async context manager (or call :meth:`start` / :meth:`aclose`
    explicitly)::

        async with TreeServer() as server:
            response = await server.submit(BuildRequest("mst", network=net))

    The server owns its caches; the worker pool is owned only when the
    caller did not pass one in.
    """

    def __init__(
        self,
        *,
        pool: Optional[WorkerPool] = None,
        config: Optional[ServeConfig] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self._pool = pool if pool is not None else WorkerPool(mode="inline")
        self._owns_pool = pool is None
        self.results = ResultCache(RESULT_CACHE_SIZE)
        self.structures = StructureCache(STRUCTURE_CACHE_SIZE)
        self._queue: "asyncio.Queue[_Pending]" = asyncio.Queue()
        self._inflight: Dict[str, _Pending] = {}
        self._batcher: Optional["asyncio.Task[None]"] = None
        self.slo = SLOTracker(self.config.slos)
        self.traces = TraceBuffer()
        # Monotonic stats (cheap ints; obs mirrors them when enabled).
        self.requests = 0
        self.built = 0
        self.coalesced = 0
        self.rejected = 0
        self.batches = 0
        self.max_batch = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "TreeServer":
        """Spawn the batcher task (idempotent)."""
        if self._batcher is None:
            self._batcher = asyncio.create_task(
                self._batch_loop(), name="repro-serve-batcher"
            )
        return self

    async def aclose(self) -> None:
        """Drain nothing, cancel the batcher, fail queued requests."""
        task, self._batcher = self._batcher, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        while not self._queue.empty():
            pending = self._queue.get_nowait()
            if not pending.future.done():
                pending.future.set_exception(
                    ServeError("server closed before the build ran")
                )
        self._inflight.clear()
        if self._owns_pool:
            self._pool.close()

    async def __aenter__(self) -> "TreeServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def register_topology(self, network: Network) -> str:
        """Register *network* for later fingerprint-only requests.

        Returns the topology fingerprint clients should quote.
        """
        fingerprint = self.structures.fingerprint_of(network)
        self.structures.get_or_create(fingerprint, network)
        return fingerprint

    def min_cut(self, fingerprint: str, u: int, v: Optional[int] = None) -> float:
        """Min-cut query against a registered topology's warm cut tree."""
        warm = self.structures.get_or_create(fingerprint, None)
        return warm.min_cut(u, v)

    async def submit(self, request: BuildRequest) -> BuildResponse:
        """Serve one request; see the module docstring for the lifecycle.

        This wrapper owns the request's telemetry: it mints the trace's
        root span context, makes it ambient for the lifecycle, records
        the ``serve.request`` root span and end-to-end latency histogram
        on completion, and counts the request against the ``build`` SLO
        (when one is declared).  With observability off and no SLOs this
        is a single extra branch on the hot path.
        """
        track = bool(self.slo)
        if not OBS.enabled and not track:
            return await self._submit(request, None)
        start = time.perf_counter()
        ctx: Optional[SpanContext] = None
        if OBS.enabled:
            ctx = SpanContext.root()
        try:
            if ctx is not None:
                with activate_span(ctx):
                    response = await self._submit(request, ctx)
            else:
                response = await self._submit(request, None)
        except Exception as exc:
            dur = time.perf_counter() - start
            if track:
                self.slo.record("build", dur, ok=False)
            if OBS.enabled and ctx is not None:
                self._record_span(
                    "serve.request",
                    dur,
                    ctx,
                    builder=request.builder,
                    error=type(exc).__name__,
                )
            raise
        dur = time.perf_counter() - start
        if track:
            self.slo.record("build", dur, ok=True)
        if OBS.enabled and ctx is not None:
            OBS.registry.histogram(
                "serve.request_seconds", builder=request.builder
            ).observe(dur)
            self._record_span(
                "serve.request",
                dur,
                ctx,
                builder=request.builder,
                source=response.cache_info.source,
            )
        return response

    async def _submit(
        self, request: BuildRequest, ctx: Optional[SpanContext]
    ) -> BuildResponse:
        if self._batcher is None:
            raise ServeError("server not started; use `async with TreeServer()`")
        builder = get_builder(request.builder)  # fail fast before any queueing
        params = request.params
        if request.fingerprint is not None:
            fingerprint = request.fingerprint
        else:
            fingerprint = self.structures.fingerprint_of(request.network)
        warm = self.structures.get_or_create(fingerprint, request.network)
        key = request_key(fingerprint, request.builder, params)
        trace_id = ctx.trace_id if ctx is not None else None

        self.requests += 1
        if OBS.enabled:
            OBS.registry.counter(
                "serve.requests", builder=request.builder
            ).inc()

        cached = self.results.get(key)
        if cached is not None:
            if OBS.enabled:
                OBS.registry.counter("serve.cache_hits", tier="result").inc()
            return _respond(
                cached, fingerprint, key, hit=True, source="result", trace_id=trace_id
            )

        pending = self._inflight.get(key)
        if pending is not None:
            self.coalesced += 1
            if OBS.enabled:
                OBS.registry.counter("serve.cache_hits", tier="inflight").inc()
            body = await asyncio.shield(pending.future)
            return _respond(
                body, fingerprint, key, hit=True, source="inflight", trace_id=trace_id
            )

        # Admission control: refuse what cannot build, bound queued +
        # building work.
        _check_params(builder, params)
        if len(self._inflight) >= self.config.max_pending:
            self.rejected += 1
            if OBS.enabled:
                OBS.registry.counter("serve.rejected").inc()
            raise ServerOverloadedError(
                f"{len(self._inflight)} requests pending "
                f"(max_pending={self.config.max_pending}); retry later"
            )
        if not warm.is_connected():
            raise ServeError(
                "topology is disconnected; no spanning aggregation tree exists"
            )

        loop = asyncio.get_running_loop()
        entry = _Pending(
            key=key,
            warm=warm,
            item=WorkItem(
                builder=request.builder,
                params=params,
                span=ctx.to_dict() if ctx is not None else None,
            ),
            future=loop.create_future(),
            ctx=ctx,
            enqueued_at=time.perf_counter() if ctx is not None else 0.0,
        )
        self._inflight[key] = entry
        self._queue.put_nowait(entry)
        if OBS.enabled:
            OBS.registry.gauge("serve.queue_depth").set(self._queue.qsize())
            OBS.registry.gauge("serve.inflight").set(len(self._inflight))
        body = await asyncio.shield(entry.future)
        return _respond(
            body, fingerprint, key, hit=False, source="built", trace_id=trace_id
        )

    async def submit_many(
        self, requests: Iterable[BuildRequest]
    ) -> List[BuildResponse]:
        """Submit concurrently and gather in request order."""
        return list(
            await asyncio.gather(*(self.submit(r) for r in requests))
        )

    def queue_depth(self) -> int:
        """Requests waiting for the batcher right now."""
        return self._queue.qsize()

    def inflight_count(self) -> int:
        """Requests queued or building right now."""
        return len(self._inflight)

    def trace_spans(self, trace_id: str) -> Optional[List[Dict[str, Any]]]:
        """Spans recorded for one request trace (``None`` if unknown)."""
        return self.traces.get(trace_id)

    def stats(self) -> Dict[str, Any]:
        """One flat snapshot of scheduler + cache + budget health."""
        served = self.results.hits + self.coalesced
        return {
            "requests": self.requests,
            "built": self.built,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "batches": self.batches,
            "max_batch": self.max_batch,
            "queue_depth": self.queue_depth(),
            "inflight": self.inflight_count(),
            "hit_rate": served / self.requests if self.requests else 0.0,
            "result_cache": self.results.stats(),
            "structure_cache": self.structures.stats(),
            "pool_mode": self._pool.mode,
            "pool_workers": self._pool.n_workers,
            "slo": self.slo.snapshot(),
            "traces_buffered": len(self.traces),
        }

    # ------------------------------------------------------------------
    # Scheduler internals
    # ------------------------------------------------------------------
    def _record_span(
        self,
        name: str,
        dur: float,
        ctx: SpanContext,
        **fields: Any,
    ) -> None:
        """Keep one span that just finished, measured here or in a worker.

        The span goes to the trace buffer only; its ``t`` is on the
        session tracer's clock (now minus *dur*, clamped at the epoch).
        """
        if OBS.enabled:
            event = TraceEvent(
                name=name,
                kind="span",
                t=max(0.0, OBS.tracer.now() - dur),
                dur=dur,
                fields=fields,
                trace_id=ctx.trace_id,
                span_id=ctx.span_id,
                parent_id=ctx.parent_id,
            )
            self.traces.add(ctx.trace_id, event.to_doc())

    async def _collect_batch(self) -> List[_Pending]:
        """Block for the first request, then drain what is queued.

        A process pool then waits up to ``batch_window_s`` for stragglers,
        which can run in a second worker or share the shard's round trip.
        The inline pool runs a batch's builds one after another on the
        event loop, each on its own, so a straggler gains nothing by
        joining and the inline pool does not wait.
        """
        first = await self._queue.get()
        batch = [first]
        window = 0.0 if self._pool.mode == "inline" else self.config.batch_window_s
        loop = asyncio.get_running_loop()
        deadline = loop.time() + window
        while len(batch) < self.config.batch_size:
            if not self._queue.empty():
                batch.append(self._queue.get_nowait())
                continue
            remaining = deadline - loop.time()
            if remaining <= 0 or window == 0:
                break
            try:
                batch.append(
                    await asyncio.wait_for(self._queue.get(), remaining)
                )
            except asyncio.TimeoutError:
                break
        return batch

    def _shard(self, batch: List[_Pending]) -> List[Tuple[WarmStructures, List[_Pending]]]:
        """Group by topology, then split groups across pool parallelism."""
        groups: Dict[str, List[_Pending]] = {}
        for pending in batch:
            groups.setdefault(pending.warm.fingerprint, []).append(pending)
        shard_cap = max(
            1, (len(batch) + self._pool.parallelism - 1) // self._pool.parallelism
        )
        shards: List[Tuple[WarmStructures, List[_Pending]]] = []
        for members in groups.values():
            for start in range(0, len(members), shard_cap):
                chunk = members[start : start + shard_cap]
                shards.append((chunk[0].warm, chunk))
        return shards

    async def _batch_loop(self) -> None:
        while True:
            batch = await self._collect_batch()
            self.batches += 1
            self.max_batch = max(self.max_batch, len(batch))
            if OBS.enabled:
                OBS.registry.counter("serve.batches").inc()
                OBS.registry.histogram("serve.batch_size").observe(len(batch))
                OBS.registry.gauge("serve.queue_depth").set(self._queue.qsize())
                dispatched_at = time.perf_counter()
                for pending in batch:
                    if pending.ctx is not None:
                        self._record_span(
                            "serve.queue",
                            dispatched_at - pending.enqueued_at,
                            pending.ctx.child(),
                            batch=len(batch),
                        )
            shards = self._shard(batch)
            outcomes = await asyncio.gather(
                *(
                    self._pool.run_shard(warm, [p.item for p in members])
                    for warm, members in shards
                ),
                return_exceptions=True,
            )
            for (warm, members), shard_result in zip(shards, outcomes):
                if isinstance(shard_result, BaseException):
                    self._fail_shard(members, shard_result)
                    continue
                self._settle_shard(members, shard_result)

    def _fail_shard(
        self, members: List[_Pending], error: BaseException
    ) -> None:
        for pending in members:
            self._inflight.pop(pending.key, None)
            if not pending.future.done():
                pending.future.set_exception(
                    ServeError(f"worker shard failed: {error!r}")
                )

    def _settle_shard(
        self, members: List[_Pending], outcomes: List[ShardOutcome]
    ) -> None:
        for pending, outcome in zip(members, outcomes):
            self._inflight.pop(pending.key, None)
            if OBS.enabled and outcome.span is not None:
                # Splice the worker-measured build span (possibly minted in
                # another process) back into the originating request trace.
                self._record_span(
                    "serve.build",
                    float(outcome.span["dur"]),
                    SpanContext.from_dict(outcome.span["ctx"]),
                    builder=pending.item.builder,
                    mode=self._pool.mode,
                    error=outcome.error is not None,
                )
            if pending.future.done():
                continue
            if outcome.result is None:
                pending.future.set_exception(
                    ServeError(f"build failed: {outcome.error}")
                )
            else:
                self.built += 1
                body = result_body(outcome.result)
                self.results.put(pending.key, body)
                if OBS.enabled:
                    OBS.registry.counter(
                        "serve.builds", builder=outcome.result.builder
                    ).inc()
                    OBS.registry.histogram(
                        "serve.build_seconds", builder=outcome.result.builder
                    ).observe(outcome.result.elapsed_s)
                    OBS.registry.gauge("serve.inflight").set(
                        len(self._inflight)
                    )
                pending.future.set_result(body)
