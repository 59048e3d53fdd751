"""Live serve telemetry: snapshot loop, time-series rings, trace buffer.

Two pieces that turn the server's instantaneous state into *queryable
history*:

* :class:`ServeTelemetry` — a periodic sampler (one asyncio task, started
  and stopped with the server) that appends the scheduler's health
  signals into bounded :class:`~repro.obs.export.TimeSeriesRing` buffers:
  queue depth, in-flight count, cumulative hit rate, requests/sec, and —
  when instrumentation is on — per-stage p50/p99 latency read from the
  ``serve.request_seconds`` / ``serve.build_seconds`` histograms.  The
  ``metrics`` TCP op and ``repro obs top`` read these rings.
* :class:`TraceBuffer` — a bounded LRU of completed request traces keyed
  by trace id.  It is the one store of a served request's spans (request
  root, queue wait, worker build): the server keeps them here and not in
  the session tracer, so a TCP client can fetch one request's span tree
  with the ``trace`` op moments after getting its response.

Both are server state, not instrumentation: the sampler task always runs
(one wake-up per ``snapshot_interval_s``, entirely off the request path)
but touches ``OBS.registry`` only behind ``OBS.enabled`` per the REP102
hot-path contract.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.obs import OBS
from repro.obs.export import TimeSeriesRing
from repro.obs.metrics import nearest_rank

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.serve.server import TreeServer

__all__ = ["ServeTelemetry", "TraceBuffer"]

#: Samples kept per telemetry time-series ring.
TELEMETRY_CAPACITY = 256
#: Completed request traces kept for the ``trace`` op.
TRACE_CAPACITY = 512


class TraceBuffer:
    """Bounded store of completed request traces (span docs by trace id).

    Append-only per trace; evicts whole least-recently-*written* traces
    beyond *capacity* so a long-lived server holds the most recent few
    hundred requests' traces, never an unbounded log.
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


#: Ring names the sampler maintains unconditionally.
_STATS_SERIES = ("queue_depth", "inflight", "hit_rate", "rps")
#: Ring names that need an active instrumentation session to fill.
_LATENCY_SERIES = (
    "request_p50_ms",
    "request_p99_ms",
    "build_p50_ms",
    "build_p99_ms",
)
#: Histogram families feeding the latency rings.
_STAGE_HISTOGRAMS = {
    "request": "serve.request_seconds",
    "build": "serve.build_seconds",
}


class ServeTelemetry:
    """The server's sampling loop and its ring-buffered time series."""

    def __init__(self, server: "TreeServer", *, interval_s: float = 1.0) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self._server = server
        self.interval_s = interval_s
        self.rings: Dict[str, TimeSeriesRing] = {
            name: TimeSeriesRing(name, TELEMETRY_CAPACITY)
            for name in _STATS_SERIES + _LATENCY_SERIES
        }
        self.traces = TraceBuffer()
        self.samples = 0
        self._last_requests: Optional[tuple] = None

    def sample_once(self, t: Optional[float] = None) -> None:
        """Append one sample to every ring that has data right now."""
        server = self._server
        if t is None:
            t = time.perf_counter()
        self.samples += 1
        self.rings["queue_depth"].sample(t, server.queue_depth())
        self.rings["inflight"].sample(t, server.inflight_count())
        served = server.results.hits + server.coalesced
        hit_rate = served / server.requests if server.requests else 0.0
        self.rings["hit_rate"].sample(t, hit_rate)

        if self._last_requests is not None:
            t_prev, n_prev = self._last_requests
            if t > t_prev:
                self.rings["rps"].sample(
                    t, (server.requests - n_prev) / (t - t_prev)
                )
        self._last_requests = (t, server.requests)

        if OBS.enabled:
            hists = list(OBS.registry.histograms())
            for stage, hist_name in _STAGE_HISTOGRAMS.items():
                merged = [
                    v
                    for hist in hists
                    if hist.name == hist_name
                    for v in hist.values
                ]
                if not merged:
                    continue
                for p, suffix in ((50.0, "p50"), (99.0, "p99")):
                    self.rings[f"{stage}_{suffix}_ms"].sample(
                        t, 1000.0 * nearest_rank(merged, p)
                    )

    async def run(self) -> None:
        """The sampling loop; cancelled by the server's ``aclose``."""
        while True:
            await asyncio.sleep(self.interval_s)
            self.sample_once()

    def series_doc(self) -> Dict[str, Any]:
        """JSON form of every ring (the ``metrics`` op's ``series`` key)."""
        return {name: ring.to_doc() for name, ring in self.rings.items()}

    def snapshot(self) -> Dict[str, Any]:
        """Compact health summary for ``stats``: latest sample per ring."""
        latest: Dict[str, Any] = {}
        for name, ring in self.rings.items():
            sample = ring.latest()
            if sample is not None:
                latest[name] = sample[1]
        return {
            "interval_s": self.interval_s,
            "samples": self.samples,
            "traces_buffered": len(self.traces),
            "latest": latest,
        }
