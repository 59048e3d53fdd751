"""``repro obs top`` — a live terminal dashboard over a running tree server.

A deliberately small, stdlib-only client: one persistent TCP connection
speaking the server's JSON-lines protocol (:mod:`repro.serve.protocol`),
polling the ``stats`` and ``metrics`` ops every ``--interval`` seconds and
redrawing one screen of scheduler health — throughput, hit rate, queue
depth, per-stage latency sparklines, and SLO budget burn.  ``--once``
renders a single frame without clearing the screen (what CI and tests
use).

The server keeps no history: the dashboard keeps its own
(:class:`TopHistory`), one bounded deque per signal filled from the
replies it polls, so the sparklines start when it attaches, as with any
``top``.  It is read-only and server-agnostic about instrumentation:
against a ``--no-obs`` server the registry section just reports itself
disabled and the latency rows stay empty, while the stats rows keep
rendering.
"""

from __future__ import annotations

import json
import socket
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = ["ServeClient", "TopHistory", "render_dashboard", "run_top"]

#: Eight-level block characters for the history sparklines.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"
#: Frames of history kept per signal.
HISTORY_FRAMES = 256
#: Latency histograms with a p50/p99 history row, by row-name prefix.
_LATENCY_HISTOGRAMS = {
    "serve.request_seconds": "request",
    "serve.build_seconds": "build",
}


class ServeClient:
    """Minimal synchronous JSON-lines client for one server connection."""

    def __init__(self, host: str, port: int, timeout: float = 5.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def rpc(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request document, return the reply document."""
        self._file.write(json.dumps(doc).encode("utf-8") + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        reply = json.loads(line)
        if not isinstance(reply, dict):
            raise ValueError(f"server sent a non-object reply: {reply!r}")
        return reply

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _sparkline(values: List[float], width: int = 32) -> str:
    """Render the last *width* values as unicode block levels."""
    tail = [float(v) for v in values[-width:]]
    if not tail:
        return "(no samples)"
    low, high = min(tail), max(tail)
    if high <= low:
        return _SPARK_BLOCKS[0] * len(tail)
    span = high - low
    return "".join(
        _SPARK_BLOCKS[
            min(
                len(_SPARK_BLOCKS) - 1,
                int((v - low) / span * len(_SPARK_BLOCKS)),
            )
        ]
        for v in tail
    )


def _fmt_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


class TopHistory:
    """The dashboard's history: one bounded deque of values per signal.

    Each :meth:`record` call appends one frame's samples: queue depth,
    in-flight count and hit rate from ``stats``; requests/s from the
    ``requests`` delta since the previous frame; and, when the server is
    instrumented, each ``serve.request_seconds`` / ``serve.build_seconds``
    histogram's p50/p99 in ms from the JSON registry snapshot.
    """

    def __init__(self) -> None:
        self.series: Dict[str, Deque[float]] = {}
        self._last_requests: Optional[Tuple[float, float]] = None

    def _append(self, name: str, value: float) -> None:
        if name not in self.series:
            self.series[name] = deque(maxlen=HISTORY_FRAMES)
        self.series[name].append(float(value))

    def record(
        self, stats: Dict[str, Any], metrics_reply: Dict[str, Any], t: float
    ) -> None:
        """Append one frame's samples, taken at monotonic time *t*."""
        for name in ("queue_depth", "inflight", "hit_rate"):
            self._append(name, stats.get(name, 0))
        requests = stats.get("requests", 0)
        if self._last_requests is not None:
            t_prev, n_prev = self._last_requests
            if t > t_prev:
                self._append("rps", (requests - n_prev) / (t - t_prev))
        self._last_requests = (t, requests)
        histograms = (metrics_reply.get("metrics") or {}).get("histograms") or {}
        for key, summary in histograms.items():
            name, brace, labels = key.partition("{")
            stage = _LATENCY_HISTOGRAMS.get(name)
            if stage is None or not summary.get("count"):
                continue
            for p in ("p50", "p99"):
                self._append(f"{stage}_{p}_ms{brace}{labels}", 1000.0 * summary[p])


def render_dashboard(
    stats: Dict[str, Any],
    metrics_reply: Dict[str, Any],
    history: Optional[TopHistory] = None,
) -> str:
    """One frame of the dashboard from a stats + json-metrics reply pair.

    *history* holds the frames so far, this one included; without it the
    frame is rendered as a history of one sample.
    """
    if history is None:
        history = TopHistory()
        history.record(stats, metrics_reply, 0.0)
    lines: List[str] = []
    lines.append(
        "repro serve — "
        f"requests {stats.get('requests', 0)}  "
        f"built {stats.get('built', 0)}  "
        f"hit_rate {stats.get('hit_rate', 0.0):.3f}  "
        f"rejected {stats.get('rejected', 0)}  "
        f"pool {stats.get('pool_mode', '?')}×{stats.get('pool_workers', '?')}"
    )
    lines.append(
        f"queue {stats.get('queue_depth', 0)}  "
        f"inflight {stats.get('inflight', 0)}  "
        f"batches {stats.get('batches', 0)}  "
        f"max_batch {stats.get('max_batch', 0)}"
    )

    lines.append("")
    lines.append("telemetry (oldest → newest, one sample per frame):")
    width = max(map(len, history.series), default=0)
    for name in sorted(history.series):
        values = list(history.series[name])
        lines.append(
            f"  {name:<{width}} {values[-1]:>10.4g}  {_sparkline(values)}"
        )

    slo = stats.get("slo") or {}
    if slo:
        lines.append("")
        lines.append("slo burn (≤1.0 healthy):")
        for op in sorted(slo):
            entry = slo[op]
            verdict = "ok" if entry.get("healthy") else "BURNING"
            lines.append(
                f"  {op:<10} latency {entry.get('latency_burn', 0.0):6.2f}  "
                f"errors {entry.get('error_burn', 0.0):6.2f}  "
                f"n={entry.get('total', 0)}  {verdict}"
            )

    lines.append("")
    if metrics_reply.get("enabled"):
        counters = (metrics_reply.get("metrics") or {}).get("counters") or {}
        if counters:
            lines.append("counters:")
            for key in sorted(counters):
                lines.append(f"  {key:<44} {_fmt_value(counters[key])}")
    else:
        lines.append("(server running without instrumentation — no registry)")
    return "\n".join(lines)


def run_top(
    host: str,
    port: int,
    *,
    interval_s: float = 1.0,
    iterations: Optional[int] = None,
    clear: bool = True,
) -> int:
    """Poll the server and redraw until interrupted (or *iterations* frames).

    Returns a process exit code: 0 on a clean run, 1 when the server is
    unreachable or disconnects.
    """
    try:
        client = ServeClient(host, port)
    except OSError as exc:
        print(f"repro obs top: cannot connect to {host}:{port} ({exc})")
        return 1
    history = TopHistory()
    frames = 0
    try:
        with client:
            while True:
                stats_reply = client.rpc({"op": "stats"})
                metrics_reply = client.rpc({"op": "metrics", "format": "json"})
                if not stats_reply.get("ok") or not metrics_reply.get("ok"):
                    print(f"repro obs top: server error: {stats_reply}")
                    return 1
                stats = stats_reply.get("stats") or {}
                history.record(stats, metrics_reply, time.monotonic())
                frame = render_dashboard(stats, metrics_reply, history)
                if clear and iterations != 1:
                    print("\x1b[2J\x1b[H", end="")
                print(frame)
                frames += 1
                if iterations is not None and frames >= iterations:
                    return 0
                time.sleep(interval_s)
    except KeyboardInterrupt:
        return 0
    except (ConnectionError, OSError, ValueError) as exc:
        print(f"repro obs top: connection lost ({exc})")
        return 1
