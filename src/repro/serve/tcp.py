"""Asyncio TCP front end speaking the JSON-lines protocol.

One coroutine per connection; each line is decoded, dispatched against the
in-process :class:`~repro.serve.server.TreeServer`, and answered with one
line.  Requests on one connection are handled strictly in order (a client
wanting pipelined concurrency opens more connections — the server's
batcher coalesces and batches across all of them), which keeps the framing
trivial and the per-connection memory bounded.

This transport is deliberately thin: all admission, caching, batching, and
sharding live in the server object, so in-process callers (tests, the
bench driver, embedding applications) exercise exactly the code paths a
socket client does.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, Optional, Set

from repro.network.serialization import network_from_dict
from repro.obs import OBS
from repro.obs.export import render_prometheus
from repro.serve.protocol import (
    decode_build_request,
    encode_error,
    encode_response,
)
from repro.serve.request import ServeError
from repro.serve.server import TreeServer

__all__ = ["start_tcp_server", "serve_forever"]

#: Refuse single lines larger than this (64 MiB) instead of buffering them.
MAX_LINE_BYTES = 64 * 1024 * 1024


async def _handle_doc(server: TreeServer, doc: Dict[str, Any]) -> Dict[str, Any]:
    request_id = doc.get("id")
    op = doc.get("op", "build")
    # ``build`` latency/errors are counted inside ``submit`` (so in-process
    # callers burn the same budget); the transport covers every other op.
    track = bool(server.slo) and op != "build"
    start = time.perf_counter() if track else 0.0
    try:
        reply = await _dispatch(server, doc, op, request_id)
    except Exception as exc:  # noqa: BLE001 — every failure answers the line
        if track:
            server.slo.record(op, time.perf_counter() - start, ok=False)
        return encode_error(exc, request_id)
    if track:
        server.slo.record(op, time.perf_counter() - start, ok=True)
    return reply


async def _dispatch(
    server: TreeServer,
    doc: Dict[str, Any],
    op: str,
    request_id: Optional[Any],
) -> Dict[str, Any]:
    if op == "ping":
        return {"ok": True, "op": "ping", **_echo_id(request_id)}
    if op == "stats":
        return {"ok": True, "stats": server.stats(), **_echo_id(request_id)}
    if op == "register":
        network_doc = doc.get("network")
        if network_doc is None:
            raise ServeError("register needs a 'network' document")
        try:
            network = network_from_dict(network_doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"bad network document: {exc}") from exc
        fingerprint = server.register_topology(network)
        return {
            "ok": True,
            "fingerprint": fingerprint,
            **_echo_id(request_id),
        }
    if op == "min_cut":
        fingerprint = doc.get("fingerprint")
        if not isinstance(fingerprint, str):
            raise ServeError("min_cut needs a 'fingerprint' string")
        value = server.min_cut(fingerprint, int(doc["u"]), doc.get("v"))
        return {"ok": True, "value": value, **_echo_id(request_id)}
    if op == "metrics":
        fmt = doc.get("format", "prometheus")
        if fmt not in ("prometheus", "json"):
            raise ServeError("metrics 'format' must be 'prometheus' or 'json'")
        reply: Dict[str, Any] = {
            "ok": True,
            "format": fmt,
            "enabled": False,
            **_echo_id(request_id),
        }
        if fmt == "prometheus":
            reply["body"] = ""
            if OBS.enabled:
                reply["enabled"] = True
                reply["body"] = render_prometheus(OBS.registry)
        else:
            reply["metrics"] = {}
            if OBS.enabled:
                reply["enabled"] = True
                reply["metrics"] = OBS.registry.snapshot()
        return reply
    if op == "trace":
        trace_id = doc.get("trace")
        if not isinstance(trace_id, str):
            raise ServeError("trace needs a 'trace' id string")
        spans = server.trace_spans(trace_id)
        if spans is None:
            raise ServeError(
                f"unknown trace id {trace_id!r} (expired, or the server "
                "ran without instrumentation)"
            )
        return {
            "ok": True,
            "trace": trace_id,
            "spans": spans,
            **_echo_id(request_id),
        }
    if op == "build":
        response = await server.submit(decode_build_request(doc))
        return encode_response(response, request_id)
    raise ServeError(f"unknown op {op!r}")


def _echo_id(request_id: Optional[Any]) -> Dict[str, Any]:
    return {} if request_id is None else {"id": request_id}


async def _handle_connection(
    server: TreeServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            try:
                line = await reader.readline()
            except ConnectionResetError:
                break
            except ValueError:
                # readline() reports a line over the stream limit as
                # ValueError; the framing is lost, so answer once and close.
                error = ServeError(f"request line exceeds {MAX_LINE_BYTES} bytes")
                writer.write(json.dumps(encode_error(error)).encode("utf-8") + b"\n")
                await writer.drain()
                break
            if not line:
                break
            text = line.strip()
            if not text:
                continue
            try:
                doc = json.loads(text)
                if not isinstance(doc, dict):
                    raise ValueError("request must be a JSON object")
            except (ValueError, RecursionError) as exc:
                # RecursionError: nesting deeper than the decoder's stack.
                # The whole line was read, so the framing is intact.
                reply: Dict[str, Any] = encode_error(
                    ServeError(f"bad JSON line: {exc}")
                )
            else:
                reply = await _handle_doc(server, doc)
            writer.write(json.dumps(reply).encode("utf-8") + b"\n")
            await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def start_tcp_server(
    server: TreeServer, host: str = "127.0.0.1", port: int = 0
) -> asyncio.base_events.Server:
    """Bind the JSONL transport; ``port=0`` picks a free port.

    The returned asyncio server's first socket reports the bound address
    (``srv.sockets[0].getsockname()``).  The caller owns both lifecycles:
    close the asyncio server, then ``await tree_server.aclose()``.
    """
    loop = asyncio.get_running_loop()
    handlers: Set[asyncio.Task[None]] = set()

    def handler_done(task: asyncio.Task[None]) -> None:
        handlers.discard(task)
        if not task.cancelled() and task.exception() is not None:
            loop.call_exception_handler(
                {
                    "message": "unhandled exception in a serve connection handler",
                    "exception": task.exception(),
                    "task": task,
                }
            )

    def connected(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # The handler task is ours, not asyncio's: before Python 3.12 the
        # task asyncio makes from a returned coroutine logs an error when
        # it is cancelled, which is how a handler idle in readline() ends
        # when the loop shuts down.  Cancelled here, it ends quietly.
        task = loop.create_task(_handle_connection(server, reader, writer))
        handlers.add(task)
        task.add_done_callback(handler_done)

    return await asyncio.start_server(connected, host, port, limit=MAX_LINE_BYTES)


async def serve_forever(
    server: TreeServer, host: str = "127.0.0.1", port: int = 8731
) -> None:
    """Foreground entry: start the transport and serve until cancelled."""
    tcp = await start_tcp_server(server, host, port)
    addr = tcp.sockets[0].getsockname()
    print(f"repro serve: listening on {addr[0]}:{addr[1]} (JSON lines)")
    async with tcp:
        await tcp.serve_forever()
