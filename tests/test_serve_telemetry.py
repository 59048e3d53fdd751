"""Telemetry plane end-to-end: tracing, SLOs, and the wire ops.

The acceptance path for the telemetry PR lives here: a TCP client builds a
tree against an instrumented server backed by a **process** worker pool,
then fetches the request's span tree (root → queue wait → worker build,
re-attached across the process boundary) and a Prometheus-text metrics
snapshot from the same socket.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.serve.tcp
from repro.engine import build_tree
from repro.network.serialization import network_to_dict
from repro.network.topology import random_graph
from repro.obs import OBS, instrument, parse_prometheus
from repro.obs.slo import SLO
from repro.serve import (
    BuildRequest,
    ServeConfig,
    TraceBuffer,
    TreeServer,
    WorkerPool,
)
from repro.serve.cli import serve_main
from repro.serve.tcp import start_tcp_server


class TestTraceBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            TraceBuffer(0)

    def test_add_and_get_preserve_order(self):
        buf = TraceBuffer()
        buf.add("t1", {"name": "a"})
        buf.add("t1", {"name": "b"})
        assert [s["name"] for s in buf.get("t1")] == ["a", "b"]
        assert len(buf) == 1

    def test_unknown_trace_is_none(self):
        assert TraceBuffer().get("nope") is None

    def test_eviction_drops_least_recently_written_trace(self):
        buf = TraceBuffer(capacity=2)
        buf.add("t1", {"name": "a"})
        buf.add("t2", {"name": "b"})
        buf.add("t1", {"name": "c"})  # refreshes t1's recency
        buf.add("t3", {"name": "d"})  # evicts t2, the stalest
        assert buf.get("t2") is None
        assert buf.get("t1") is not None and buf.get("t3") is not None
        assert len(buf) == 2

    def test_get_returns_copy(self):
        buf = TraceBuffer()
        buf.add("t1", {"name": "a"})
        buf.get("t1").append({"name": "intruder"})
        assert len(buf.get("t1")) == 1


class TestRequestTracing:
    def test_instrumented_response_carries_trace_with_span_tree(self):
        net = random_graph(14, 0.4, seed=901)

        async def run():
            async with TreeServer() as server:
                response = await server.submit(BuildRequest("mst", network=net))
                return response, server.trace_spans(response.trace_id)

        with instrument(params={"test": "tracing"}):
            response, spans = asyncio.run(run())
        assert response.trace_id is not None
        names = {s["name"] for s in spans}
        assert {"serve.request", "serve.queue", "serve.build"} <= names
        root = next(s for s in spans if s["name"] == "serve.request")
        assert "parent" not in root
        for child_name in ("serve.queue", "serve.build"):
            child = next(s for s in spans if s["name"] == child_name)
            assert child["trace"] == root["trace"] == response.trace_id
            assert child["parent"] == root["span"]
            assert child["dur"] >= 0.0
        # The spans also landed in the ambient tracer for artifact dumps.
        tracer_names = {e.name for e in OBS.tracer.events}
        assert "serve.request" not in tracer_names  # session already closed

    def test_uninstrumented_requests_have_no_trace(self):
        net = random_graph(12, 0.4, seed=902)

        async def run():
            async with TreeServer() as server:
                response = await server.submit(BuildRequest("mst", network=net))
                return response, server.trace_spans("t-unknown")

        response, spans = asyncio.run(run())
        assert response.trace_id is None
        assert spans is None

    def test_coalesced_requests_get_their_own_root_span(self):
        net = random_graph(14, 0.4, seed=903)
        config = ServeConfig(batch_size=8, batch_window_s=0.05)

        async def run():
            async with TreeServer(config=config) as server:
                responses = await server.submit_many(
                    BuildRequest("mst", network=net) for _ in range(3)
                )
                return [
                    (r.cache_info.source, server.trace_spans(r.trace_id))
                    for r in responses
                ]

        with instrument(params={"test": "coalesce"}):
            traced = asyncio.run(run())
        assert len({spans[0]["trace"] for _, spans in traced}) == 3
        for source, spans in traced:
            assert any(s["name"] == "serve.request" for s in spans)
            if source == "built":
                assert any(s["name"] == "serve.build" for s in spans)


class TestSloTracking:
    def test_build_slo_counts_in_process_submits(self):
        net = random_graph(12, 0.4, seed=904)
        # An impossible 1ns budget: every build breaches latency.
        config = ServeConfig(slos=(SLO("build", latency_budget_s=1e-9),))

        async def run():
            async with TreeServer(config=config) as server:
                await server.submit(BuildRequest("mst", network=net))
                await server.submit(BuildRequest("mst", network=net))
                return server.stats()

        stats = asyncio.run(run())  # OBS disabled: SLOs still tracked
        build = stats["slo"]["build"]
        assert build["total"] == 2
        assert build["latency_breaches"] == 2
        assert build["latency_burn"] > 1.0
        assert not build["healthy"]

    def test_errors_burn_error_budget(self):
        config = ServeConfig(slos=(SLO("build", latency_budget_s=10.0),))

        async def run():
            async with TreeServer(config=config) as server:
                with pytest.raises(Exception):
                    await server.submit(
                        BuildRequest("mst", fingerprint="0" * 64)
                    )
                return server.stats()

        stats = asyncio.run(run())
        build = stats["slo"]["build"]
        assert build["errors"] == 1
        assert build["latency_breaches"] == 0

    def test_no_slos_snapshot_is_empty(self):
        async def run():
            async with TreeServer() as server:
                return server.stats()

        stats = asyncio.run(run())
        assert stats["slo"] == {}
        assert stats["traces_buffered"] == 0


def _rpc_factory(reader, writer):
    async def rpc(doc):
        writer.write(json.dumps(doc).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())

    return rpc


class TestWireOps:
    """Acceptance: trace + metrics over TCP, builds in a process pool."""

    def test_trace_and_metrics_over_tcp_with_process_pool(self):
        net = random_graph(16, 0.4, seed=905)
        config = ServeConfig(slos=(SLO("stats", latency_budget_s=5.0),))

        async def run():
            with WorkerPool(mode="process", n_workers=2) as pool:
                async with TreeServer(config=config, pool=pool) as server:
                    tcp = await start_tcp_server(server, port=0)
                    port = tcp.sockets[0].getsockname()[1]
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    rpc = _rpc_factory(reader, writer)
                    registered = await rpc(
                        {"op": "register", "network": network_to_dict(net)}
                    )
                    built = await rpc(
                        {
                            "op": "build",
                            "builder": "mst",
                            "fingerprint": registered["fingerprint"],
                            "id": "req-1",
                        }
                    )
                    trace = await rpc({"op": "trace", "trace": built["trace"]})
                    prom = await rpc({"op": "metrics"})
                    as_json = await rpc({"op": "metrics", "format": "json"})
                    bad_fmt = await rpc({"op": "metrics", "format": "xml"})
                    unknown = await rpc({"op": "trace", "trace": "t-unknown"})
                    await rpc({"op": "stats"})  # recorded after its reply...
                    stats = await rpc({"op": "stats"})  # ...so read it back
                    writer.close()
                    await writer.wait_closed()
                    tcp.close()
                    await tcp.wait_closed()
                    return built, trace, prom, as_json, bad_fmt, unknown, stats

        with instrument(params={"test": "wire"}):
            built, trace, prom, as_json, bad_fmt, unknown, stats = asyncio.run(
                run()
            )

        # The build reply names its trace; the trace op reassembles it.
        assert built["ok"] and isinstance(built["trace"], str)
        assert trace["ok"] and trace["trace"] == built["trace"]
        names = {s["name"] for s in trace["spans"]}
        assert {"serve.request", "serve.queue", "serve.build"} <= names
        build_span = next(
            s for s in trace["spans"] if s["name"] == "serve.build"
        )
        root = next(s for s in trace["spans"] if s["name"] == "serve.request")
        assert build_span["parent"] == root["span"]  # across the process hop
        assert build_span["fields"]["mode"] == "process"

        # Prometheus text parses and carries the serve families.
        assert prom["ok"] and prom["enabled"]
        samples = parse_prometheus(prom["body"])
        assert samples['repro_serve_requests{builder="mst"}'] >= 1
        assert any(
            k.startswith("repro_serve_build_seconds") for k in samples
        )

        # JSON form: the registry snapshot, and no server-side history.
        assert as_json["ok"] and as_json["enabled"]
        assert "serve.requests{builder=mst}" in as_json["metrics"]["counters"]
        assert "series" not in as_json

        assert not bad_fmt["ok"] and bad_fmt["kind"] == "bad-request"
        assert not unknown["ok"] and "unknown trace id" in unknown["error"]

        # The stats op burned the 'stats' SLO; the trace buffer holds the
        # build's trace.
        assert "telemetry" not in stats["stats"]
        assert stats["stats"]["traces_buffered"] == 1
        assert stats["stats"]["slo"]["stats"]["total"] >= 1

    def test_disabled_server_serves_rings_but_no_registry(self):
        net = random_graph(12, 0.4, seed=906)

        async def run():
            async with TreeServer() as server:
                tcp = await start_tcp_server(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                rpc = _rpc_factory(reader, writer)
                built = await rpc(
                    {
                        "op": "build",
                        "builder": "mst",
                        "network": network_to_dict(net),
                    }
                )
                prom = await rpc({"op": "metrics"})
                as_json = await rpc({"op": "metrics", "format": "json"})
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                return built, prom, as_json

        built, prom, as_json = asyncio.run(run())
        assert built["ok"] and "trace" not in built
        assert prom["ok"] and not prom["enabled"] and prom["body"] == ""
        assert as_json["ok"] and not as_json["enabled"]
        assert as_json["metrics"] == {}
        assert "series" not in as_json  # the server keeps no history


class TestServeRunSession:
    def test_served_builds_keep_no_session_trace_events(self, monkeypatch):
        """`repro serve run` keeps request spans, not builder trace events.

        Nothing writes the session trace of a served run, so its tracer
        keeps no events; the ``trace`` op still answers from the server's
        trace buffer.
        """
        net = random_graph(10, 0.5, seed=907)
        lifetime = build_tree("aaml", net).lifetime
        seen: dict = {}

        async def serve_briefly(server, host, port):
            tcp = await start_tcp_server(server, host, port)
            bound = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(host, bound)
            rpc = _rpc_factory(reader, writer)
            registered = await rpc(
                {"op": "register", "network": network_to_dict(net)}
            )
            traces = []
            for scale in (0.5, 0.6, 0.7):  # three IRA misses
                built = await rpc(
                    {
                        "op": "build",
                        "builder": "ira",
                        "fingerprint": registered["fingerprint"],
                        "params": {"lc": scale * lifetime},
                    }
                )
                assert built["cache"]["source"] == "built", built
                traces.append(await rpc({"op": "trace", "trace": built["trace"]}))
            seen["events"] = list(OBS.tracer.events)
            seen["traces"] = traces
            writer.close()
            await writer.wait_closed()
            tcp.close()
            await tcp.wait_closed()

        monkeypatch.setattr(repro.serve.tcp, "serve_forever", serve_briefly)
        assert serve_main(["run", "--port", "0"]) == 0
        assert seen["events"] == []
        for trace in seen["traces"]:
            assert trace["ok"], trace
            names = {s["name"] for s in trace["spans"]}
            assert {"serve.request", "serve.queue", "serve.build"} <= names
