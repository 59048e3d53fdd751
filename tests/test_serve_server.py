"""Scheduler, transport, and CLI behavior of the serving layer."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import main
from repro.network.model import Network
from repro.network.serialization import network_to_dict
from repro.network.topology import random_graph
from repro.obs import instrument
from repro.serve import (
    BuildRequest,
    ServeConfig,
    ServeError,
    ServerOverloadedError,
    TreeServer,
    UnknownTopologyError,
    WorkerPool,
)
from repro.serve.cli import serve_main
from repro.serve.tcp import start_tcp_server


def _nets(count, n=14, p=0.4, seed0=900):
    return [random_graph(n, p, seed=seed0 + i) for i in range(count)]


class TestScheduler:
    def test_batches_respect_batch_size(self):
        nets = _nets(6)
        config = ServeConfig(batch_size=2, batch_window_s=0.05)

        async def run():
            async with TreeServer(config=config) as server:
                await server.submit_many(
                    BuildRequest("mst", network=net) for net in nets
                )
                return server.stats()

        stats = asyncio.run(run())
        assert stats["built"] == 6
        assert stats["max_batch"] <= 2
        assert stats["batches"] >= 3

    def test_identical_inflight_requests_coalesce(self):
        net = random_graph(14, 0.4, seed=42)
        # A wide batch window keeps all submissions in one scheduling round.
        config = ServeConfig(batch_size=8, batch_window_s=0.05)

        async def run():
            async with TreeServer(config=config) as server:
                responses = await server.submit_many(
                    BuildRequest("mst", network=net) for _ in range(5)
                )
                return responses, server.stats()

        responses, stats = asyncio.run(run())
        assert stats["built"] == 1
        assert stats["coalesced"] == 4
        assert len({r.signature() for r in responses}) == 1
        sources = sorted(r.cache_info.source for r in responses)
        assert sources.count("built") == 1
        assert sources.count("inflight") == 4

    def test_backpressure_rejects_beyond_max_pending(self):
        nets = _nets(5)
        config = ServeConfig(batch_size=8, max_pending=2, batch_window_s=0.05)

        async def run():
            async with TreeServer(config=config) as server:
                results = await asyncio.gather(
                    *(
                        server.submit(BuildRequest("mst", network=net))
                        for net in nets
                    ),
                    return_exceptions=True,
                )
                stats = server.stats()
                # Rejected work retries fine once the queue drains.
                retry = await server.submit(
                    BuildRequest("mst", network=nets[-1])
                )
                return results, stats, retry

        results, stats, retry = asyncio.run(run())
        rejected = [r for r in results if isinstance(r, ServerOverloadedError)]
        served = [r for r in results if not isinstance(r, BaseException)]
        assert len(rejected) == 3 and len(served) == 2
        assert stats["rejected"] == 3
        assert retry.tree.parents  # retry succeeded after the drain

    def test_submit_before_start_raises(self):
        server = TreeServer()
        net = random_graph(10, 0.5, seed=1)
        with pytest.raises(ServeError, match="not started"):
            asyncio.run(server.submit(BuildRequest("mst", network=net)))

    def test_close_fails_queued_requests(self):
        net = random_graph(10, 0.5, seed=2)

        async def run():
            server = await TreeServer().start()
            response = await server.submit(BuildRequest("mst", network=net))
            await server.aclose()
            with pytest.raises(ServeError, match="not started"):
                await server.submit(BuildRequest("mst", network=net))
            return response

        response = asyncio.run(run())
        assert response.builder == "mst"

    def test_unknown_builder_fails_fast(self):
        from repro.engine import UnknownBuilderError

        net = random_graph(10, 0.5, seed=3)

        async def run():
            async with TreeServer() as server:
                await server.submit(BuildRequest("not_a_builder", network=net))

        with pytest.raises(UnknownBuilderError):
            asyncio.run(run())

    def test_disconnected_topology_refused_at_admission(self):
        net = Network(4)
        net.add_link(0, 1, 0.9)
        net.add_link(2, 3, 0.9)  # second component: no spanning tree

        async def run():
            async with TreeServer() as server:
                await server.submit(BuildRequest("mst", network=net))

        with pytest.raises(ServeError, match="disconnected"):
            asyncio.run(run())

    def test_fingerprint_only_request_needs_registration(self):
        net = random_graph(10, 0.5, seed=4)

        async def run(register: bool):
            async with TreeServer() as server:
                fingerprint = (
                    server.register_topology(net)
                    if register
                    else "0" * 64
                )
                return await server.submit(
                    BuildRequest("mst", fingerprint=fingerprint)
                )

        with pytest.raises(UnknownTopologyError):
            asyncio.run(run(register=False))
        response = asyncio.run(run(register=True))
        assert response.builder == "mst"

    def test_build_errors_reach_exactly_the_requester(self):
        net = random_graph(10, 0.5, seed=5)
        # delay_bounded with an impossible depth fails inside the builder.
        bad = BuildRequest(
            "delay_bounded", network=net, params={"max_depth": 0}
        )
        good = BuildRequest("mst", network=net)

        async def run():
            async with TreeServer() as server:
                return await asyncio.gather(
                    server.submit(bad),
                    server.submit(good),
                    return_exceptions=True,
                )

        bad_result, good_result = asyncio.run(run())
        assert isinstance(bad_result, ServeError)
        assert not isinstance(good_result, BaseException)

    def test_min_cut_uses_memoized_structure(self):
        net = random_graph(12, 0.5, seed=6)

        async def run():
            async with TreeServer() as server:
                fingerprint = server.register_topology(net)
                first = server.min_cut(fingerprint, 5)
                second = server.min_cut(fingerprint, 7, 3)
                warm = server.structures.get(fingerprint)
                return first, second, warm.cut_queries

        first, second, queries = asyncio.run(run())
        assert first > 0 and second > 0
        assert queries == 2


class TestPoolModes:
    @pytest.mark.parametrize("mode,workers", [("process", 2)])
    def test_pooled_results_match_inline(self, mode, workers):
        nets = _nets(3, n=20, p=0.3, seed0=950)
        requests = [BuildRequest("mst", network=net) for net in nets] + [
            BuildRequest("random_tree", network=nets[0], seed=9)
        ]

        async def run(pool):
            async with TreeServer(pool=pool) as server:
                return await server.submit_many(requests)

        inline = asyncio.run(run(WorkerPool(mode="inline")))
        with WorkerPool(mode=mode, n_workers=workers) as pool:
            pooled = asyncio.run(run(pool))
        for a, b in zip(inline, pooled):
            assert a.tree.parents == b.tree.parents
            assert a.metrics["cost"] == pytest.approx(
                b.metrics["cost"], abs=0
            )

    def test_invalid_pool_arguments(self):
        for mode in ("gpu", "thread"):
            with pytest.raises(ValueError, match="mode"):
                WorkerPool(mode=mode)
        with pytest.raises(ValueError, match="n_workers"):
            WorkerPool(mode="process", n_workers=0)


class TestObsIntegration:
    def test_serve_counters_recorded_when_instrumented(self):
        net = random_graph(12, 0.5, seed=8)

        async def run():
            async with TreeServer() as server:
                await server.submit(BuildRequest("mst", network=net))
                await server.submit(BuildRequest("mst", network=net))

        with instrument(params={"test": "serve"}) as session:
            asyncio.run(run())
            snapshot = session.registry.snapshot()
        counters = snapshot["counters"]
        assert counters.get("serve.requests{builder=mst}") == 2
        assert counters.get("serve.cache_hits{tier=result}") == 1
        assert counters.get("serve.builds{builder=mst}") == 1
        assert any(k.startswith("serve.batch_size") for k in snapshot["histograms"])

    def test_uninstrumented_serving_records_nothing(self):
        net = random_graph(12, 0.5, seed=9)

        async def run():
            async with TreeServer() as server:
                await server.submit(BuildRequest("mst", network=net))
                return server.stats()

        stats = asyncio.run(run())  # no instrument(): must not blow up
        assert stats["built"] == 1


class TestTcpTransport:
    def test_full_wire_session(self):
        net = random_graph(16, 0.4, seed=77)

        async def run():
            async with TreeServer() as server:
                tcp = await start_tcp_server(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )

                async def rpc(doc):
                    writer.write(json.dumps(doc).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                ping = await rpc({"op": "ping", "id": 0})
                registered = await rpc(
                    {"op": "register", "network": network_to_dict(net)}
                )
                fingerprint = registered["fingerprint"]
                cold = await rpc(
                    {
                        "op": "build",
                        "builder": "mst",
                        "fingerprint": fingerprint,
                        "id": "req-1",
                    }
                )
                warm = await rpc(
                    {
                        "op": "build",
                        "builder": "mst",
                        "fingerprint": fingerprint,
                        "id": "req-2",
                    }
                )
                cut = await rpc(
                    {"op": "min_cut", "fingerprint": fingerprint, "u": 3}
                )
                stats = await rpc({"op": "stats"})
                bad_builder = await rpc(
                    {
                        "op": "build",
                        "builder": "nope",
                        "fingerprint": fingerprint,
                    }
                )
                unknown_topo = await rpc(
                    {"op": "build", "builder": "mst", "fingerprint": "f" * 64}
                )
                bad_json = None
                writer.write(b"{not json}\n")
                await writer.drain()
                bad_json = json.loads(await reader.readline())

                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                return (
                    ping,
                    cold,
                    warm,
                    cut,
                    stats,
                    bad_builder,
                    unknown_topo,
                    bad_json,
                )

        (
            ping,
            cold,
            warm,
            cut,
            stats,
            bad_builder,
            unknown_topo,
            bad_json,
        ) = asyncio.run(run())
        assert ping == {"ok": True, "op": "ping", "id": 0}
        assert cold["ok"] and cold["id"] == "req-1"
        assert cold["cache"] == {"hit": False, "source": "built"}
        assert warm["cache"] == {"hit": True, "source": "result"}
        assert warm["tree"] == cold["tree"]  # bitwise-identical documents
        assert warm["metrics"] == cold["metrics"]
        assert cut["ok"] and cut["value"] > 0
        assert stats["stats"]["requests"] == 2
        assert not bad_builder["ok"] and bad_builder["kind"] == "bad-request"
        assert not unknown_topo["ok"]
        assert unknown_topo["kind"] == "unknown-topology"
        assert not bad_json["ok"]


    def test_oversized_line_gets_one_error_reply(self, monkeypatch):
        monkeypatch.setattr("repro.serve.tcp.MAX_LINE_BYTES", 1024)

        async def run():
            async with TreeServer() as server:
                tcp = await start_tcp_server(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"x" * 4096 + b"\n")
                await writer.drain()
                reply = await reader.readline()
                after = await reader.readline()
                writer.close()
                await writer.wait_closed()

                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                ping = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                return reply, after, ping

        reply, after, ping = asyncio.run(run())
        error = json.loads(reply)
        assert error["ok"] is False and error["kind"] == "bad-request"
        assert "1024" in error["error"]
        assert after == b""  # one reply, then the connection closes
        assert ping["ok"] is True


    @staticmethod
    async def _exchange(server, lines):
        """Send *lines* on one connection; one reply each, then a ping."""
        tcp = await start_tcp_server(server, port=0)
        port = tcp.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        replies = []
        for line in lines + [b'{"op": "ping", "id": "tail"}']:
            writer.write(line + b"\n")
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
        writer.close()
        await writer.wait_closed()
        tcp.close()
        await tcp.wait_closed()
        return replies

    def test_deeply_nested_json_line_gets_one_error_reply(self):
        async def run():
            async with TreeServer() as server:
                return await self._exchange(server, [b"[" * 100_000])

        error, ping = asyncio.run(run())
        assert error["ok"] is False and error["kind"] == "bad-request"
        assert "bad JSON line" in error["error"]
        assert ping == {"ok": True, "op": "ping", "id": "tail"}

    def test_non_object_network_document_is_a_bad_request(self):
        lines = [
            json.dumps(doc).encode()
            for network in ([1, 2], "x", 5)
            for doc in (
                {"op": "register", "network": network},
                {"op": "build", "builder": "mst", "network": network},
            )
        ]

        async def run():
            async with TreeServer() as server:
                return await self._exchange(server, lines)

        *errors, ping = asyncio.run(run())
        assert len(errors) == 6
        for error in errors:
            assert error["ok"] is False and error["kind"] == "bad-request"
            assert "bad network document" in error["error"]
            assert "must be a JSON object" in error["error"]
        assert ping["ok"] is True


class TestServeCli:
    def test_bench_subcommand_prints_report(self, capsys):
        # The serve bench runs its one workload as `repro bench serve`.
        assert main(["bench", "serve"]) == 0
        out = capsys.readouterr().out
        assert "serve bench: n=100 nodes × 2 topologies" in out
        assert "hit rate" in out
        assert "divergent       0" in out

    def test_bench_out_appends_trajectory(self, tmp_path, capsys):
        target = tmp_path / "BENCH_serve.json"
        argv = ["bench", "serve", "--out", str(target)]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        doc = json.loads(target.read_text())
        assert doc["format"] == "repro-bench-serve"
        assert len(doc["runs"]) == 2
        run = doc["runs"][0]
        assert (run["n_nodes"], run["n_topologies"], run["total_requests"]) == (100, 2, 96)
        assert (run["pool_mode"], run["divergent"]) == ("inline", 0)
        assert run["hit_rate"] >= 0.9

    def test_main_cli_dispatches_serve(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "run", "--batch-size", "0"])
        assert excinfo.value.code == 2
        assert "repro serve: error: --batch-size must be positive" in (
            capsys.readouterr().err
        )

    def test_bench_rejects_bad_arguments(self, capsys):
        # `repro serve bench` and its flags are gone; `repro bench serve`
        # takes only --ci and --out.
        for argv in (
            ["serve", "bench"],
            ["bench", "serve", "--nodes", "16"],
            ["bench", "serve", "--mode", "process"],
            ["bench", "nonsense"],
            ["serve", "nonsense"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
        with pytest.raises(SystemExit):
            serve_main(["run", "--workers", "0"])

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_backend_flag_is_gone(self, command, capsys):
        # One TreeState engine: there is no engine to choose.
        argv = {"run": ["serve", "run"], "bench": ["bench", "serve"]}[command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestParseSlo:
    def test_parses_full_spec(self):
        from repro.serve.cli import _parse_slo

        slo = _parse_slo("build:0.5:0.99:0.01")
        assert slo.op == "build"
        assert slo.latency_budget_s == 0.5
        assert slo.latency_target == 0.99
        assert slo.error_target == 0.01

    def test_non_numeric_budget_gets_validated_message(self):
        # Regression: 'abc' used to escape as a bare float() ValueError
        # ("could not convert string to float") with no mention of --slo.
        from repro.serve.cli import _parse_slo

        with pytest.raises(
            ValueError, match=r"--slo latency budget must be a number, got 'abc'"
        ):
            _parse_slo("build:abc")

    def test_non_numeric_target_gets_validated_message(self):
        from repro.serve.cli import _parse_slo

        with pytest.raises(
            ValueError, match=r"--slo latency target must be a number, got 'xx'"
        ):
            _parse_slo("build:0.5:xx")

    def test_rejects_non_positive_budget(self):
        from repro.serve.cli import _parse_slo

        with pytest.raises(
            ValueError, match=r"--slo latency budget must be positive, got '-1'"
        ):
            _parse_slo("build:-1")
        with pytest.raises(ValueError, match="must be positive"):
            _parse_slo("build:0")

    def test_rejects_targets_outside_unit_interval(self):
        from repro.serve.cli import _parse_slo

        with pytest.raises(
            ValueError,
            match=r"--slo latency target must be a fraction in \(0, 1\)",
        ):
            _parse_slo("build:0.5:1.5")
        with pytest.raises(
            ValueError,
            match=r"--slo error target must be a fraction in \(0, 1\)",
        ):
            _parse_slo("build:0.5:0.9:0")

    def test_every_message_quotes_the_grammar(self):
        from repro.serve.cli import _parse_slo

        for spec in ("build", "build:abc", "build:-1", "build:0.5:2"):
            with pytest.raises(ValueError, match="BUDGET_S"):
                _parse_slo(spec)

    def test_run_subcommand_reports_bad_slo_cleanly(self, capsys):
        # The validated message reaches the user via exit code 2, not a
        # traceback.
        exit_code = serve_main(
            ["run", "--port", "0", "--slo", "build:abc"]
        )
        assert exit_code == 2
        out = capsys.readouterr().out
        assert "latency budget must be a number" in out
