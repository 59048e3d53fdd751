"""Tests for repro.obs.top — the live serve dashboard."""

from __future__ import annotations

import asyncio
import socket
import threading

from repro.network.topology import random_graph
from repro.obs import instrument
from repro.obs.cli import obs_main
from repro.obs.top import (
    HISTORY_FRAMES,
    TopHistory,
    _sparkline,
    render_dashboard,
    run_top,
)
from repro.serve import BuildRequest, TreeServer
from repro.serve.tcp import start_tcp_server


class TestSparkline:
    def test_empty(self):
        assert _sparkline([]) == "(no samples)"

    def test_constant_series_renders_floor_blocks(self):
        assert _sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_rising_series_ends_high(self):
        line = _sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"

    def test_width_keeps_only_the_tail(self):
        assert len(_sparkline(list(range(100)), width=8)) == 8


def canned_stats() -> dict:
    return {
        "requests": 12,
        "built": 7,
        "hit_rate": 0.417,
        "rejected": 1,
        "pool_mode": "process",
        "pool_workers": 4,
        "queue_depth": 2,
        "inflight": 3,
        "batches": 5,
        "max_batch": 3,
        "slo": {
            "build": {
                "healthy": False,
                "latency_burn": 4.2,
                "error_burn": 0.0,
                "total": 12,
            }
        },
    }


class TestRenderDashboard:
    def test_header_and_slo_sections(self):
        metrics = {
            "enabled": True,
            "metrics": {"counters": {"serve.requests{builder=mst}": 12}},
            "series": {
                "queue_depth": {"samples": [[1.0, 0.0], [2.0, 2.0]]}
            },
        }
        frame = render_dashboard(canned_stats(), metrics)
        assert "requests 12" in frame and "pool process×4" in frame
        assert "queue_depth" in frame and "telemetry" in frame
        assert "BURNING" in frame
        assert "serve.requests{builder=mst}" in frame

    def test_disabled_registry_message(self):
        frame = render_dashboard(
            {"requests": 0}, {"enabled": False, "series": {}}
        )
        assert "without instrumentation" in frame
        assert "counters:" not in frame


class TestTopHistory:
    def test_stats_rows_and_rps_from_request_delta(self):
        history = TopHistory()
        stats = {"queue_depth": 3, "inflight": 2, "hit_rate": 0.4, "requests": 10}
        history.record(stats, {}, 1.0)
        assert "rps" not in history.series  # needs two frames
        history.record({**stats, "requests": 30}, {}, 3.0)
        assert list(history.series["queue_depth"]) == [3.0, 3.0]
        assert list(history.series["inflight"]) == [2.0, 2.0]
        assert list(history.series["hit_rate"]) == [0.4, 0.4]
        assert list(history.series["rps"]) == [10.0]

    def test_latency_rows_from_json_snapshot(self):
        reply = {
            "enabled": True,
            "metrics": {
                "histograms": {
                    "serve.request_seconds{builder=mst}": {
                        "count": 2, "p50": 0.2, "p99": 0.3,
                    },
                    "serve.build_seconds{builder=mst}": {"count": 0, "sum": 0.0},
                    "serve.batch_size": {"count": 1, "p50": 1.0, "p99": 1.0},
                }
            },
        }
        history = TopHistory()
        history.record({}, reply, 0.0)
        assert list(history.series["request_p50_ms{builder=mst}"]) == [200.0]
        assert list(history.series["request_p99_ms{builder=mst}"]) == [300.0]
        assert set(history.series) == {
            "queue_depth", "inflight", "hit_rate",
            "request_p50_ms{builder=mst}", "request_p99_ms{builder=mst}",
        }

    def test_capacity_bounds_each_series(self):
        history = TopHistory()
        for i in range(HISTORY_FRAMES + 2):
            history.record({"queue_depth": i}, {}, float(i))
        queue = list(history.series["queue_depth"])
        assert len(queue) == HISTORY_FRAMES and queue[0] == 2.0
        assert len(history.series["rps"]) == HISTORY_FRAMES


class TestRunTop:
    def test_unreachable_server_exits_one(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        rc = run_top("127.0.0.1", dead_port, iterations=1)
        assert rc == 1
        assert "cannot connect" in capsys.readouterr().out

    def test_one_frame_against_live_server(self, capsys):
        ready = threading.Event()
        stop = threading.Event()
        state: dict = {}

        async def serve():
            async with TreeServer() as server:
                tcp = await start_tcp_server(server, port=0)
                state["port"] = tcp.sockets[0].getsockname()[1]
                ready.set()
                while not stop.is_set():
                    await asyncio.sleep(0.01)
                tcp.close()
                await tcp.wait_closed()

        thread = threading.Thread(target=lambda: asyncio.run(serve()))
        thread.start()
        try:
            assert ready.wait(timeout=10)
            rc = run_top(
                "127.0.0.1", state["port"], iterations=1, clear=False
            )
            cli_rc = obs_main(
                ["top", "--port", str(state["port"]), "--once"]
            )
        finally:
            stop.set()
            thread.join(timeout=10)
        assert rc == 0 and cli_rc == 0
        out = capsys.readouterr().out
        assert "repro serve —" in out
        assert "without instrumentation" in out

    def test_two_frames_keep_history_against_instrumented_server(self, capsys):
        net = random_graph(12, 0.4, seed=31)
        ready = threading.Event()
        stop = threading.Event()
        state: dict = {}

        async def serve():
            async with TreeServer() as server:
                await server.submit(BuildRequest("mst", network=net))
                tcp = await start_tcp_server(server, port=0)
                state["port"] = tcp.sockets[0].getsockname()[1]
                ready.set()
                while not stop.is_set():
                    await asyncio.sleep(0.01)
                tcp.close()
                await tcp.wait_closed()

        with instrument(params={"test": "top"}):
            thread = threading.Thread(target=lambda: asyncio.run(serve()))
            thread.start()
            try:
                assert ready.wait(timeout=10)
                rc = run_top(
                    "127.0.0.1",
                    state["port"],
                    interval_s=0.05,
                    iterations=2,
                    clear=False,
                )
            finally:
                stop.set()
                thread.join(timeout=10)
        assert rc == 0
        frames = capsys.readouterr().out.split("repro serve —")
        assert len(frames) == 3  # text before the first frame, two frames
        rows = {
            line.split()[0]: line.split()
            for line in frames[2].splitlines()
            if line.startswith("  ")
        }
        for name in (
            "queue_depth",
            "inflight",
            "hit_rate",
            "request_p50_ms{builder=mst}",
            "request_p99_ms{builder=mst}",
            "build_p50_ms{builder=mst}",
            "build_p99_ms{builder=mst}",
        ):
            assert len(rows[name][-1]) == 2, rows[name]  # two-sample sparkline
        assert float(rows["rps"][1]) >= 0.0
