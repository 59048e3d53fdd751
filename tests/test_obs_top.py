"""Tests for repro.obs.top — the live serve dashboard."""

from __future__ import annotations

import asyncio
import socket
import threading

from repro.obs.cli import obs_main
from repro.obs.top import _sparkline, render_dashboard, run_top
from repro.serve import TreeServer
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
