"""Benches for the portfolio meta-builder (repro.engine.bench_portfolio).

Each bench runs :func:`repro.engine.bench_portfolio.run_portfolio_bench` — one
serial and one parallel race over the same member set — and asserts the
contract the trajectory file (``BENCH_portfolio.json``) pins:

* the serial and parallel races pick **bitwise-identical** winners (the
  bench itself raises if they diverge, so the assertion here is that it
  completes);
* every member finishes ``ok`` when no budget is in play;
* the winner is LC-feasible at the bench's standard half-AAML bound.

Note on ``speedup``: the parallel race's wall clock is bounded below by
its slowest member plus pool start-up, so on single-core runners the
ratio sits below 1.  The trajectory sentinel tracks it run-over-run on
comparable machines; these benches only assert correctness properties.
"""

from __future__ import annotations

import json

import pytest

from repro.engine.bench_portfolio import PORTFOLIO_BENCH, run_portfolio_bench
from repro.engine.portfolio import DEFAULT_MEMBERS
from repro.obs.benchdiff import append_trajectory


class TestPortfolioRace:
    @pytest.mark.parametrize("n_nodes", [40, 60])
    def test_bench_default_members(self, benchmark, paper_scale, n_nodes):
        size = n_nodes * 2 if paper_scale else n_nodes
        report = benchmark.pedantic(
            lambda: run_portfolio_bench(n_nodes=size),
            rounds=1,
            iterations=1,
        )
        print(f"\n===== portfolio bench n={size} =====")
        print(report.render())
        assert report.members == DEFAULT_MEMBERS
        assert all(status == "ok" for status in report.statuses.values())
        assert report.feasible
        assert report.serial_s > 0 and report.parallel_s > 0


class TestTrajectoryFile:
    def test_appended_runs_keep_schema(self, tmp_path):
        report = run_portfolio_bench(n_nodes=24, members=("mst", "bfs"))
        path = tmp_path / "BENCH_portfolio.json"
        for _ in range(2):
            append_trajectory(
                path, PORTFOLIO_BENCH.format, PORTFOLIO_BENCH.version, report.to_doc()
            )
        doc = json.loads(path.read_text())
        assert doc["format"] == PORTFOLIO_BENCH.format
        assert doc["version"] == PORTFOLIO_BENCH.version
        assert len(doc["runs"]) == 2
        for run in doc["runs"]:
            assert run["winner"] == "mst"
            assert run["speedup"] > 0
            assert set(run["statuses"]) == {"mst", "bfs"}
