"""Sustained-throughput benches for the tree-serving subsystem.

Each bench drives the synthetic repeat-query workload of
:func:`repro.serve.bench.run_serve_bench` at one network size and asserts
the serving contract the trajectory file (``BENCH_serve.json``) pins:

* warm-cache hit rate ≥ 90% on repeat-query workloads (``repeats=12`` →
  expected 1 − 1/12 ≈ 91.7%);
* zero divergent responses — every served response is bitwise-identical
  (modulo wall time) to a cold ``build_tree`` rebuild;
* warm throughput strictly above cold throughput (the cache has to pay
  for itself, massively).

Default scale covers n = 100..500 with the cheap spanning-tree builders;
``--paper-scale`` widens the workload (more topologies, more repeats).
"""

from __future__ import annotations

import json

import pytest

from repro.obs.benchdiff import append_trajectory
from repro.serve.bench import SERVE_BENCH, run_serve_bench

BUILDERS = ("mst", "spt", "bfs", "random_tree")


def _run(benchmark, n_nodes, *, n_topologies, repeats, mode="inline", workers=None):
    return benchmark.pedantic(
        lambda: run_serve_bench(
            n_nodes=n_nodes,
            n_topologies=n_topologies,
            builders=BUILDERS,
            repeats=repeats,
            seed=0,
            mode=mode,
            workers=workers,
            verify=True,
        ),
        rounds=1,
        iterations=1,
    )


def _assert_contract(report, *, n_nodes, repeats):
    assert report.n_nodes == n_nodes
    assert report.divergent == 0
    assert report.rejected == 0
    assert report.hit_rate >= 0.9
    assert report.hit_rate == pytest.approx(1.0 - 1.0 / repeats, abs=0.02)
    # Serving repeats from cache must beat rebuilding them.
    assert report.warm_rps > report.cold_rps
    assert report.built == report.unique_requests


class TestSustainedThroughput:
    @pytest.mark.parametrize("n_nodes", [100, 300, 500])
    def test_bench_repeat_query_workload(self, benchmark, paper_scale, n_nodes):
        n_topologies = 4 if paper_scale else 2
        repeats = 20 if paper_scale else 12
        report = _run(
            benchmark, n_nodes, n_topologies=n_topologies, repeats=repeats
        )
        print(f"\n===== serve bench n={n_nodes} =====")
        print(report.render())
        _assert_contract(report, n_nodes=n_nodes, repeats=repeats)

    def test_bench_process_sharded(self, benchmark, paper_scale):
        """The sharded path at mid scale: still bitwise-identical, still ≥90%."""
        repeats = 12
        report = _run(
            benchmark,
            300 if paper_scale else 100,
            n_topologies=2,
            repeats=repeats,
            mode="process",
            workers=2,
        )
        print("\n===== serve bench (process pool) =====")
        print(report.render())
        assert report.pool_mode == "process"
        _assert_contract(
            report, n_nodes=300 if paper_scale else 100, repeats=repeats
        )


class TestTrajectoryFile:
    def test_appended_runs_keep_schema(self, tmp_path):
        report = run_serve_bench(
            n_nodes=100,
            n_topologies=1,
            builders=("mst", "bfs"),
            repeats=12,
            seed=0,
            verify=True,
        )
        path = tmp_path / "BENCH_serve.json"
        for _ in range(2):
            append_trajectory(
                path, SERVE_BENCH.format, SERVE_BENCH.version, report.to_doc()
            )
        doc = json.loads(path.read_text())
        assert doc["format"] == SERVE_BENCH.format
        assert doc["version"] == SERVE_BENCH.version
        assert len(doc["runs"]) == 2
        for run in doc["runs"]:
            assert run["n_nodes"] == 100
            assert run["divergent"] == 0
            assert run["hit_rate"] >= 0.9
            assert run["warm_rps"] > run["cold_rps"]
