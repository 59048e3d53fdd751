"""Core-bench smoke: the array-native compute paths beat the loops.

A scaled-down in-CI version of ``repro bench core`` (whose full-size runs
feed ``BENCH_core.json``): asserts the vectorized round simulator and
TreeState's bulk cost and lifetime scans produce *identical* results to
the historical scalar loops and are faster at bench-smoke sizes.  Absolute thresholds are
deliberately loose — machine-independence matters more than the exact
ratio, which the trajectory file tracks across PRs instead.
"""

from __future__ import annotations

from repro.engine.bench import CORE_BENCH, run_core_bench
from repro.obs.benchdiff import append_trajectory, diff_trajectory_file


def test_core_bench_speedups_and_identity(tmp_path):
    # Small grids keep the loop baselines to a couple of seconds; identity
    # between implementations is asserted inside run_core_bench.
    report = run_core_bench(
        round_grid=40, rounds=100, search_grid=26, search_max_moves=30, seed=0
    )
    assert report.round_sim_nodes == 1600
    assert report.search_nodes == 676
    # The full-size BENCH_core.json runs pin >=10x / >=3x; at smoke sizes
    # the margins are smaller but must still be decisive.
    assert report.round_sim_speedup > 3.0
    assert report.local_search_speedup > 1.5
    # The ascent row keeps its n=300 graph at every size; trees and move
    # counts are asserted equal inside run_core_bench.
    assert (report.ascent_nodes, report.ascent_moves) == (300, 241)
    assert report.lifetime_ascent_speedup > 1.5

    # Trajectory plumbing: append twice, then the sentinel must parse the
    # document and find no regression between back-to-back runs.
    out = tmp_path / "BENCH_core.json"
    run = report.to_doc()
    doc = append_trajectory(out, CORE_BENCH.format, CORE_BENCH.version, run)
    assert doc["format"] == CORE_BENCH.format
    append_trajectory(out, CORE_BENCH.format, CORE_BENCH.version, run)
    diff = diff_trajectory_file(out)
    assert not diff.regressed, diff.render()
