"""Tests for repro.engine.bench_ira (the ``repro bench ira`` writer)."""

import json

import pytest

from repro.cli import main
from repro.engine.bench_ira import (
    IRA_BENCH,
    IRA_SIZES,
    PINNED_COSTS,
    IraBenchReport,
    IraBenchRow,
    run_ira_bench,
)
from repro.obs.benchdiff import (
    MetricSpec,
    append_trajectory,
    diff_trajectory_file,
)

FORMAT, VERSION = IRA_BENCH.format, IRA_BENCH.version


def _row(nodes, seconds):
    return IraBenchRow(
        nodes=nodes,
        edges=10 * nodes,
        seconds=seconds,
        cost=1.0,
        separation_calls=40,
        root_probes=300,
        lp_solves=40,
        simplex_iterations=316,
    )


def test_n120_build_is_pinned_and_counted(tmp_path):
    report = run_ira_bench(IRA_SIZES[:1])
    (row,) = report.rows
    assert (row.nodes, row.edges) == (120, 1057)
    assert row.cost == pytest.approx(PINNED_COSTS[120], rel=0.0, abs=1e-9)
    # The uninflated attempt starts from the inflated attempt's cut pool:
    # 29 HiGHS calls, where starting it with no cuts took 40.
    assert row.separation_calls == row.lp_solves == 29
    # Probing every contracted root ran 343 Dinic probes on this build, and
    # 307 with no carried cuts.
    assert 0 < row.root_probes <= 203
    assert 0 < row.simplex_iterations <= 255
    assert "n=120" in report.render()

    out = tmp_path / "BENCH_ira.json"
    for _ in range(2):
        doc = append_trajectory(out, FORMAT, VERSION, report.to_doc())
    assert doc["format"] == FORMAT and len(doc["runs"]) == 2
    assert doc["runs"][0]["n120_root_probes"] == row.root_probes
    diff = diff_trajectory_file(
        out, metrics=[MetricSpec("n120_seconds", higher_is_better=False)]
    )
    assert not diff.regressed, diff.render()


def test_sentinel_gates_every_size_by_default(tmp_path, capsys):
    runs = [
        IraBenchReport(rows=tuple(_row(n, s) for n, _ in IRA_SIZES), timestamp=0.0)
        for s in (1.0, 1.1, 3.0)
    ]
    names = {spec.name for spec in IRA_BENCH.metrics}
    assert names == {f"n{n}_seconds" for n, _ in IRA_SIZES}
    assert names <= set(runs[0].to_doc())
    out = tmp_path / "BENCH_ira.json"
    for run in runs[:2]:
        append_trajectory(out, FORMAT, VERSION, run.to_doc())
    assert main(["obs", "bench-diff", str(out)]) == 0
    append_trajectory(out, FORMAT, VERSION, runs[2].to_doc())
    assert main(["obs", "bench-diff", str(out)]) != 0  # 3x slower regresses
    assert "REGRESSED" in capsys.readouterr().out
    assert json.loads(out.read_text())["runs"][2]["total_s"] == pytest.approx(9.0)
