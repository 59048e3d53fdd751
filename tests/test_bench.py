"""``repro bench``: each trajectory bench is one record that bench-diff reads."""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

import repro.engine.bench as core_module
import repro.engine.bench_ira as ira_module
import repro.engine.bench_portfolio as portfolio_module
import repro.serve.bench as serve_module
from repro.cli import main
from repro.engine.bench_ira import IRA_BENCH, IRA_SIZES, run_ira_bench
from repro.obs.benchdiff import (
    append_trajectory,
    bench_records,
    diff_trajectory_file,
    load_trajectory,
)

ROOT = pathlib.Path(__file__).parent.parent
COMMITTED = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_named_after_their_trajectories():
    records = bench_records()
    assert sorted(records) == ["core", "ira", "portfolio", "serve"]
    for name, record in records.items():
        assert record.name == name
        assert record.format == f"repro-bench-{name}"
        assert record.metrics and record.workload


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.name)
def test_committed_trajectory_maps_to_one_record(path, tmp_path):
    doc = load_trajectory(path)
    (record,) = [r for r in bench_records().values() if r.format == doc["format"]]
    assert doc["version"] == record.version
    # It still appends and diffs: its newest run again is one more run of
    # the same workload.
    copy = tmp_path / path.name
    shutil.copy(path, copy)
    append_trajectory(copy, record.format, record.version, doc["runs"][-1])
    diff = diff_trajectory_file(copy)
    assert diff.skipped_reason is None, diff.render()
    assert diff.metrics


@pytest.mark.parametrize("name", ["core", "portfolio", "serve"])
def test_gated_metrics_and_workload_are_run_doc_keys(name):
    record = bench_records()[name]
    doc = record.measure(ci=True).to_doc()
    for spec in record.metrics:
        assert spec.name in doc, spec.name
    assert set(record.workload) <= set(doc)


def test_ira_gated_metrics_and_workload_are_run_doc_keys():
    # The same keys at a small n: ``n120_seconds`` is ``n30_seconds`` there.
    doc = run_ira_bench(sizes=((30, 0.3),)).to_doc()
    assert len(IRA_BENCH.metrics) == len(IRA_BENCH.workload) == len(IRA_SIZES)
    for (nodes, _), spec, field in zip(IRA_SIZES, IRA_BENCH.metrics, IRA_BENCH.workload):
        for key in (spec.name, field):
            assert key.startswith(f"n{nodes}_")
            assert key.replace(f"n{nodes}_", "n30_", 1) in doc, key


class TestCli:
    def test_ci_run_appends_a_run_that_bench_diff_gates(self, tmp_path, capsys):
        out = tmp_path / "ci-bench-portfolio.json"
        for _ in range(2):
            assert main(["bench", "portfolio", "--ci", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "repro-bench-portfolio" and len(doc["runs"]) == 2
        assert main(["obs", "bench-diff", str(out), "--threshold", "100"]) == 0
        assert "of its workload" in capsys.readouterr().out

    def test_core_identity_failure_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr(core_module, "_reference_estimate", lambda *args: -1.0)
        assert main(["bench", "core", "--ci"]) == 1
        assert "round-sim divergence" in capsys.readouterr().out

    def test_ira_pin_failure_exits_nonzero(self, monkeypatch, capsys):
        # n=120 builds first, and its pin is checked before n=200 starts.
        monkeypatch.setitem(ira_module.PINNED_COSTS, 120, 0.5)
        assert main(["bench", "ira"]) == 1
        assert "!= pinned 0.5" in capsys.readouterr().out

    def test_portfolio_winner_mismatch_exits_nonzero(self, monkeypatch, capsys):
        calls = []

        def first_then_last(outcomes, lc):
            calls.append(lc)
            return outcomes[0] if len(calls) == 1 else outcomes[-1]

        monkeypatch.setattr(portfolio_module, "select_winner", first_then_last)
        assert main(["bench", "portfolio", "--ci"]) == 1
        assert "portfolio determinism violated" in capsys.readouterr().out

    def test_serve_divergence_exits_nonzero(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(serve_module, "_verify_against_cold", lambda *args: 1)
        out = tmp_path / "BENCH_serve.json"
        assert main(["bench", "serve", "--out", str(out)]) == 1
        assert "1 of 8 served responses differ" in capsys.readouterr().out
        assert not out.exists()
