"""Tests for repro.obs.benchdiff — the BENCH_*.json regression sentinel."""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

from repro.obs.benchdiff import (
    MetricSpec,
    append_trajectory,
    diff_trajectory,
    diff_trajectory_file,
    load_trajectory,
)
from repro.obs.cli import obs_main


def serve_doc(*warm_rps: float) -> dict:
    """A repro-bench-serve trajectory with one run per warm_rps value."""
    return {
        "format": "repro-bench-serve",
        "runs": [
            {"warm_rps": rps, "cold_rps": rps / 10.0, "hit_rate": 0.9}
            for rps in warm_rps
        ],
    }


class TestLoadTrajectory:
    def test_loads_valid_doc(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps(serve_doc(100.0, 110.0)))
        doc = load_trajectory(path)
        assert doc["format"] == "repro-bench-serve"
        assert len(doc["runs"]) == 2

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_trajectory(path)

    def test_missing_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"runs": []}))
        with pytest.raises(ValueError, match="'format'"):
            load_trajectory(path)

    def test_runs_must_be_dicts(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "x", "runs": [1, 2]}))
        with pytest.raises(ValueError, match="'runs'"):
            load_trajectory(path)


class TestAppendTrajectory:
    def test_creates_then_appends_in_order(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        append_trajectory(path, "repro-bench-serve", 1, {"warm_rps": 1.0})
        doc = append_trajectory(path, "repro-bench-serve", 1, {"warm_rps": 2.0})
        expected = {
            "format": "repro-bench-serve",
            "version": 1,
            "runs": [{"warm_rps": 1.0}, {"warm_rps": 2.0}],
        }
        assert doc == expected
        assert path.read_text() == json.dumps(expected, indent=2) + "\n"

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps({"format": "repro-bench-serve", "runs": 3}))
        with pytest.raises(ValueError, match="'runs'"):
            append_trajectory(path, "repro-bench-serve", 1, {})

    def test_foreign_format_rejected(self, tmp_path):
        path = tmp_path / "BENCH_core.json"
        path.write_text(json.dumps({"format": "repro-bench-core", "runs": []}))
        with pytest.raises(ValueError, match="not a repro-bench-serve document"):
            append_trajectory(path, "repro-bench-serve", 1, {})
        assert json.loads(path.read_text())["runs"] == []


class TestDiffTrajectory:
    def test_single_run_is_skipped_not_failed(self):
        diff = diff_trajectory(serve_doc(100.0))
        assert diff.skipped_reason is not None
        assert not diff.regressed
        assert "SKIPPED" in diff.render()

    def test_unknown_format_without_metrics_is_skipped(self):
        diff = diff_trajectory({"format": "mystery", "runs": [{"x": 1}, {"x": 2}]})
        assert diff.skipped_reason is not None
        assert "--metrics" in diff.skipped_reason

    def test_explicit_metrics_override_unknown_format(self):
        diff = diff_trajectory(
            {"format": "mystery", "runs": [{"x": 10.0}, {"x": 1.0}]},
            metrics=[MetricSpec("x")],
        )
        assert diff.regressed

    def test_value_columns_line_up_for_long_names(self):
        names = (
            "round_sim_speedup",
            "local_search_speedup",
            "lifetime_ascent_speedup",
        )
        runs = [{name: 2.0 for name in names}, {name: 2.5 for name in names}]
        diff = diff_trajectory(
            {"format": "mystery", "runs": runs},
            metrics=[MetricSpec(name) for name in names],
        )
        rows = diff.render().splitlines()[1:]
        assert [row.split()[0] for row in rows] == list(names)
        assert len({row.index("baseline") for row in rows}) == 1

    def test_steady_trajectory_is_healthy(self):
        diff = diff_trajectory(serve_doc(100.0, 105.0, 98.0, 102.0))
        assert diff.skipped_reason is None
        assert not diff.regressed
        assert all(not m.regressed for m in diff.metrics)

    def test_cliff_drop_regresses(self):
        diff = diff_trajectory(serve_doc(100.0, 102.0, 98.0, 10.0))
        assert diff.regressed
        warm = next(m for m in diff.metrics if m.name == "warm_rps")
        assert warm.regressed
        assert warm.change == pytest.approx(-0.9)
        assert "REGRESSED" in diff.render()

    def test_median_baseline_shrugs_off_one_outlier(self):
        # One absurdly fast historical run must not poison the baseline.
        diff = diff_trajectory(serve_doc(100.0, 10_000.0, 98.0, 102.0, 99.0))
        assert not diff.regressed

    def test_window_limits_history(self):
        # Window of 1: baseline is only the immediately preceding run.
        diff = diff_trajectory(serve_doc(1000.0, 100.0, 90.0), window=1)
        warm = next(m for m in diff.metrics if m.name == "warm_rps")
        assert warm.baseline == 100.0
        assert not warm.regressed

    def test_lower_is_better_direction(self):
        doc = {"format": "x", "runs": [{"p99_ms": 10.0}, {"p99_ms": 40.0}]}
        diff = diff_trajectory(
            doc, metrics=[MetricSpec("p99_ms", higher_is_better=False)]
        )
        assert diff.regressed

    def test_improvement_never_regresses(self):
        diff = diff_trajectory(serve_doc(100.0, 500.0))
        assert not diff.regressed

    def test_zero_baseline_handled(self):
        doc = {"format": "x", "runs": [{"m": 0.0}, {"m": 0.0}]}
        diff = diff_trajectory(doc, metrics=[MetricSpec("m")])
        assert not diff.regressed

    def test_missing_metric_raises(self):
        doc = {"format": "x", "runs": [{"a": 1.0}, {"b": 2.0}]}
        with pytest.raises(ValueError, match="missing numeric metric"):
            diff_trajectory(doc, metrics=[MetricSpec("a")])

    def test_metric_new_to_the_window_is_listed_not_gated(self):
        # Older runs predate a watched metric; the newest run reports it.
        doc = {
            "format": "x",
            "runs": [{"a": 1.0}, {"a": 1.0}, {"a": 1.0, "b": 0.01}],
        }
        diff = diff_trajectory(doc, metrics=[MetricSpec("a"), MetricSpec("b")])
        assert [m.name for m in diff.metrics] == ["a"]
        assert diff.new_metrics == ("b",)
        assert not diff.regressed
        assert "no baseline" in diff.render()
        # Once one run in the window has it, it is gated like the rest.
        doc["runs"].append({"a": 1.0, "b": 0.001})
        diff = diff_trajectory(doc, metrics=[MetricSpec("a"), MetricSpec("b")])
        assert diff.new_metrics == ()
        assert diff.regressed

    def test_bad_threshold_and_window_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            diff_trajectory(serve_doc(1.0, 2.0), threshold=0)
        with pytest.raises(ValueError, match="window"):
            diff_trajectory(serve_doc(1.0, 2.0), window=0)


def sized_serve_doc(*runs: tuple) -> dict:
    """A repro-bench-serve trajectory of ``(n_nodes, warm_rps)`` runs."""
    doc = serve_doc(*(rps for _, rps in runs))
    for run, (n_nodes, _) in zip(doc["runs"], runs):
        run["n_nodes"] = n_nodes
    return doc


class TestSameWorkloadBaseline:
    """Only earlier runs of the newest run's workload form the baseline."""

    def test_committed_serve_trajectory(self, tmp_path):
        # BENCH_serve.json's first four runs are at n=100, 300, 500 and 100
        # again; cut there, the newest run is n=100, so the baseline is the
        # one earlier n=100 run.  Later runs are appended as the code moves.
        path = tmp_path / "BENCH_serve.json"
        shutil.copy(pathlib.Path(__file__).parent.parent / "BENCH_serve.json", path)
        assert diff_trajectory_file(path).skipped_reason is None
        doc = json.loads(path.read_text())
        doc["runs"] = doc["runs"][:4]
        path.write_text(json.dumps(doc))
        diff = diff_trajectory_file(path)
        assert diff.skipped_reason is None and diff.window == 1
        metrics = {m.name: m for m in diff.metrics}
        warm, cold = metrics["warm_rps"], metrics["cold_rps"]
        assert warm.baseline == pytest.approx(3527.1, abs=0.1)
        assert warm.change == pytest.approx(-0.091, abs=0.001)
        assert cold.newest == pytest.approx(503.1, abs=0.1)
        assert cold.baseline == pytest.approx(607.2, abs=0.1)
        assert cold.change == pytest.approx(-0.171, abs=0.001)
        assert not diff.regressed

    def test_other_workloads_stay_out_of_the_window(self):
        doc = sized_serve_doc((100, 100.0), (300, 10.0), (100, 110.0), (300, 12.0), (100, 50.0))
        diff = diff_trajectory(doc, window=5)
        warm = next(m for m in diff.metrics if m.name == "warm_rps")
        assert (diff.window, warm.baseline) == (2, 105.0)
        assert warm.change == pytest.approx(-55.0 / 105.0) and warm.regressed

    def test_no_earlier_run_of_the_workload_is_skipped(self):
        diff = diff_trajectory(sized_serve_doc((100, 100.0), (300, 1.0)))
        assert not diff.regressed
        assert "no earlier run" in diff.skipped_reason
        assert "n_nodes=300" in diff.skipped_reason
        assert "SKIPPED" in diff.render()

    def test_explicit_metrics_keep_the_record_workload(self):
        doc = sized_serve_doc((100, 100.0), (300, 1.0), (300, 1.0))
        diff = diff_trajectory(doc, metrics=[MetricSpec("warm_rps")])
        assert [m.baseline for m in diff.metrics] == [1.0]


class TestDiffTrajectoryFile:
    def test_end_to_end(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps(serve_doc(100.0, 20.0)))
        diff = diff_trajectory_file(path)
        assert diff.regressed
        assert diff.path == str(path)


class TestBenchDiffCli:
    """Acceptance: ``repro obs bench-diff`` exits nonzero on a regression."""

    def test_regressed_trajectory_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps(serve_doc(100.0, 102.0, 9.0)))
        rc = obs_main(["bench-diff", str(path)])
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_healthy_trajectory_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps(serve_doc(100.0, 102.0, 101.0)))
        rc = obs_main(["bench-diff", str(path)])
        assert rc == 0
        assert "ok" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = obs_main(["bench-diff", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "bench-diff" in capsys.readouterr().out

    def test_custom_metrics_flag_with_direction(self, tmp_path):
        doc = {"format": "custom", "runs": [{"lat": 1.0}, {"lat": 10.0}]}
        path = tmp_path / "BENCH_custom.json"
        path.write_text(json.dumps(doc))
        assert obs_main(["bench-diff", str(path), "--metrics=-lat"]) == 1
        assert obs_main(["bench-diff", str(path), "--metrics", "lat"]) == 0

    def test_bad_flags_rejected_by_parser(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(serve_doc(1.0, 2.0)))
        with pytest.raises(SystemExit):
            obs_main(["bench-diff", str(path), "--window", "0"])
        with pytest.raises(SystemExit):
            obs_main(["bench-diff", str(path), "--threshold", "0"])
