"""Tests for the ``repro obs`` sub-CLI and its dispatch from the main CLI."""

import json

import pytest

from repro.cli import main
from repro.obs import read_jsonl
from repro.obs.cli import build_obs_parser, fig_names, obs_main
from repro.obs.manifest import MANIFEST_FORMAT
from repro.obs.runtime import is_enabled


class TestDispatch:
    def test_main_routes_obs_to_sub_cli(self, capsys, tmp_path):
        code = main(
            ["obs", "ira", "--nodes", "10", "--seed", "1", "--no-write"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[obs ira]" in out

    def test_figure_commands_still_work(self, capsys):
        assert main(["fig3"]) == 0
        assert "idle" in capsys.readouterr().out


class TestObsIra:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("obs")
        import contextlib
        import io

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = obs_main(
                ["ira", "--nodes", "12", "--seed", "1", "--out", str(out_dir)]
            )
        return code, buf.getvalue(), out_dir

    def test_exit_code_and_headline(self, run):
        code, out, _ = run
        assert code == 0
        assert "iterations=" in out and "lp_solves=" in out
        assert "lp_reused=" in out

    def test_counters_nonzero_in_output(self, run):
        _, out, _ = run
        for needle in (
            "ira.iterations",
            "ira.lp_solves",
            "local_search.moves_accepted",
        ):
            assert needle in out, needle

    def test_writes_valid_trace(self, run):
        _, _, out_dir = run
        records = read_jsonl(out_dir / "trace.jsonl")
        assert records[0]["kind"] == "trace_start"
        names = {r["name"] for r in records}
        assert {"ira.start", "ira.iteration", "ira.done"} <= names

    def test_writes_valid_manifest(self, run):
        _, _, out_dir = run
        doc = json.loads((out_dir / "manifest.json").read_text())
        assert doc["format"] == MANIFEST_FORMAT
        assert doc["seed"] == 1
        assert doc["params"]["nodes"] == 12

    def test_writes_metrics_snapshot(self, run):
        _, _, out_dir = run
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert any(k.startswith("ira.iterations") for k in doc["counters"])

    def test_instrumentation_off_after_run(self, run):
        assert not is_enabled()


class TestOtherSubcommands:
    def test_rounds(self, capsys):
        code = obs_main(
            ["rounds", "--nodes", "8", "--rounds", "20", "--seed", "2", "--no-write"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "empirical_reliability=" in out
        assert "sim.rounds" in out

    def test_dump_trace(self, capsys):
        code = obs_main(
            ["aaml", "--nodes", "8", "--seed", "3", "--no-write", "--dump-trace"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"kind": "trace_start"' in out


class TestValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["ira", "--nodes", "0"],
            ["ira", "--lc-divisor", "0"],
            ["ira", "--link-prob", "1.5"],
            ["rounds", "--rounds", "-3"],
        ],
    )
    def test_bad_values_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            obs_main(argv + ["--no-write"])
        assert exc.value.code == 2

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            obs_main([])

    def test_parser_knows_all_subcommands(self):
        parser = build_obs_parser()
        help_text = parser.format_help()
        for name in (
            "ira",
            "aaml",
            "mst",
            "rounds",
            "churn",
            "fig",
            "top",
            "bench-diff",
        ):
            assert name in help_text

    def test_top_rejects_bad_interval(self):
        with pytest.raises(SystemExit) as exc:
            obs_main(["top", "--interval", "0"])
        assert exc.value.code == 2


class TestFigNamesDrift:
    def test_fig_choices_match_experiment_registry(self):
        import repro.cli as main_cli

        assert set(fig_names()) == set(main_cli._COMMANDS)

    def test_figures_sort_numerically_extensions_last(self):
        names = fig_names()
        figs = [n for n in names if not n.startswith("ext-")]
        assert figs.index("fig2") < figs.index("fig10")
        exts = [n for n in names if n.startswith("ext-")]
        assert names == tuple(figs) + tuple(exts)
