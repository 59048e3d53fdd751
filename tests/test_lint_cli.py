"""CLI tests for ``repro lint`` / ``mrlc lint``: exit codes and its one input, paths."""

from __future__ import annotations

import pytest

from repro.cli import main as repro_main
from repro.lint import lint_main

from tests.lint_utils import write_tree

CLEAN = {"repro/ok.py": "def f():\n    return 1\n"}
DIRTY = {"repro/bad.py": "import random\n"}


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        src = write_tree(tmp_path, CLEAN)
        assert lint_main([str(src)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        src = write_tree(tmp_path, DIRTY)
        assert lint_main([str(src)]) == 1
        out = capsys.readouterr().out
        assert "REP101" in out and "1 findings" in out

    def test_unknown_rule_is_usage_error(self, tmp_path):
        src = write_tree(tmp_path, CLEAN)
        with pytest.raises(SystemExit) as exc:
            lint_main([str(src), "--select", "REP999"])
        assert exc.value.code == 2

    def test_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            lint_main([str(tmp_path / "nope.txt")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--select", "REP103"],
            ["--ignore", "REP106"],
            ["--explain", "REP107"],
            ["--select", "REP105"],
            ["--ignore", "REP112"],
            ["--select", "REP104"],
            ["--explain", "REP108"],
            ["--select", "REP110"],
            ["--explain", "REP104"],
            ["--select", "REP108"],
            ["--explain", "REP110"],
        ],
    )
    def test_deleted_rules_are_usage_errors(self, tmp_path, flags):
        src = write_tree(tmp_path, CLEAN)
        with pytest.raises(SystemExit) as exc:
            lint_main(flags + [str(src)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--cache"],
            ["--cache-dir", "c"],
            ["--graph"],
            ["--format", "sarif"],
            ["--format", "dot"],
            ["--baseline", "b.json"],
            ["--no-baseline"],
            ["--write-baseline"],
            ["--select", "REP101"],
            ["--ignore", "REP101"],
            ["--format", "json"],
            ["--explain", "REP109"],
            ["--list-rules"],
        ],
    )
    def test_removed_options_are_usage_errors(self, tmp_path, flags):
        src = write_tree(tmp_path, CLEAN)
        with pytest.raises(SystemExit) as exc:
            lint_main(flags + [str(src)])
        assert exc.value.code == 2


class TestExplain:
    def test_explain_unknown_rule_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            lint_main(["--explain", "REP999"])
        assert exc.value.code == 2


class TestTopLevelDispatch:
    def test_repro_cli_routes_lint(self, tmp_path, capsys):
        src = write_tree(tmp_path, DIRTY)
        assert repro_main(["lint", str(src)]) == 1
        assert "REP101" in capsys.readouterr().out

    def test_repro_cli_lint_clean(self, tmp_path, capsys):
        src = write_tree(tmp_path, CLEAN)
        assert repro_main(["lint", str(src)]) == 0
        assert "0 findings" in capsys.readouterr().out
