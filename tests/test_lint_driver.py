"""Driver-level tests: suppressions, reporters, parse errors."""

from __future__ import annotations

import json

import pytest

from repro.lint import PARSE_ERROR_RULE, lint_paths
from repro.lint.driver import iter_python_files, parse_files
from repro.lint.report import render_json, render_text

from tests.lint_utils import lint_sources, rule_ids, write_tree


class TestSuppression:
    def test_line_suppression_by_id(self, tmp_path):
        source = "import random  # repro: ignore[REP101]\n"
        result = lint_paths([write_tree(tmp_path, {"repro/a.py": source})])
        assert result.all_findings == []
        assert result.suppressed == 1

    def test_bare_ignore_silences_all_rules(self, tmp_path):
        source = (
            "import numpy as np\n"
            "from repro.obs import OBS\n"
            "def f():\n"
            "    OBS.tracer.event(np.random.default_rng(3))  # repro: ignore\n"
        )
        result = lint_paths([write_tree(tmp_path, {"repro/core/a.py": source})])
        assert result.all_findings == []
        assert result.suppressed == 2  # REP101 and REP102 on one line

    def test_wrong_id_does_not_suppress(self, tmp_path):
        source = "import random  # repro: ignore[REP102]\n"
        findings = lint_sources(tmp_path, {"repro/a.py": source})
        assert rule_ids(findings) == ["REP101"]

    def test_multiple_ids_in_one_comment(self, tmp_path):
        source = (
            "import numpy as np\n"
            "from repro.obs import OBS\n"
            "def f():\n"
            "    OBS.tracer.event(np.random.default_rng(3))  # repro: ignore[REP101, REP102]\n"
        )
        result = lint_paths([write_tree(tmp_path, {"repro/core/a.py": source})])
        assert result.all_findings == []
        assert result.suppressed == 2

    def test_ignore_file_marker(self, tmp_path):
        source = (
            "# repro: ignore-file[REP102]\n"
            "from repro.obs import OBS\n"
            "def f():\n"
            "    OBS.tracer.event('x')\n"
            "    OBS.registry.counter('y').inc()\n"
        )
        assert lint_sources(tmp_path, {"repro/core/a.py": source}) == []

    def test_ignore_file_marker_counts_suppressed(self, tmp_path):
        source = "# repro: ignore-file[REP101]\nimport random\n"
        result = lint_paths([write_tree(tmp_path, {"repro/a.py": source})])
        assert result.all_findings == []
        assert result.suppressed == 1

    def test_ignore_file_marker_is_rule_scoped(self, tmp_path):
        source = "# repro: ignore-file[REP102]\nimport random\n"
        findings = lint_sources(tmp_path, {"repro/a.py": source})
        assert rule_ids(findings) == ["REP101"]

    def test_ignore_file_marker_outside_window_inert(self, tmp_path):
        source = "\n" * 25 + "# repro: ignore-file[REP101]\nimport random\n"
        findings = lint_sources(tmp_path, {"repro/a.py": source})
        assert rule_ids(findings) == ["REP101"]


class TestParseErrors:
    def test_syntax_error_becomes_rep000(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {"repro/bad.py": "def f(:\n"})])
        assert rule_ids(result.all_findings) == [PARSE_ERROR_RULE]

    def test_other_files_still_checked(self, tmp_path):
        files = {"repro/bad.py": "def f(:\n", "repro/ok.py": "import random\n"}
        result = lint_paths([write_tree(tmp_path, files)])
        assert rule_ids(result.all_findings) == [PARSE_ERROR_RULE, "REP101"]
        assert result.checked_files == 1  # only the parsable file

    def test_undecodable_file_becomes_rep000(self, tmp_path):
        src = tmp_path / "src" / "repro"
        src.mkdir(parents=True)
        (src / "bad.py").write_bytes(b'x = "\xff"\n')
        (src / "ok.py").write_text("import random\n", encoding="utf-8")

        result = lint_paths([tmp_path / "src"])
        assert rule_ids(result.all_findings) == [PARSE_ERROR_RULE, "REP101"]
        assert result.all_findings[0].path.endswith("bad.py")
        assert result.checked_files == 1

        contexts, parse_errors = parse_files([tmp_path / "src"])
        assert rule_ids(parse_errors) == [PARSE_ERROR_RULE]
        assert [ctx.module for ctx in contexts] == ["repro.ok"]


class TestFileCollection:
    def test_pycache_skipped_and_duplicates_merged(self, tmp_path):
        src = write_tree(
            tmp_path,
            {
                "repro/a.py": "x = 1\n",
                "repro/__pycache__/a.py": "x = 1\n",
            },
        )
        files = iter_python_files([src, src / "repro" / "a.py"])
        assert [f.name for f in files] == ["a.py"]

    def test_non_python_path_rejected(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("hello\n")
        with pytest.raises(FileNotFoundError):
            iter_python_files([target])


class TestReporters:
    def result_with_findings(self, tmp_path):
        files = {"repro/a.py": "import random\n"}
        return lint_paths([write_tree(tmp_path, files)])

    def test_text_report_lists_findings_and_summary(self, tmp_path):
        result = self.result_with_findings(tmp_path)
        text = render_text(result)
        assert "REP101" in text
        assert "1 files checked" in text
        assert "1 findings" in text

    def test_text_report_mentions_suppressed(self, tmp_path):
        files = {"repro/a.py": "import random  # repro: ignore[REP101]\n"}
        result = lint_paths([write_tree(tmp_path, files)])
        text = render_text(result)
        assert "suppressed" in text

    def test_json_report_structure(self, tmp_path):
        result = self.result_with_findings(tmp_path)
        payload = json.loads(render_json(result))
        assert payload["summary"]["total"] == 1
        assert payload["findings"][0]["rule"] == "REP101"
        assert payload["checked_files"] == 1
        assert "REP101" in payload["rules"]

    def test_finding_render_shape(self, tmp_path):
        result = self.result_with_findings(tmp_path)
        line = result.all_findings[0].render()
        path = result.all_findings[0].path
        assert line.startswith(f"{path}:1:")
        assert "REP101" in line
