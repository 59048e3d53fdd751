"""Driver-level tests: one pass, parse errors, file discovery, report lines."""

from __future__ import annotations

import pytest

from repro.lint import lint_main, lint_paths

from tests.lint_utils import lint_sources, rule_ids, write_tree


class TestOnePass:
    def test_every_rule_runs_on_each_file(self, tmp_path):
        source = (
            "import random\n"
            "from repro.obs import OBS\n"
            "class Server:\n"
            "    async def handle(self):\n"
            "        OBS.tracer.event('x')\n"
            "        pending = self.count\n"
            "        await self.flush()\n"
            "        self.count = pending + 1\n"
        )
        findings = lint_sources(tmp_path, {"repro/serve/a.py": source})
        assert [(f.rule, f.line) for f in findings] == [
            ("REP101", 1),
            ("REP102", 5),
            ("REP109", 8),
        ]


class TestSuppression:
    def test_wrong_id_does_not_suppress(self, tmp_path):
        source = "import random  # repro: ignore[REP102]\n"
        findings = lint_sources(tmp_path, {"repro/a.py": source})
        assert rule_ids(findings) == ["REP101"]

    @pytest.mark.parametrize(
        "source",
        [
            "import random  # repro: ignore[REP101]\n",
            "import random  # repro: ignore\n",
            "# repro: ignore-file[REP101]\nimport random\n",
        ],
        ids=["rule-id", "bare", "ignore-file"],
    )
    def test_ignore_comments_do_not_hide_findings(self, tmp_path, source):
        findings = lint_sources(tmp_path, {"repro/a.py": source})
        assert rule_ids(findings) == ["REP101"]


class TestParseErrors:
    def test_syntax_error_becomes_rep000(self, tmp_path):
        findings = lint_sources(tmp_path, {"repro/bad.py": "def f(:\n"})
        assert rule_ids(findings) == ["REP000"]

    def test_other_files_still_checked(self, tmp_path):
        files = {"repro/bad.py": "def f(:\n", "repro/ok.py": "import random\n"}
        findings = lint_sources(tmp_path, files)
        assert rule_ids(findings) == ["REP000", "REP101"]
        assert findings[1].path.endswith("ok.py")

    def test_undecodable_file_becomes_rep000(self, tmp_path):
        src = tmp_path / "src" / "repro"
        src.mkdir(parents=True)
        (src / "bad.py").write_bytes(b'x = "\xff"\n')
        (src / "ok.py").write_text("import random\n", encoding="utf-8")

        findings = lint_paths([tmp_path / "src"])
        assert rule_ids(findings) == ["REP000", "REP101"]
        assert findings[0].path.endswith("bad.py")
        assert findings[1].path.endswith("ok.py")

    def test_rep000_path_is_cwd_relative_like_rule_findings(
        self, tmp_path, monkeypatch
    ):
        src = write_tree(tmp_path, {"pkg/a.py": "def f(:\n", "pkg/b.py": "import random\n"})
        monkeypatch.chdir(src)
        findings = lint_paths(["pkg"])
        assert [(f.path, f.rule) for f in findings] == [
            ("pkg/a.py", "REP000"),
            ("pkg/b.py", "REP101"),
        ]


class TestFileCollection:
    def test_pycache_skipped_and_duplicates_merged(self, tmp_path):
        src = write_tree(
            tmp_path,
            {
                "repro/a.py": "import random\n",
                "repro/__pycache__/a.py": "import random\n",
            },
        )
        findings = lint_paths([src, src / "repro" / "a.py"])
        assert [f.path.rsplit("/", 2)[-2:] for f in findings] == [["repro", "a.py"]]

    def test_non_python_path_rejected(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("hello\n")
        with pytest.raises(FileNotFoundError):
            lint_paths([target])


class TestReporters:
    def test_text_report_lists_findings_and_summary(self, tmp_path, capsys):
        src = write_tree(tmp_path, {"repro/a.py": "import random\n"})
        assert lint_main([str(src)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert "REP101" in lines[0]
        assert lines[1] == "1 findings"

    def test_finding_render_shape(self, tmp_path):
        (finding,) = lint_sources(tmp_path, {"repro/a.py": "import random\n"})
        line = finding.render()
        assert line.startswith(f"{finding.path}:1:0 REP101: ")
        assert line.endswith(finding.message)
