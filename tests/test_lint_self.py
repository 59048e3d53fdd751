"""Self-check: the repo's own source must satisfy its lint rules.

This is the test-suite mirror of the CI gate ``repro lint src/`` — if it
fails, either fix the violation or (for a deliberate exemption) add a
``# repro: ignore[...]`` comment next to the offending line.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths
from repro.lint.registry import all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


class TestSelfCheck:
    def test_src_is_clean(self):
        findings = lint_paths([SRC]).all_findings
        rendered = "\n".join(f.render() for f in findings)
        assert findings == [], f"lint findings in src/:\n{rendered}"

    def test_src_has_meaningful_coverage(self):
        result = lint_paths([SRC])
        assert result.checked_files > 50
        assert result.parse_errors == []

    def test_all_advertised_rules_registered(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == ["REP101", "REP102", "REP109"]

    def test_every_rule_has_severity_and_summary(self):
        for rule in all_rules():
            assert rule.summary, rule.id

    def test_every_rule_has_explain_doc(self):
        # --explain's source of truth: each rule carries its full docstring.
        for rule in all_rules():
            assert rule.doc, f"{rule.id} has no docstring for --explain"
