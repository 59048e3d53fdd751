"""Self-check: the repo's own source must satisfy its lint rules.

This is the test-suite mirror of the CI gate ``repro lint src/``.  There is
no exemption syntax, so a failure is fixed in the code it points at.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import RULES, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


class TestSelfCheck:
    def test_src_is_clean(self):
        findings = lint_paths([SRC])
        rendered = "\n".join(f.render() for f in findings)
        assert findings == [], f"lint findings in src/:\n{rendered}"

    def test_src_has_meaningful_coverage(self):
        # Every file parses (no REP000), and there are enough of them that a
        # clean run means something.
        assert len(list(SRC.rglob("*.py"))) > 50
        assert [f for f in lint_paths([SRC]) if f.rule == "REP000"] == []

    def test_all_advertised_rules_registered(self):
        assert [rule for rule, _ in RULES] == ["REP101", "REP102", "REP109"]

    def test_every_rule_has_severity_and_summary(self):
        # The first docstring line of each check is its one-line summary.
        for rule, check in RULES:
            assert (check.__doc__ or "").strip(), rule
