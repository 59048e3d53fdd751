"""Reporters for lint results: human text and machine JSON."""

from __future__ import annotations

import json
from typing import List

from repro.lint.driver import LintResult

__all__ = ["render_json", "render_text"]


def _summary_line(result: LintResult) -> str:
    parts = [
        f"{result.checked_files} files checked",
        f"{len(result.all_findings)} findings",
    ]
    if result.suppressed:
        parts.append(f"{result.suppressed} suppressed")
    return ", ".join(parts)


def render_text(result: LintResult) -> str:
    """One line per finding plus a summary; clean runs say so."""
    lines: List[str] = [finding.render() for finding in result.all_findings]
    if lines:
        lines.append("")
    lines.append(_summary_line(result))
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Full structured report, stable key order, for tooling and CI artifacts."""
    findings = result.all_findings
    payload = {
        "checked_files": result.checked_files,
        "rules": list(result.rules_run),
        "findings": [finding.to_dict() for finding in findings],
        "suppressed": result.suppressed,
        "summary": {"total": len(findings)},
    }
    return json.dumps(payload, indent=2, sort_keys=True)
