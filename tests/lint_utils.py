"""Shared helpers for the lint test modules."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from repro.lint import Finding, lint_paths


def write_tree(root: Path, files: Dict[str, str]) -> Path:
    """Materialize ``{relpath: source}`` under ``root/src`` and return that dir."""
    src = root / "src"
    for rel, text in files.items():
        path = src / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return src


def rule_ids(findings: List[Finding]) -> List[str]:
    return [f.rule for f in findings]


def lint_sources(tmp_path: Path, files: Dict[str, str]) -> List[Finding]:
    """Lint a synthetic ``src/repro/...`` tree and return sorted findings."""
    return lint_paths([write_tree(tmp_path, files)])
