"""``repro lint`` / ``mrlc lint`` — the repo-invariant checker's CLI.

Usage::

    repro lint                       # lint src/
    repro lint src/repro/core        # lint a subtree
    repro lint --format json src/    # machine-readable report
    repro lint --select REP101 src/  # run one rule
    repro lint --ignore REP101 src/  # skip one rule
    repro lint --explain REP109      # rule doc, rationale, fix pattern
    repro lint --list-rules          # rule table

Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint.driver import lint_paths
from repro.lint.registry import UnknownRuleError, all_rules, get_rule
from repro.lint.report import render_json, render_text

__all__ = ["build_lint_parser", "lint_main"]


def build_lint_parser() -> argparse.ArgumentParser:
    """Construct the ``repro lint`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Static analysis for the reproduction: per-file invariants (RNG "
            "discipline, obs guarding, await-point races)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        type=str,
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        type=str,
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--explain",
        type=str,
        default=None,
        metavar="RULE",
        help="print one rule's full documentation (rationale + fix pattern)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _split_ids(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _explain(rule_id: str, parser: argparse.ArgumentParser) -> int:
    try:
        rule = get_rule(rule_id)
    except UnknownRuleError as exc:
        parser.error(str(exc.args[0]))
    print(rule.id)
    print("=" * len(rule.id))
    print(rule.doc or rule.summary)
    return 0


def lint_main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_lint_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(rule.describe())
        return 0

    if args.explain:
        return _explain(args.explain, parser)

    try:
        result = lint_paths(
            args.paths,
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
        )
    except UnknownRuleError as exc:
        parser.error(str(exc.args[0]))
    except FileNotFoundError as exc:
        parser.error(str(exc))

    renderer = render_json if args.format == "json" else render_text
    print(renderer(result))
    return 1 if result.all_findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(lint_main())
