"""repro.lint — static analysis engine for this reproduction.

The correctness claims of the repo (decision-identical TreeState deltas,
Lemma 3's ``Q(T) = e^{-C(T)}``, per-seed determinism of every figure) rest
on code conventions that no type checker knows about.  This package encodes
the ones that can be read off one file as rules in a registry
(:func:`lint_rule`), run in one pass: parse every file, run every rule,
report.  Exemptions are ``# repro: ignore[RULE-ID]`` comments next to the
code they excuse.

Every rule reads one AST.  The contracts that span files are checked
where they are used instead: the builder registry checks each builder's
signature at registration, every process boundary rejects a live
``numpy.random.Generator`` (:func:`repro.utils.rng.reject_generators`), the
test suite runs the event loop in debug mode and fails on a stalled
callback, and ``AggregationTree`` enforces its own immutability.

Run it as ``repro lint`` / ``mrlc lint``; see :mod:`repro.lint.rules` for
the rule table and ``docs/static_analysis.md`` for the architecture and
workflow.
"""

from repro.lint.cli import build_lint_parser, lint_main
from repro.lint.context import FileContext, module_name_for
from repro.lint.driver import (
    PARSE_ERROR_RULE,
    LintResult,
    lint_paths,
    select_rules,
)
from repro.lint.findings import Finding
from repro.lint.registry import (
    LintRule,
    UnknownRuleError,
    all_rules,
    get_rule,
    lint_rule,
)
from repro.lint.report import render_json, render_text

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "LintRule",
    "PARSE_ERROR_RULE",
    "UnknownRuleError",
    "all_rules",
    "build_lint_parser",
    "get_rule",
    "lint_main",
    "lint_paths",
    "module_name_for",
    "render_json",
    "render_text",
    "select_rules",
]
