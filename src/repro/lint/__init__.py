"""repro.lint — static analysis engine for this reproduction.

The correctness claims of the repo (decision-identical TreeState deltas,
Lemma 3's ``Q(T) = e^{-C(T)}``, per-seed determinism of every figure) rest
on code conventions that no type checker knows about.  This package encodes
them as rules in a registry (:func:`lint_rule`), run in one pass: parse
every file, run every rule, report.  Exemptions are
``# repro: ignore[RULE-ID]`` comments next to the code they excuse.

Per-file rules read one AST; the interprocedural rules (REP108–REP110:
async blocking reachability, await races, process-boundary RNG discipline)
read module summaries, a name-resolved call graph
(:mod:`repro.lint.graph`), and a fixpoint effect inference
(:mod:`repro.lint.effects`).  Frozen trees are not a lint rule:
``AggregationTree`` enforces its own immutability.

Run it as ``repro lint`` / ``mrlc lint``; see :mod:`repro.lint.rules` for
the rule table and ``docs/static_analysis.md`` for the architecture and
workflow.
"""

from repro.lint.cli import build_lint_parser, lint_main
from repro.lint.context import FileContext, Project, module_name_for
from repro.lint.driver import (
    PARSE_ERROR_RULE,
    LintResult,
    lint_paths,
    select_rules,
)
from repro.lint.effects import EffectAnalysis, analyze_effects
from repro.lint.findings import Finding, Loc
from repro.lint.graph import (
    CallGraph,
    ModuleSummary,
    build_call_graph,
    extract_summary,
)
from repro.lint.registry import (
    LintRule,
    UnknownRuleError,
    all_rules,
    get_rule,
    lint_rule,
)
from repro.lint.report import render_json, render_text

__all__ = [
    "CallGraph",
    "EffectAnalysis",
    "FileContext",
    "Finding",
    "LintResult",
    "LintRule",
    "Loc",
    "ModuleSummary",
    "PARSE_ERROR_RULE",
    "Project",
    "UnknownRuleError",
    "all_rules",
    "analyze_effects",
    "build_call_graph",
    "build_lint_parser",
    "extract_summary",
    "get_rule",
    "lint_main",
    "lint_paths",
    "module_name_for",
    "render_json",
    "render_text",
    "select_rules",
]
