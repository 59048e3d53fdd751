"""Lint driver: one pass that parses every file, runs every rule, reports.

:func:`parse_files` parses every file under the given paths; files that
cannot be read or parsed become ``REP000`` findings and the rest are
still linted.  :func:`run_rules` then visits each file with every selected
rule.  Every rule reads only the file it visits.

Suppression is comment-based::

    x = np.random.default_rng()          # repro: ignore[REP101]
    y = something_else()                 # repro: ignore          (all rules)

and a whole file can opt out of one rule with a top-of-file marker::

    # repro: ignore-file[RULE-ID]

Suppressions are deliberately line- and file-scoped only — there is no
block scope, so each exemption is visible next to the code it excuses.
Either kind counts the findings it hides in :attr:`LintResult.suppressed`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import LintRule, all_rules, get_rule

__all__ = [
    "LintResult",
    "PARSE_ERROR_RULE",
    "lint_paths",
    "parse_files",
    "run_rules",
    "select_rules",
]

#: Pseudo-rule id for unparsable files; not suppressible or selectable.
PARSE_ERROR_RULE = "REP000"

_IGNORE_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s-]+)\])?"
)
_IGNORE_FILE_RE = re.compile(
    r"#\s*repro:\s*ignore-file\[(?P<rules>[A-Za-z0-9_,\s-]+)\]"
)
#: File-level markers must appear in this many leading lines to take effect.
_FILE_MARKER_WINDOW = 20


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]
    suppressed: int = 0
    checked_files: int = 0
    rules_run: Tuple[str, ...] = ()
    parse_errors: List[Finding] = field(default_factory=list)

    @property
    def all_findings(self) -> List[Finding]:
        """Parse errors plus rule findings, in report order."""
        merged = self.parse_errors + self.findings
        return sorted(merged, key=lambda f: f.sort_key)


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand *paths* (files or directories) into a sorted list of .py files."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in path.rglob("*.py"):
                if "__pycache__" in sub.parts:
                    continue
                seen.add(sub.resolve())
        elif path.suffix == ".py":
            seen.add(path.resolve())
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(seen)


def _parse_error_finding(path: Path, exc: Exception) -> Finding:
    if isinstance(exc, SyntaxError):
        line, col, reason = exc.lineno or 1, (exc.offset or 1) - 1, exc.msg
    else:  # unreadable, or not UTF-8
        line, col, reason = 1, 0, str(exc)
    return Finding(
        rule=PARSE_ERROR_RULE,
        path=str(path),
        line=line,
        col=col,
        message=f"file does not parse: {reason}",
    )


def parse_files(
    paths: Sequence[Union[str, Path]],
) -> Tuple[List[FileContext], List[Finding]]:
    """Parse every file under *paths*; returns ``(contexts, parse_errors)``.

    Files that cannot be read as UTF-8 or do not parse become ``REP000``
    findings and are left out; the rest are still linted.
    """
    contexts: List[FileContext] = []
    parse_errors: List[Finding] = []
    for file_path in iter_python_files(paths):
        try:
            contexts.append(FileContext.parse(file_path))
        except (OSError, UnicodeDecodeError, SyntaxError) as exc:
            parse_errors.append(_parse_error_finding(file_path, exc))
    return contexts, parse_errors


def select_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> Tuple[LintRule, ...]:
    """Resolve the rule set for a run; unknown ids raise ``UnknownRuleError``."""
    if select is not None:
        rules = tuple(get_rule(rule_id) for rule_id in select)
    else:
        rules = all_rules()
    if ignore:
        ignored = set(ignore)
        for rule_id in ignored:
            get_rule(rule_id)  # validate
        rules = tuple(rule for rule in rules if rule.id not in ignored)
    return rules


def _file_ignores(ctx: FileContext) -> FrozenSet[str]:
    """Rule ids disabled for the whole file via ``# repro: ignore-file[...]``."""
    ids: Set[str] = set()
    for line in ctx.lines[:_FILE_MARKER_WINDOW]:
        match = _IGNORE_FILE_RE.search(line)
        if match:
            ids.update(part.strip() for part in match.group("rules").split(","))
    return frozenset(filter(None, ids))


def _suppressed(
    ctx: FileContext, file_ignores: FrozenSet[str], rule_id: str, line: int
) -> bool:
    """Whether a *rule_id* finding on *line* is covered by an ignore marker."""
    if rule_id in file_ignores:
        return True
    if not 0 < line <= len(ctx.lines):
        return False
    match = _IGNORE_RE.search(ctx.lines[line - 1])
    if match is None:
        return False
    rules = match.group("rules")
    if rules is None:
        return True  # bare `# repro: ignore` silences every rule on the line
    return rule_id in {part.strip() for part in rules.split(",")}


def run_rules(
    contexts: Sequence[FileContext], rules: Sequence[LintRule]
) -> Tuple[List[Finding], int]:
    """Run *rules* over every file; returns ``(findings, suppressed_count)``."""
    findings: List[Finding] = []
    suppressed = 0
    for ctx in contexts:
        file_ignores = _file_ignores(ctx)
        for rule in rules:
            for node, message in rule.check(ctx):
                line = getattr(node, "lineno", 1)
                col = getattr(node, "col_offset", 0)
                if _suppressed(ctx, file_ignores, rule.id, line):
                    suppressed += 1
                    continue
                findings.append(
                    Finding(
                        rule=rule.id,
                        path=ctx.display_path,
                        line=line,
                        col=col,
                        message=message,
                    )
                )
    findings.sort(key=lambda f: f.sort_key)
    return findings, suppressed


def lint_paths(
    paths: Sequence[Union[str, Path]],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint *paths* with the selected rules — the library entry point."""
    rules = select_rules(select=select, ignore=ignore)
    contexts, parse_errors = parse_files(paths)
    findings, suppressed = run_rules(contexts, rules)
    return LintResult(
        findings=findings,
        suppressed=suppressed,
        checked_files=len(contexts),
        rules_run=tuple(rule.id for rule in rules),
        parse_errors=parse_errors,
    )
