"""Lint-rule registry: ``@lint_rule(id)`` and rule lookup.

Mirrors the tree-builder registry's shape (:mod:`repro.engine.registry`):
rules self-register at decoration time, the stock rule modules are imported
lazily on first lookup, and consumers address rules by their stable string
id.  A rule is ``check(ctx)``: a generator over ``(ast_node, message)``
pairs for one parsed file; the driver stamps rule id, file, and location
onto each yielded pair to form :class:`~repro.lint.findings.Finding`
objects.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.lint.context import FileContext

__all__ = [
    "LintRule",
    "RuleCheck",
    "UnknownRuleError",
    "all_rules",
    "get_rule",
    "lint_rule",
]

#: A rule implementation: yields ``(node, message)`` for each violation in
#: *ctx*, reading that one file only.
RuleCheck = Callable[["FileContext"], Iterable[Tuple[ast.AST, str]]]


class UnknownRuleError(KeyError):
    """Raised when resolving a rule id that is not registered."""


@dataclass(frozen=True)
class LintRule:
    """A registered rule: id, summary, and the checker.

    ``doc`` is the checker's full docstring — the shared source of truth
    for ``repro lint --explain`` and ``docs/static_analysis.md``.
    """

    id: str
    summary: str
    check: RuleCheck
    doc: str = ""

    def describe(self) -> str:
        return f"{self.id} {self.summary}"


_RULES: Dict[str, LintRule] = {}
_DEFAULTS_LOADED = False


def _ensure_defaults() -> None:
    global _DEFAULTS_LOADED
    if not _DEFAULTS_LOADED:
        _DEFAULTS_LOADED = True
        # Imported for its registration side effects.
        import repro.lint.rules  # noqa: F401


def lint_rule(rule_id: str) -> Callable[[RuleCheck], RuleCheck]:
    """Decorator registering *fn* as the checker for *rule_id*.

    The first line of the checker's docstring is the rule's summary; the
    full docstring is kept as the rule's ``doc`` (the ``--explain`` text).
    Duplicate ids are an error: rule ids are the suppression vocabulary
    and must stay unambiguous.
    """

    def decorator(fn: RuleCheck) -> RuleCheck:
        if rule_id in _RULES:
            raise ValueError(f"lint rule {rule_id!r} is already registered")
        full_doc = inspect.cleandoc(fn.__doc__ or "")
        doc_lines = full_doc.splitlines()
        _RULES[rule_id] = LintRule(
            id=rule_id,
            summary=doc_lines[0] if doc_lines else rule_id,
            check=fn,
            doc=full_doc,
        )
        return fn

    return decorator


def all_rules() -> Tuple[LintRule, ...]:
    """Every registered rule, sorted by id."""
    _ensure_defaults()
    return tuple(_RULES[rule_id] for rule_id in sorted(_RULES))


def get_rule(rule_id: str) -> LintRule:
    """Resolve a rule by id; raises :class:`UnknownRuleError`."""
    _ensure_defaults()
    try:
        return _RULES[rule_id]
    except KeyError:
        raise UnknownRuleError(
            f"unknown lint rule {rule_id!r}; available: " + ", ".join(sorted(_RULES))
        ) from None
