"""REP106 — export drift: ``__all__`` is truthful and re-exports resolve.

Two failure modes this catches before a user's import does:

* a name listed in ``__all__`` that the module never defines (typo, or the
  definition was moved without updating the list), including duplicates;
* a ``from repro.x import name`` whose source module — when it is part of
  the same lint run — defines no such top-level name, which is how package
  ``__init__`` re-export chains rot after a refactor.

Cross-module resolution is static and conservative: only absolute/relative
imports that resolve to a file in the current run are checked, a name
counts as defined if it is bound at module top level (including inside
``if``/``try`` blocks), and importing a submodule by name is recognized.

The rule works entirely from module summaries
(:class:`~repro.lint.graph.ModuleSummary`): ``__all__`` lists are
pre-evaluated at summary-extraction time and import records carry their
resolved absolute targets.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple, Union

from repro.lint.context import FileContext, Project
from repro.lint.findings import Loc, Severity
from repro.lint.registry import lint_rule

__all__ = ["check_export_drift"]

_Yield = Tuple[Union[ast.AST, Loc], str]


def _check_all_list(ctx: FileContext, project: Project) -> Iterator[_Yield]:
    assert ctx.module is not None
    symbols = project.top_level_symbols(ctx.module)
    if symbols is None:  # pragma: no cover - ctx is always in its own project
        return
    summary = project.summary(ctx)
    for decl in summary.all_decls:
        loc = Loc(decl.lineno, decl.col)
        if decl.kind == "dynamic":
            yield (
                loc,
                "__all__ is not a static list of strings; the export surface "
                "must be statically auditable",
            )
            continue
        if decl.kind == "badtype":
            yield (loc, "__all__ must be a list/tuple of name strings")
            continue
        seen: List[str] = []
        for name in decl.names:
            if name in seen:
                yield (loc, f"__all__ lists {name!r} more than once")
            seen.append(name)
            if name not in symbols:
                yield (
                    loc,
                    f"__all__ exports {name!r} but the module defines no such "
                    "top-level name",
                )


def _check_reexports(ctx: FileContext, project: Project) -> Iterator[_Yield]:
    summary = project.summary(ctx)
    for record in summary.imports:
        if record.target is None:
            continue
        target = record.target
        symbols = project.top_level_symbols(target)
        if symbols is None:
            continue  # outside this lint run (stdlib, third-party, unlinted)
        for name, _asname in record.names:
            if name in symbols:
                continue
            if f"{target}.{name}" in project.modules:
                continue  # importing a submodule by name
            yield (
                Loc(record.lineno, record.col),
                f"'from {target} import {name}' does not resolve: "
                f"{target} defines no top-level {name!r}",
            )


@lint_rule("REP106", Severity.ERROR)
def check_export_drift(
    ctx: FileContext, project: Project
) -> Iterator[_Yield]:
    """__all__ entries must exist and intra-package re-exports must resolve

    Rationale: the package's import surface is its API contract.  A stale
    ``__all__`` or a broken ``from repro.x import name`` re-export only
    explodes when a user's import actually exercises it — long after the
    refactor that caused it.

    Fix pattern: keep ``__all__`` a literal list of names the module
    really binds at top level, and update package ``__init__`` re-export
    chains in the same commit that moves a definition.
    """
    if ctx.module is not None:
        yield from _check_all_list(ctx, project)
    yield from _check_reexports(ctx, project)
