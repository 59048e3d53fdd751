"""REP104 — builder-registry contract.

The engine's registry (:mod:`repro.engine.registry`) is the single front
door for tree construction: experiments, both CLIs, and the distributed
simulator resolve builders by name.  An algorithm that exists but is not
registered silently falls out of every sweep, and a registered function
whose signature cannot be invoked as ``fn(network, **config)`` blows up at
resolve time instead of import time.  Three checks:

* every public ``build_*`` entry point defined in ``repro.baselines`` or
  ``repro.core`` must be referenced by the stock registration module
  ``repro.engine.builders`` (skipped when that module is outside the
  linted path set) — ``solve_*`` names are deliberately not matched, since
  ``solve_mrlc_lp`` returns an LP solution rather than a tree;
* every ``@tree_builder(...)``-decorated function must take ``network`` as
  its only positional parameter, with all config knobs keyword-only — the
  shape :meth:`RegisteredBuilder.build` invokes;
* a builder name literal must be registered exactly once across the
  project (duplicates raise at import time, but only on the import order
  that loads both).

The rule is cross-file: it reads the module summaries
(:class:`~repro.lint.graph.ModuleSummary`) of every file in the run.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple, Union

from repro.lint.context import FileContext, Project
from repro.lint.findings import Loc
from repro.lint.registry import lint_rule

__all__ = ["check_builder_contract"]

#: Where the stock registrations live; part (a) checks references in here.
REGISTRATION_MODULE = "repro.engine.builders"

#: Packages whose public entry points must be registry-reachable.
ALGORITHM_PACKAGES = ("repro.baselines", "repro.core")

_ENTRY_PREFIXES = ("build_",)

_Yield = Tuple[Union[ast.AST, Loc], str]


def _check_entry_points(
    ctx: FileContext, project: Project
) -> Iterator[_Yield]:
    if not ctx.in_package(*ALGORITHM_PACKAGES):
        return
    if ctx.module == REGISTRATION_MODULE:
        return
    references = project.name_loads(REGISTRATION_MODULE)
    if references is None:
        return  # registration module not part of this lint run
    summary = project.summary(ctx)
    for fn in summary.module_functions():
        name = fn.name
        if name.startswith("_") or not name.startswith(_ENTRY_PREFIXES):
            continue
        if name not in references:
            yield (
                Loc(fn.lineno, fn.col),
                f"public entry point {name}() is not wired into the "
                f"tree-builder registry ({REGISTRATION_MODULE}); register it "
                "with @tree_builder so sweeps and CLIs can resolve it by name",
            )


def _check_signatures(ctx: FileContext, project: Project) -> Iterator[_Yield]:
    summary = project.summary(ctx)
    for fn in summary.functions:
        if fn.builder_name is None:
            continue
        if not fn.pos_params or fn.pos_params[0] != "network":
            yield (
                Loc(fn.lineno, fn.col),
                f"@tree_builder function {fn.name}() must take 'network' "
                "as its first parameter (RegisteredBuilder.build invokes "
                "fn(network, **config))",
            )
        if len(fn.pos_params) > 1 or fn.has_vararg:
            yield (
                Loc(fn.lineno, fn.col),
                f"@tree_builder function {fn.name}() declares extra "
                "positional parameters; config knobs must be keyword-only "
                "to stay compatible with fn(network, **config)",
            )


def _check_duplicate_names(
    ctx: FileContext, project: Project
) -> Iterator[_Yield]:
    registrations = project.tree_builder_registrations()
    summary = project.summary(ctx)
    for fn in summary.functions:
        name = fn.builder_name
        if name is None:
            continue
        sites = registrations.get(name, [])
        if len(sites) > 1:
            others = [
                f"{path}:{line}"
                for path, line in sites
                if (path, line) != (ctx.display_path, fn.lineno)
            ]
            yield (
                Loc(fn.lineno, fn.col),
                f"builder name {name!r} is registered more than once "
                f"(also at {', '.join(others)}); registry names must be "
                "unique",
            )


@lint_rule("REP104")
def check_builder_contract(
    ctx: FileContext, project: Project
) -> Iterator[_Yield]:
    """tree builders must be registered, uniquely named, and (network, **config)-shaped

    Rationale: the registry is the only front door for tree construction —
    sweeps, CLIs, and the serve plane all resolve builders by name.  An
    unregistered ``build_*`` silently drops out of every experiment; a
    builder whose signature is not ``fn(network, **config)`` fails at
    resolve time; a duplicate name literal raises only on the unlucky
    import order.

    Fix pattern: register the entry point in ``repro.engine.builders``
    with ``@tree_builder("name")``, move config knobs after a ``*`` so
    they are keyword-only, and pick a unique registry name.
    """
    yield from _check_entry_points(ctx, project)
    yield from _check_signatures(ctx, project)
    yield from _check_duplicate_names(ctx, project)
