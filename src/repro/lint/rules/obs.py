"""REP102 — obs hot-path guarding: no unguarded ``OBS.registry``/``OBS.tracer``.

The instrumentation layer's contract (:mod:`repro.obs.runtime`) is that the
null path costs one attribute load and a branch; that holds only while every
metrics/tracer call in hot algorithm code sits behind ``OBS.enabled`` (or
``is_enabled()``).  This rule checks the packages on the build hot path —
``repro.core``, ``repro.engine``, ``repro.baselines`` — and flags any
``OBS.registry`` / ``OBS.tracer`` access that is not lexically inside a
guarded ``if``/conditional expression.  The distributed protocol and the
fault-injection plane (``repro.distributed``, ``repro.faults``) sit on the
per-round simulation hot path, and the serving layer (``repro.serve``)
sits on the per-request path, so they are held to the same contract.

Recognized guards, matching the idioms already in the tree::

    if OBS.enabled: ...
    if OBS.enabled and moves: ...
    enabled = OBS.enabled          # alias, tested later
    if enabled: ...
    if is_enabled(): ...
    x = a if OBS.enabled else b
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.lint.context import FileContext

__all__ = ["HOT_PACKAGES", "check_obs_guard"]

#: Packages whose per-call overhead budget forbids unguarded instrumentation.
HOT_PACKAGES = (
    "repro.core",
    "repro.engine",
    "repro.baselines",
    "repro.distributed",
    "repro.experiments",
    "repro.faults",
    "repro.serve",
    "repro.simulation",
)

_GUARDED_ATTRS = frozenset({"registry", "tracer"})


def _is_obs_enabled_expr(node: ast.expr) -> bool:
    """``OBS.enabled`` or an ``is_enabled()`` call."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "enabled"
        and isinstance(node.value, ast.Name)
        and node.value.id == "OBS"
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        return name == "is_enabled"
    return False


def _collect_guard_aliases(tree: ast.Module) -> Set[str]:
    """Names assigned from ``OBS.enabled`` / ``is_enabled()`` anywhere in the file."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_obs_enabled_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
    return aliases


def _test_guards(test: ast.expr, aliases: Set[str]) -> bool:
    """Whether a condition mentions the obs switch (directly or via alias)."""
    for node in ast.walk(test):
        if _is_obs_enabled_expr(node):
            return True
        if isinstance(node, ast.Name) and node.id in aliases:
            return True
    return False


def check_obs_guard(ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
    """OBS.registry/OBS.tracer use in hot-path code outside an OBS.enabled guard"""
    if not ctx.in_package(*HOT_PACKAGES):
        return
    aliases = _collect_guard_aliases(ctx.tree)
    violations: List[ast.AST] = []

    def visit(node: ast.AST, guarded: bool) -> None:
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _GUARDED_ATTRS
            and isinstance(node.value, ast.Name)
            and node.value.id == "OBS"
            and not guarded
        ):
            violations.append(node)
            return
        if isinstance(node, ast.If):
            inner = guarded or _test_guards(node.test, aliases)
            visit(node.test, guarded)
            for child in node.body:
                visit(child, inner)
            for child in node.orelse:
                visit(child, guarded)
            return
        if isinstance(node, ast.IfExp):
            inner = guarded or _test_guards(node.test, aliases)
            visit(node.test, guarded)
            visit(node.body, inner)
            visit(node.orelse, guarded)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(ctx.tree, False)
    for node in violations:
        attr = node.attr if isinstance(node, ast.Attribute) else "?"
        yield (
            node,
            f"OBS.{attr} accessed on the build hot path without an "
            "OBS.enabled / is_enabled() guard; wrap it in "
            "`if OBS.enabled:` to keep the null path branch-cheap",
        )
