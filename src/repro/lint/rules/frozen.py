"""REP105 — frozen-tree discipline: no attribute writes on AggregationTree.

:class:`~repro.core.tree.AggregationTree` is validated once at construction
(spanning, acyclic, edges exist) and cached-metric consumers assume it never
changes afterwards; all mutation goes through the engine's
:class:`~repro.engine.treestate.TreeState`, whose ``freeze()`` produces a
fresh tree.  This rule flags attribute assignment (and ``setattr``) on
tree-valued expressions outside the two modules that own the invariant —
``repro.core.tree`` (construction) and ``repro.engine.treestate`` (the
freeze path).

Detection is name-based, matching the codebase's pervasive convention:
a bare ``tree``, any ``*_tree`` variable, or a ``.tree`` /
``.*_tree`` attribute (e.g. ``result.tree``) is treated as tree-valued.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.context import FileContext, Project
from repro.lint.registry import lint_rule

__all__ = ["check_frozen_tree"]

#: Modules allowed to touch AggregationTree internals.
_EXEMPT_MODULES = frozenset({"repro.core.tree", "repro.engine.treestate"})


def _is_tree_name(name: str) -> bool:
    return name == "tree" or name.endswith("_tree")


def _is_tree_valued(node: ast.expr) -> bool:
    """Whether an expression is tree-valued by naming convention."""
    if isinstance(node, ast.Name):
        return _is_tree_name(node.id)
    if isinstance(node, ast.Attribute):
        return _is_tree_name(node.attr)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "AggregationTree"
    return False


def _message(target: str) -> str:
    return (
        f"attribute assignment on tree value {target!r}: AggregationTree is "
        "frozen after construction — mutate a TreeState "
        "(repro.engine.treestate) and freeze() it instead"
    )


@lint_rule("REP105")
def check_frozen_tree(
    ctx: FileContext, project: Project
) -> Iterator[Tuple[ast.AST, str]]:
    """attribute writes on AggregationTree values outside the freeze path"""
    if ctx.module in _EXEMPT_MODULES:
        return
    for node in ast.walk(ctx.tree):
        targets: Tuple[ast.expr, ...] = ()
        if isinstance(node, ast.Assign):
            targets = tuple(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = (node.target,)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and node.args
            and _is_tree_valued(node.args[0])
        ):
            yield (node, _message(ast.unparse(node.args[0])))
            continue
        for target in targets:
            if isinstance(target, ast.Attribute) and _is_tree_valued(target.value):
                yield (node, _message(ast.unparse(target.value)))
