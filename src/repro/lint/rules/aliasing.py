"""REP112 — interprocedural frozen-``AggregationTree`` mutation via aliases.

REP105 catches ``tree.cost = 0`` written directly inside a function.  It
cannot see the two-step version: a call site passes a frozen tree to a
helper whose *parameter* has a different name, and the helper (or a
helper it calls) mutates attributes on that parameter.  The effect
analysis closes the gap — it computes, per function, which parameters get
attributes written on them, directly or transitively through further
calls — and this rule flags every call site that binds a tree-valued
argument (REP105's naming heuristic: ``tree``, ``*_tree``,
``AggregationTree(...)``) to such a parameter.

Construction internals are exempt the same way REP105 exempts them:
call sites are not flagged when the *callee* lives in the modules that
legitimately assemble trees before freezing.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple, Union

from repro.lint.context import FileContext, Project
from repro.lint.effects import arg_param_pairs
from repro.lint.findings import Loc
from repro.lint.registry import lint_rule

__all__ = ["check_aliased_tree_mutation"]

_Yield = Tuple[Union[ast.AST, Loc], str]

#: Modules allowed to mutate trees mid-construction (mirrors REP105).
EXEMPT_MODULES = frozenset({"repro.core.tree", "repro.engine.treestate"})


@lint_rule("REP112")
def check_aliased_tree_mutation(
    ctx: FileContext, project: Project
) -> Iterator[_Yield]:
    """frozen AggregationTree instances must not be mutated through call aliases

    Rationale: a built tree is frozen — cost/reliability/lifetime were
    computed once from its parents map and every consumer (caches, the
    serve plane, parity tests) relies on them never drifting.  Passing the
    tree into a helper that assigns attributes on its parameter mutates it
    just as surely as assigning in place, but under a different name where
    REP105 cannot see it.

    Fix pattern: rebuild instead of mutating — copy into a mutable
    ``TreeState`` (``TreeState.from_tree``), apply the change, and
    ``freeze()`` a new tree; or return modified values instead of writing
    them onto the input.
    """
    summary = project.summary(ctx)
    if summary.module is None or ctx.module in EXEMPT_MODULES:
        return
    graph = project.call_graph()
    effects = project.effect_analysis()
    for fn in summary.functions:
        node_id = f"{summary.module}:{fn.qualname}"
        for rc in graph.calls.get(node_id, ()):
            if rc.target is None:
                continue
            callee_node = graph.nodes[rc.target]
            if callee_node.module in EXEMPT_MODULES:
                continue
            mutated = effects.params_mutated_by(rc.target)
            if not mutated:
                continue
            callee = callee_node.summary
            for arg, param in arg_param_pairs(rc.site, callee):
                if param in mutated and arg.tree:
                    yield (
                        Loc(rc.site.lineno, rc.site.col),
                        f"frozen tree argument {arg.text!r} is passed to "
                        f"{callee.name}(), which mutates attributes of its "
                        f"{param!r} parameter (directly or transitively); "
                        "copy into a TreeState and freeze a new tree instead",
                    )
