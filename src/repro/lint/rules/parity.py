"""REP111 — backend-parity drift between TreeState implementations.

PR 8's bitwise-parity guarantee only holds while every backend exposes
the same surface: the :class:`~repro.engine.treestate.TreeStateBackend`
protocol is the contract, :class:`~repro.engine.treestate.TreeState` is
the object reference, and any class declaring a ``backend_name`` is a
backend bound by both.  Three drift modes:

* a protocol method the backend neither defines nor inherits — callers
  switching backends hit ``AttributeError`` at runtime;
* a protocol method the backend redefines with a different signature
  (positional names, keyword-only set, ``*args``/``**kwargs``-ness) —
  call sites written against the protocol stop resolving;
* a *public* method the backend adds that neither the protocol nor the
  reference has — code written against it silently stops being
  backend-portable.  Intentional fast paths stay, but behind an explicit
  ``# repro: ignore[REP111]`` with justification.

The rule is inert when ``repro.engine.treestate`` is outside the linted
file set (fixture trees opt in by providing a stub).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set, Tuple, Union

from repro.lint.context import FileContext, Project
from repro.lint.findings import Loc, Severity
from repro.lint.graph import FunctionSummary, ModuleSummary
from repro.lint.registry import lint_rule

__all__ = ["check_backend_parity"]

_Yield = Tuple[Union[ast.AST, Loc], str]

#: Module holding the protocol and the object reference.
TREESTATE_MODULE = "repro.engine.treestate"

#: The structural contract every backend must satisfy.
PROTOCOL_CLASS = "TreeStateBackend"

#: The reference implementation whose extra surface is also sanctioned.
REFERENCE_CLASS = "TreeState"

#: Class-level marker identifying a backend implementation.
BACKEND_MARKER = "backend_name"

#: Dunders and protocol plumbing exempt from the "extra method" check.
_IGNORED_METHODS = frozenset({"__init__", "__new__", "__init_subclass__"})


def _methods(summary: ModuleSummary, class_name: str) -> Dict[str, FunctionSummary]:
    return {
        fn.name: fn
        for fn in summary.methods_of(class_name)
        if fn.name not in _IGNORED_METHODS and not fn.name.startswith("__")
    }


def _signature_shape(
    fn: FunctionSummary,
) -> Tuple[Tuple[str, ...], Set[str], bool, bool]:
    pos = fn.pos_params
    if pos and pos[0] == "self":
        pos = pos[1:]
    return pos, set(fn.kwonly_params), fn.has_vararg, fn.has_kwarg


def _inherited_method_names(
    project: Project, module: str, class_name: str
) -> Set[str]:
    """Method names available through the project-resolvable base chain."""
    graph = project.call_graph()
    names: Set[str] = set()
    seen: Set[str] = set()
    stack = list(graph.class_bases.get(f"{module}:{class_name}", ()))
    while stack:
        class_id = stack.pop()
        if class_id in seen:
            continue
        seen.add(class_id)
        base_module, base_name = class_id.split(":", 1)
        base_summary = project.module_summary(base_module)
        if base_summary is not None:
            names.update(_methods(base_summary, base_name))
        stack.extend(graph.class_bases.get(class_id, ()))
    return names


@lint_rule("REP111", Severity.ERROR)
def check_backend_parity(
    ctx: FileContext, project: Project
) -> Iterator[_Yield]:
    """TreeState backends must match the TreeStateBackend protocol and reference surface

    Rationale: the backend choice is pure performance policy — builders,
    the serve pool, and the experiments layer all switch backends by name
    and expect drop-in behavior.  A missing or re-shaped protocol method
    breaks that switch at runtime; an undeclared public extra quietly
    grows a surface only one backend has, and the next caller couples to
    it.

    Fix pattern: implement the protocol method with the protocol's exact
    signature; for a deliberate backend-only fast path either add it to
    the protocol and the reference too, rename it with a leading
    underscore, or keep it public under ``# repro: ignore[REP111]`` with a
    justification comment.
    """
    treestate = project.module_summary(TREESTATE_MODULE)
    if treestate is None or ctx.module is None:
        return
    protocol = _methods(treestate, PROTOCOL_CLASS)
    reference = _methods(treestate, REFERENCE_CLASS)
    if not protocol:
        return
    summary = project.summary(ctx)
    for cls_sum in summary.classes:
        if cls_sum.name == REFERENCE_CLASS and ctx.module == TREESTATE_MODULE:
            continue
        if cls_sum.name == PROTOCOL_CLASS:
            continue
        if not cls_sum.has_assign(BACKEND_MARKER):
            continue
        own = _methods(summary, cls_sum.name)
        inherited = _inherited_method_names(project, ctx.module, cls_sum.name)

        for name, proto_fn in sorted(protocol.items()):
            impl = own.get(name)
            if impl is None:
                if name not in inherited:
                    yield (
                        Loc(cls_sum.lineno, cls_sum.col),
                        f"backend {cls_sum.name} neither defines nor inherits "
                        f"protocol method {name}(); every TreeStateBackend "
                        "member must be drop-in callable",
                    )
                continue
            if _signature_shape(impl) != _signature_shape(proto_fn):
                yield (
                    Loc(impl.lineno, impl.col),
                    f"backend {cls_sum.name}.{name}() signature drifts from "
                    f"the TreeStateBackend protocol (expected positional "
                    f"{list(_signature_shape(proto_fn)[0])!r}, keyword-only "
                    f"{sorted(_signature_shape(proto_fn)[1])!r}); call sites "
                    "written against the protocol will not resolve",
                )

        sanctioned = set(protocol) | set(reference)
        for name, impl in sorted(own.items()):
            if not impl.is_public or name in sanctioned:
                continue
            yield (
                Loc(impl.lineno, impl.col),
                f"backend {cls_sum.name} adds public method {name}() that "
                "neither the TreeStateBackend protocol nor the TreeState "
                "reference exposes; add it to both, underscore it, or "
                "suppress with justification",
            )

