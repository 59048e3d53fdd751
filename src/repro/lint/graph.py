"""Whole-program substrate: module summaries and the call graph.

The per-file rules see one AST at a time; the interprocedural rules
(REP108–REP110) need the *project*.  This module provides the two layers
they stand on:

1. :class:`ModuleSummary` — a digest of one parsed file: referenced
   names, import aliases (module- and function-level), every function
   with its call sites, attribute writes, and async event ordering.
2. :class:`CallGraph` — a name-resolved call graph.  Resolution is
   deliberately conservative: bare names resolve through local nested
   defs, module functions/classes, import aliases (including lazy
   function-level imports), and star imports; ``self.method()`` resolves
   through the defining class and its project-resolvable bases; anything
   else stays unresolved rather than guessed.  Every call site also gets a
   *canonical* dotted name (aliases substituted, e.g. ``sleep`` →
   ``time.sleep``) so the effect pass (:mod:`repro.lint.effects`) can
   classify external primitives.

Nothing here imports the rules; the rules read these structures through
:class:`~repro.lint.context.Project` accessors.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - types only, avoids an import cycle
    from repro.lint.context import FileContext, Project

__all__ = [
    "ArgInfo",
    "CallGraph",
    "CallSite",
    "ClassSummary",
    "Event",
    "FunctionSummary",
    "ModuleSummary",
    "ResolvedCall",
    "build_call_graph",
    "extract_summary",
]

#: Longest argument-source snippet kept in a summary.
_ARG_TEXT_LIMIT = 80


def _is_rng_name(name: str) -> bool:
    return name == "rng" or name.endswith("_rng")


def _dotted_chain(node: ast.expr) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ``""``."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return ""
    parts.append(current.id)
    return ".".join(reversed(parts))


def _is_rng_valued(node: ast.expr) -> bool:
    """Whether an expression looks like a *live* numpy Generator.

    ``spawn_rngs(...)`` results are deliberately not matched: spawning
    fresh child streams for handoff is the sanctioned pattern REP110
    points violators at.
    """
    if isinstance(node, ast.Name):
        return _is_rng_name(node.id)
    if isinstance(node, ast.Attribute):
        return _is_rng_name(node.attr)
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else ""
        )
        return name in {"as_rng", "default_rng"}
    return False


def _lambda_touches_rng(node: ast.expr) -> bool:
    if not isinstance(node, ast.Lambda):
        return False
    lambda_params = {a.arg for a in node.args.args + node.args.kwonlyargs}
    for sub in ast.walk(node.body):
        if isinstance(sub, ast.Name) and _is_rng_name(sub.id):
            if sub.id not in lambda_params:
                return True
    return False


def _trim(text: str) -> str:
    return text if len(text) <= _ARG_TEXT_LIMIT else text[: _ARG_TEXT_LIMIT - 1] + "…"


# ----------------------------------------------------------------------
# Summary data model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArgInfo:
    """One argument at a call site, classified for the boundary rules."""

    text: str
    name: Optional[str]  # bare-Name id, else None
    keyword: Optional[str]  # keyword name, None for positional
    rng: bool  # looks like a live Generator (REP110 heuristic)
    lambda_rng: bool  # a lambda whose body references an rng name


@dataclass(frozen=True)
class CallSite:
    """One syntactic call inside a function body."""

    chain: str  # dotted callee expression ("" when not a name chain)
    lineno: int
    col: int
    awaited: bool
    args: Tuple[ArgInfo, ...] = ()


@dataclass(frozen=True)
class Event:
    """One ordered execution event inside an ``async def`` body.

    ``kind`` is ``"read"``/``"write"`` (of a ``self`` attribute, the
    detail), ``"await"``, or ``"call"`` (detail = the dotted chain).
    Events are recorded in evaluation order — for an assignment the value
    side (including awaits) precedes the store — which is exactly the
    order REP109's read-modify-write scan needs.
    """

    kind: str
    detail: str
    lineno: int
    col: int


@dataclass(frozen=True)
class FunctionSummary:
    """One function/method/nested def, digested for whole-program passes."""

    name: str
    qualname: str  # "f", "C.m", or "f.<locals>.g"
    lineno: int
    col: int
    is_async: bool
    parent_class: Optional[str]
    nested: bool
    builder_name: Optional[str]
    pos_params: Tuple[str, ...]  # posonly + regular, including self
    has_vararg: bool
    calls: Tuple[CallSite, ...]
    events: Tuple[Event, ...]  # populated for async functions only
    self_attr_writes: Tuple[str, ...]
    rng_capture: bool  # reads an rng-named name it does not bind


@dataclass(frozen=True)
class ClassSummary:
    """One class: bases and async-ness."""

    name: str
    lineno: int
    col: int
    bases: Tuple[str, ...]  # dotted chains as written
    has_async_method: bool


@dataclass
class ModuleSummary:
    """Everything the whole-program passes need from one parsed file."""

    module: Optional[str]
    name_loads: FrozenSet[str]
    aliases: Dict[str, str]  # local name -> dotted target
    star_imports: Tuple[str, ...]
    functions: Tuple[FunctionSummary, ...]  # flat: module-level + methods + nested
    classes: Tuple[ClassSummary, ...]

    def module_functions(self) -> Iterator[FunctionSummary]:
        """Module top-level defs (no methods, no nested defs)."""
        for fn in self.functions:
            if fn.parent_class is None and not fn.nested:
                yield fn

    def methods_of(self, class_name: str) -> Iterator[FunctionSummary]:
        for fn in self.functions:
            if fn.parent_class == class_name and not fn.nested:
                yield fn

    def class_named(self, name: str) -> Optional[ClassSummary]:
        for cls_sum in self.classes:
            if cls_sum.name == name:
                return cls_sum
        return None


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------


def _resolve_relative(
    module: Optional[str], is_package: bool, node: ast.ImportFrom
) -> Optional[str]:
    """Absolute module an ImportFrom pulls from, resolving relative levels."""
    if node.level == 0:
        return node.module
    if module is None:
        return None
    base_parts = module.split(".")
    if not is_package:
        base_parts = base_parts[:-1]
    drop = node.level - 1
    if drop > len(base_parts):
        return None
    if drop:
        base_parts = base_parts[:-drop]
    if node.module:
        base_parts = base_parts + node.module.split(".")
    return ".".join(base_parts) if base_parts else None


def _tree_builder_literal(deco: ast.expr) -> Optional[str]:
    """The name literal of a ``@tree_builder("name", ...)`` decorator."""
    if not isinstance(deco, ast.Call):
        return None
    func = deco.func
    func_name = (
        func.id
        if isinstance(func, ast.Name)
        else func.attr if isinstance(func, ast.Attribute) else None
    )
    if func_name != "tree_builder":
        return None
    if deco.args and isinstance(deco.args[0], ast.Constant):
        value = deco.args[0].value
        if isinstance(value, str):
            return value
    return None


def _arg_info(node: ast.expr, keyword: Optional[str]) -> ArgInfo:
    try:
        text = _trim(ast.unparse(node))
    except Exception:  # pragma: no cover - unparse is total on valid ASTs
        text = "<expr>"
    return ArgInfo(
        text=text,
        name=node.id if isinstance(node, ast.Name) else None,
        keyword=keyword,
        rng=_is_rng_valued(node),
        lambda_rng=_lambda_touches_rng(node),
    )


class _FunctionCollector:
    """Accumulates one function's call sites, events, and attribute writes."""

    def __init__(self, record_events: bool) -> None:
        self.record_events = record_events
        self.calls: List[CallSite] = []
        self.events: List[Event] = []
        self.self_writes: Set[str] = set()
        self.bound_names: Set[str] = set()
        self.loaded_rng_names: Set[str] = set()

    def event(self, kind: str, detail: str, node: ast.AST) -> None:
        if self.record_events:
            self.events.append(
                Event(
                    kind=kind,
                    detail=detail,
                    lineno=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0),
                )
            )


class _Extractor:
    """Single-pass recursive walker producing a :class:`ModuleSummary`.

    Evaluation-order fidelity matters only inside ``async def`` bodies
    (REP109's event stream); elsewhere plain field order is fine.
    """

    def __init__(self, module: Optional[str], is_package: bool) -> None:
        self.module = module
        self.is_package = is_package
        self.aliases: Dict[str, str] = {}
        self.star_imports: List[str] = []
        self.functions: List[FunctionSummary] = []
        self.classes: List[ClassSummary] = []
        self._fn_stack: List[_FunctionCollector] = []
        self._class_stack: List[str] = []
        self._qual_stack: List[str] = []

    # -- imports --------------------------------------------------------

    def _record_import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.aliases[alias.asname] = alias.name
            else:
                head = alias.name.split(".")[0]
                self.aliases.setdefault(head, head)

    def _record_import_from(self, node: ast.ImportFrom) -> None:
        target = _resolve_relative(self.module, self.is_package, node)
        if target is None:
            return
        for alias in node.names:
            if alias.name == "*":
                self.star_imports.append(target)
            else:
                self.aliases[alias.asname or alias.name] = f"{target}.{alias.name}"

    # -- statements -----------------------------------------------------

    def visit_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def visit_stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            self._record_import(node)
        elif isinstance(node, ast.ImportFrom):
            self._record_import_from(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._visit_function(node)
        elif isinstance(node, ast.ClassDef):
            self._visit_class(node)
        elif isinstance(node, ast.Assign):
            # Evaluation order: value first, then the stores.
            self.visit_expr(node.value)
            for target in node.targets:
                self._visit_store_target(target, node)
        elif isinstance(node, ast.AugAssign):
            self._visit_aug_assign(node)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.visit_expr(node.value)
            self._visit_store_target(node.target, node)
        elif isinstance(node, (ast.Return, ast.Expr)):
            if node.value is not None:
                self.visit_expr(node.value)
        elif isinstance(node, (ast.If, ast.While)):
            self.visit_expr(node.test)
            self.visit_body(node.body)
            self.visit_body(node.orelse)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self.visit_expr(node.iter)
            self._visit_store_target(node.target, node)
            self.visit_body(node.body)
            self.visit_body(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self.visit_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._visit_store_target(item.optional_vars, node)
            self.visit_body(node.body)
        elif isinstance(node, ast.Try):
            self.visit_body(node.body)
            for handler in node.handlers:
                self.visit_body(handler.body)
            self.visit_body(node.orelse)
            self.visit_body(node.finalbody)
        elif isinstance(node, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.visit_expr(child)
        elif isinstance(node, (ast.Global, ast.Nonlocal, ast.Pass, ast.Break, ast.Continue)):
            pass
        elif isinstance(node, ast.Match):
            self.visit_expr(node.subject)
            for case in node.cases:
                self.visit_body(case.body)
        else:  # pragma: no cover - future statement kinds degrade gracefully
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.visit_expr(child)
                elif isinstance(child, ast.stmt):
                    self.visit_stmt(child)

    def _visit_aug_assign(self, node: ast.AugAssign) -> None:
        # Execution order: load target, evaluate value, store target —
        # `self.x += await g()` really is a read-await-write.
        target = node.target
        fn = self._fn_stack[-1] if self._fn_stack else None
        if fn is not None and isinstance(target, ast.Attribute):
            chain = _dotted_chain(target)
            if chain.startswith("self.") and chain.count(".") == 1:
                fn.event("read", chain.split(".", 1)[1], node)
        self.visit_expr(node.value)
        self._visit_store_target(target, node)

    def _visit_store_target(self, target: ast.expr, stmt: ast.stmt) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        if isinstance(target, ast.Name):
            if fn is not None:
                fn.bound_names.add(target.id)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._visit_store_target(element, stmt)
            return
        if isinstance(target, ast.Starred):
            self._visit_store_target(target.value, stmt)
            return
        if isinstance(target, ast.Subscript):
            self.visit_expr(target.value)
            self.visit_expr(target.slice)
            return
        if isinstance(target, ast.Attribute):
            base = target.value
            if fn is not None and isinstance(base, ast.Name) and base.id == "self":
                fn.self_writes.add(target.attr)
                fn.event("write", target.attr, stmt)
            # Reads hidden in the base expression (e.g. self.a.b = x reads self.a).
            self.visit_expr(base)

    # -- expressions ----------------------------------------------------

    def visit_expr(self, node: ast.expr) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        if isinstance(node, ast.Await):
            if isinstance(node.value, ast.Call):
                self._visit_call(node.value, awaited=True)
            else:
                self.visit_expr(node.value)
            if fn is not None:
                fn.event("await", "", node)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node, awaited=False)
            return
        if isinstance(node, ast.Lambda):
            return  # bodies analyzed only via the arg-level rng heuristic
        if isinstance(node, ast.Attribute):
            chain = _dotted_chain(node)
            if (
                fn is not None
                and isinstance(node.ctx, ast.Load)
                and chain.startswith("self.")
                and chain.count(".") == 1
            ):
                fn.event("read", node.attr, node)
            self.visit_expr(node.value)
            return
        if isinstance(node, ast.Name):
            if fn is not None and isinstance(node.ctx, ast.Load):
                if _is_rng_name(node.id):
                    fn.loaded_rng_names.add(node.id)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.visit_expr(child)
            elif isinstance(child, ast.comprehension):
                self.visit_expr(child.iter)
                self._visit_store_target(child.target, ast.Pass())
                for cond in child.ifs:
                    self.visit_expr(cond)

    def _visit_call(self, node: ast.Call, awaited: bool) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        chain = _dotted_chain(node.func)
        if not chain:
            self.visit_expr(node.func)
        elif fn is not None:
            # Record reads hiding in a self.<attr>... receiver chain.
            if chain.startswith("self.") and chain.count(".") >= 2:
                fn.event("read", chain.split(".")[1], node)
            # The receiver of `rng.random()` is a read of `rng` even though
            # no bare Name node is visited — capture detection needs it.
            head = chain.split(".", 1)[0]
            if head != "self" and _is_rng_name(head):
                fn.loaded_rng_names.add(head)
        args = [_arg_info(a, None) for a in node.args if not isinstance(a, ast.Starred)]
        args += [
            _arg_info(kw.value, kw.arg)
            for kw in node.keywords
            if kw.arg is not None
        ]
        if fn is not None:
            fn.calls.append(
                CallSite(
                    chain=chain,
                    lineno=node.lineno,
                    col=node.col_offset,
                    awaited=awaited,
                    args=tuple(args),
                )
            )
            fn.event("call", chain, node)
        for arg in node.args:
            target = arg.value if isinstance(arg, ast.Starred) else arg
            self.visit_expr(target)
        for kw in node.keywords:
            self.visit_expr(kw.value)

    # -- definitions ----------------------------------------------------

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        is_async = isinstance(node, ast.AsyncFunctionDef)
        parent_class = self._class_stack[-1] if self._class_stack else None
        nested = bool(self._fn_stack)
        if nested:
            qual = self._qual_stack[-1] + ".<locals>." + node.name
        elif parent_class is not None:
            qual = f"{parent_class}.{node.name}"
        else:
            qual = node.name

        for deco in node.decorator_list:
            self.visit_expr(deco)

        collector = _FunctionCollector(record_events=is_async)
        self._fn_stack.append(collector)
        self._qual_stack.append(qual)
        self.visit_body(node.body)
        self._qual_stack.pop()
        self._fn_stack.pop()

        args = node.args
        pos = tuple(a.arg for a in list(args.posonlyargs) + list(args.args))
        params = set(pos) | {a.arg for a in args.kwonlyargs}
        captured_rng = any(
            name not in params and name not in collector.bound_names
            for name in collector.loaded_rng_names
        )
        builder_name = None
        for deco in node.decorator_list:
            builder_name = _tree_builder_literal(deco)
            if builder_name is not None:
                break
        self.functions.append(
            FunctionSummary(
                name=node.name,
                qualname=qual,
                lineno=node.lineno,
                col=node.col_offset,
                is_async=is_async,
                parent_class=parent_class if not nested else None,
                nested=nested,
                builder_name=builder_name,
                pos_params=pos,
                has_vararg=args.vararg is not None,
                calls=tuple(collector.calls),
                events=tuple(collector.events),
                self_attr_writes=tuple(sorted(collector.self_writes)),
                rng_capture=captured_rng,
            )
        )

    def _visit_class(self, node: ast.ClassDef) -> None:
        if self._fn_stack or self._class_stack:
            # Function-local / doubly nested classes: record methods with a
            # best-effort qualname but keep the class out of the flat index.
            self._class_stack.append(node.name)
            self.visit_body(node.body)
            self._class_stack.pop()
            return
        self._class_stack.append(node.name)
        n_before = len(self.functions)
        self.visit_body(node.body)
        self._class_stack.pop()
        has_async = any(
            fn.is_async and fn.parent_class == node.name
            for fn in self.functions[n_before:]
        )
        self.classes.append(
            ClassSummary(
                name=node.name,
                lineno=node.lineno,
                col=node.col_offset,
                bases=tuple(filter(None, (_dotted_chain(b) for b in node.bases))),
                has_async_method=has_async,
            )
        )


def extract_summary(ctx: "FileContext") -> ModuleSummary:
    """Digest *ctx* (parses it if needed) into a :class:`ModuleSummary`."""
    tree = ctx.tree
    extractor = _Extractor(ctx.module, ctx.is_package)
    extractor.visit_body(tree.body)
    loads = frozenset(
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    )
    return ModuleSummary(
        module=ctx.module,
        name_loads=loads,
        aliases=extractor.aliases,
        star_imports=tuple(extractor.star_imports),
        functions=tuple(extractor.functions),
        classes=tuple(extractor.classes),
    )


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedCall:
    """One call site plus what name resolution made of it."""

    site: CallSite
    target: Optional[str]  # node id "module:qualname", or None
    canonical: str  # alias-substituted dotted name ("" when unknown)


@dataclass
class FunctionNode:
    id: str
    module: str
    summary: FunctionSummary


@dataclass
class CallGraph:
    """Name-resolved call graph over every summarized function."""

    nodes: Dict[str, FunctionNode] = field(default_factory=dict)
    calls: Dict[str, List[ResolvedCall]] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)  # "mod:Cls"
    class_bases: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    builders: Dict[str, str] = field(default_factory=dict)  # name -> node id

    @property
    def edges(self) -> Dict[str, Set[str]]:
        out: Dict[str, Set[str]] = {}
        for caller, resolved in self.calls.items():
            out[caller] = {rc.target for rc in resolved if rc.target is not None}
        return out

    def callers_of(self) -> Dict[str, Set[str]]:
        reverse: Dict[str, Set[str]] = {}
        for caller, resolved in self.calls.items():
            for rc in resolved:
                if rc.target is not None:
                    reverse.setdefault(rc.target, set()).add(caller)
        return reverse

    def resolve_method(self, class_id: str, name: str) -> Optional[str]:
        """Find ``name`` on *class_id* or its project-resolvable bases."""
        seen: Set[str] = set()
        stack = [class_id]
        while stack:
            cid = stack.pop()
            if cid in seen:
                continue
            seen.add(cid)
            candidate = f"{cid.split(':', 1)[0]}:{cid.split(':', 1)[1]}.{name}"
            if candidate in self.nodes:
                return candidate
            stack.extend(self.class_bases.get(cid, ()))
        return None


def _canonicalize(summary: ModuleSummary, chain: str) -> str:
    """Substitute the chain head through the module's import aliases."""
    head, _, rest = chain.partition(".")
    target = summary.aliases.get(head)
    if target is None:
        return chain
    return f"{target}.{rest}" if rest else target


def build_call_graph(project: "Project") -> CallGraph:
    """Resolve every summarized call site against the project's symbols."""
    graph = CallGraph()
    summaries: Dict[str, ModuleSummary] = {}
    for ctx in project.files:
        summary = project.summary(ctx)
        if summary.module is None:
            continue
        summaries[summary.module] = summary
        for fn in summary.functions:
            node_id = f"{summary.module}:{fn.qualname}"
            graph.nodes[node_id] = FunctionNode(
                id=node_id, module=summary.module, summary=fn
            )
            if fn.builder_name is not None:
                graph.builders.setdefault(fn.builder_name, node_id)
        for cls_sum in summary.classes:
            graph.classes[f"{summary.module}:{cls_sum.name}"] = cls_sum

    # Resolve class bases to project class ids (for method lookup / MRO-ish).
    for class_id, cls_sum in graph.classes.items():
        module = class_id.split(":", 1)[0]
        summary = summaries[module]
        resolved_bases: List[str] = []
        for base_chain in cls_sum.bases:
            base_id = _resolve_class(graph, summaries, summary, base_chain)
            if base_id is not None:
                resolved_bases.append(base_id)
        graph.class_bases[class_id] = tuple(resolved_bases)

    for module, summary in summaries.items():
        for fn in summary.functions:
            caller_id = f"{module}:{fn.qualname}"
            resolved: List[ResolvedCall] = []
            for site in fn.calls:
                target, canonical = _resolve_call(
                    graph, summaries, summary, fn, site.chain
                )
                resolved.append(
                    ResolvedCall(site=site, target=target, canonical=canonical)
                )
            graph.calls[caller_id] = resolved
    return graph


def _resolve_class(
    graph: CallGraph,
    summaries: Dict[str, ModuleSummary],
    summary: ModuleSummary,
    chain: str,
) -> Optional[str]:
    """Resolve a dotted class reference to a project class id."""
    if not chain:
        return None
    if "." not in chain:
        local = f"{summary.module}:{chain}"
        if local in graph.classes:
            return local
        for star_target in summary.star_imports:
            candidate = f"{star_target}:{chain}"
            if candidate in graph.classes:
                return candidate
    canonical = _canonicalize(summary, chain)
    module, _, attr = canonical.rpartition(".")
    if module and attr:
        candidate = f"{module}:{attr}"
        if candidate in graph.classes:
            return candidate
    return None


def _resolve_call(
    graph: CallGraph,
    summaries: Dict[str, ModuleSummary],
    summary: ModuleSummary,
    fn: FunctionSummary,
    chain: str,
) -> Tuple[Optional[str], str]:
    """Resolve one call chain → (node id or None, canonical dotted name)."""
    if not chain:
        return None, ""
    module = summary.module
    assert module is not None
    parts = chain.split(".")

    if parts[0] == "self" and fn.parent_class is not None:
        if len(parts) == 2:
            target = graph.resolve_method(f"{module}:{fn.parent_class}", parts[1])
            return target, chain
        return None, chain

    if len(parts) == 1:
        name = parts[0]
        # A nested def of this very function shadows everything else.
        nested_id = f"{module}:{fn.qualname}.<locals>.{name}"
        if nested_id in graph.nodes:
            return nested_id, chain
        local_fn = f"{module}:{name}"
        if local_fn in graph.nodes and not graph.nodes[local_fn].summary.nested:
            node = graph.nodes[local_fn]
            if node.summary.parent_class is None:
                return local_fn, chain
        if local_fn in graph.classes:
            init = graph.resolve_method(local_fn, "__init__")
            return init, chain
        alias_target = summary.aliases.get(name)
        if alias_target is not None:
            resolved = _project_lookup(graph, summaries, alias_target)
            return resolved, alias_target
        for star_target in summary.star_imports:
            star_summary = summaries.get(star_target)
            if star_summary is None:
                continue
            if any(f.name == name for f in star_summary.module_functions()):
                return f"{star_target}:{name}", f"{star_target}.{name}"
            if star_summary.class_named(name) is not None:
                init = graph.resolve_method(f"{star_target}:{name}", "__init__")
                return init, f"{star_target}.{name}"
        return None, name

    canonical = _canonicalize(summary, chain)
    resolved = _project_lookup(graph, summaries, canonical)
    return resolved, canonical


def _project_lookup(
    graph: CallGraph, summaries: Dict[str, ModuleSummary], canonical: str
) -> Optional[str]:
    """Map a canonical dotted name to a project function/class-init node."""
    parts = canonical.split(".")
    # Longest module prefix wins: "repro.engine.treestate.TreeState.from_tree"
    for depth in range(len(parts) - 1, 0, -1):
        module = ".".join(parts[:depth])
        if module not in summaries:
            continue
        rest = parts[depth:]
        if len(rest) == 1:
            candidate = f"{module}:{rest[0]}"
            if candidate in graph.nodes and not graph.nodes[candidate].summary.nested:
                node = graph.nodes[candidate]
                if node.summary.parent_class is None:
                    return candidate
            if candidate in graph.classes:
                return graph.resolve_method(candidate, "__init__")
        elif len(rest) == 2:
            class_id = f"{module}:{rest[0]}"
            if class_id in graph.classes:
                return graph.resolve_method(class_id, rest[1])
        return None
    return None
