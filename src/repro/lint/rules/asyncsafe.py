"""REP109 — no read-modify-write of ``self`` attributes across an ``await``.

The serve plane (:mod:`repro.serve`) runs every request on one event
loop.  An async method that reads ``self.<attr>``, suspends at an
``await``, then writes ``self.<attr>`` from the stale read loses any
update another task made in between: last-write-wins silently drops it.

The rule walks each ``async`` method of a class in evaluation order,
recording reads and writes of ``self.<attr>``, awaits, and calls to
same-class ``self.helper()`` methods (which count as writes of every
attribute the helper assigns).  For an assignment the value side,
awaits included, comes before the store, so ``self.x += 1`` (read and
write with no suspension between) is clean while ``self.x += await g()``
and staged read → ``await`` → write sequences are flagged.  Nested defs
and lambdas are other scopes and are not walked.

Whether an ``async def`` blocks the loop is not a lint rule: the test
suite runs every ``asyncio.run`` in debug mode and fails a test whose
loop stalls (``tests/conftest.py``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type, Union

from repro.lint.context import FileContext, dotted_chain

__all__ = ["check_await_races"]

_Def = Union[ast.FunctionDef, ast.AsyncFunctionDef]
#: ``(kind, attr, node)``: kind is ``read``/``write``/``await``/``call``
#: (a ``self.<attr>()`` call); *node* locates a finding.
_Event = Tuple[str, str, ast.AST]
_Yield = Tuple[ast.AST, str]
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _child_stmts(node: ast.AST) -> Iterator[ast.stmt]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        elif isinstance(child, (ast.ExceptHandler, ast.match_case)):
            yield from child.body


def _defs(body: Sequence[ast.stmt], kinds: Tuple[Type[ast.AST], ...]) -> Iterator[ast.AST]:
    """Nodes of *kinds* defined in *body*, through compound statements only."""
    for node in body:
        if isinstance(node, kinds):
            yield node
        elif not isinstance(node, _SCOPES):
            yield from _defs(list(_child_stmts(node)), kinds)


def _self_attr(node: ast.expr) -> Optional[str]:
    """``attr`` when *node* is ``self.<attr>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _Events:
    """Events of one function body in evaluation order."""

    def __init__(self) -> None:
        self.events: List[_Event] = []

    def stmts(self, body: Sequence[ast.stmt]) -> None:
        for node in body:
            self.stmt(node)

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:  # the body is another scope
                self.expr(deco)
        elif isinstance(node, ast.ClassDef):
            self.stmts(node.body)
        elif isinstance(node, ast.Assign):
            self.expr(node.value)
            for target in node.targets:
                self.store(target, node)
        elif isinstance(node, ast.AugAssign):
            # Load target, evaluate value, store target: a real read-await-write.
            attr = _self_attr(node.target)
            if attr is not None:
                self.events.append(("read", attr, node))
            self.expr(node.value)
            self.store(node.target, node)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.expr(node.value)
            self.store(node.target, node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self.expr(node.iter)
            self.store(node.target, node)
            self.stmts(node.body)
            self.stmts(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self.expr(item.context_expr)
                if item.optional_vars is not None:
                    self.store(item.optional_vars, node)
            self.stmts(node.body)
        elif isinstance(node, ast.Match):
            self.expr(node.subject)
            for case in node.cases:
                self.stmts(case.body)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.expr(child)
                elif isinstance(child, ast.stmt):
                    self.stmt(child)
                elif isinstance(child, ast.ExceptHandler):
                    self.stmts(child.body)

    def store(self, target: ast.expr, at: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.store(element, at)
        elif isinstance(target, ast.Starred):
            self.store(target.value, at)
        elif isinstance(target, ast.Subscript):
            self.expr(target.value)
            self.expr(target.slice)
        elif isinstance(target, ast.Attribute):
            attr = _self_attr(target)
            if attr is not None:
                self.events.append(("write", attr, at))
            self.expr(target.value)  # self.a.b = x reads self.a

    def expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Await):
            self.expr(node.value)
            self.events.append(("await", "", node))
        elif isinstance(node, ast.Call):
            self.call(node)
        elif isinstance(node, ast.Lambda):
            return
        elif isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None and isinstance(node.ctx, ast.Load):
                self.events.append(("read", attr, node))
            self.expr(node.value)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.expr(child)
                elif isinstance(child, ast.comprehension):
                    self.expr(child.iter)
                    self.store(child.target, child.target)
                    for cond in child.ifs:
                        self.expr(cond)

    def call(self, node: ast.Call) -> None:
        parts = dotted_chain(node.func).split(".")
        if parts == [""]:
            self.expr(node.func)
        elif parts[0] == "self" and len(parts) >= 3:
            self.events.append(("read", parts[1], node))  # self.a.m() reads self.a
        elif parts[0] == "self" and len(parts) == 2:
            self.events.append(("call", parts[1], node))
        for arg in node.args:
            self.expr(arg)
        for kw in node.keywords:
            self.expr(kw.value)


def _events(fn: _Def) -> List[_Event]:
    walker = _Events()
    walker.stmts(fn.body)
    return walker.events


def check_await_races(ctx: FileContext) -> Iterator[_Yield]:
    """async methods must not write self attributes from reads staled by an await

    Rationale: between a read of ``self.<attr>`` and an ``await``-suspended
    write, any other task on the loop may run the same method and move the
    attribute — the write then clobbers the concurrent update
    (``TreeServer``'s request counters and ``WorkerPool``'s shard settling
    are the shapes this protects).  ``self.x += 1`` with no await between
    the load and the store is atomic on the loop and stays clean.

    Fix pattern: re-read the attribute after the last await before
    writing, fold the update into one suspension-free statement, or guard
    the read-modify-write with an ``asyncio.Lock``.
    """
    classes = [c for c in _defs(ctx.tree.body, (ast.ClassDef,)) if isinstance(c, ast.ClassDef)]
    for cls in classes:
        methods = [
            (fn, _events(fn))
            for fn in _defs(cls.body, (ast.FunctionDef, ast.AsyncFunctionDef))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        if not any(isinstance(fn, ast.AsyncFunctionDef) for fn, _ in methods):
            continue
        writes: Dict[str, List[str]] = {
            fn.name: sorted({attr for kind, attr, _ in events if kind == "write"})
            for fn, events in methods
        }
        for fn, events in methods:
            if isinstance(fn, ast.AsyncFunctionDef):
                yield from _races(fn, events, writes)


def _races(
    fn: ast.AsyncFunctionDef, events: List[_Event], writes: Dict[str, List[str]]
) -> Iterator[_Yield]:
    """Writes of ``self.<attr>`` whose latest read crossed an await."""
    read_at: Dict[str, int] = {}  # attr -> awaits seen at its latest read
    awaits = 0
    for kind, attr, node in events:
        if kind == "await":
            awaits += 1
            continue
        if kind == "read":
            read_at[attr] = awaits
            continue
        # A write, or a self.helper() call writing whatever the helper assigns.
        for name in [attr] if kind == "write" else writes.get(attr, []):
            crossed = awaits - read_at.get(name, awaits)
            if kind == "write" or crossed > 0:
                read_at.pop(name, None)
            if crossed > 0:
                yield (
                    node,
                    f"await-point read-modify-write race in async method {fn.name}(): "
                    f"self.{name} is written from a read that crossed {crossed} await "
                    f"point{'s' if crossed > 1 else ''}; re-read after the await, make "
                    "the update suspension-free, or hold an asyncio.Lock",
                )
