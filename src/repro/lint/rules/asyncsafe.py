"""REP108/REP109 — asyncio safety: blocking reachability and await races.

The serve plane (:mod:`repro.serve`) runs every request on one event
loop; :mod:`repro.obs.top` polls it.  Two failure modes are invisible to
per-file linting because they live in the *call structure*:

* REP108 — an ``async def`` that (transitively, through ordinary sync
  helpers) reaches a blocking primitive: ``time.sleep``, socket/DNS
  calls, ``subprocess``, file IO.  One such call stalls every in-flight
  request.  Awaited calls are exempt (awaiting suspends), and the
  ``blocks`` effect deliberately does not propagate out of async callees
  — their own blocking calls are their own finding.  Shipping a blocking
  function *as an argument* to ``run_in_executor`` is the sanctioned
  pattern and creates no call edge, so it never trips the rule.
* REP109 — an await-point read-modify-write race: an async method reads
  ``self.<attr>``, suspends at an ``await``, then writes ``self.<attr>``
  from the stale read.  Between the read and the write any other task may
  run and move the attribute; last-write-wins then silently drops the
  concurrent update.  The scan works on the summary's evaluation-ordered
  event stream, so ``self.x += 1`` (read and write with no suspension
  between) is clean while ``self.x += await g()`` and staged
  read → ``await`` → write sequences are flagged.  Calls to same-class
  ``self.helper()`` methods that write the attribute count as writes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.lint.context import FileContext, Project
from repro.lint.effects import BLOCKS, is_blocking_chain
from repro.lint.findings import Loc
from repro.lint.graph import FunctionSummary
from repro.lint.registry import lint_rule

__all__ = ["check_async_blocking", "check_await_races"]

_Yield = Tuple[Union[ast.AST, Loc], str]


@lint_rule("REP108")
def check_async_blocking(
    ctx: FileContext, project: Project
) -> Iterator[_Yield]:
    """async functions must not reach blocking calls (time.sleep/socket/subprocess/file IO)

    Rationale: the serve plane multiplexes every request onto one event
    loop.  A blocking primitive anywhere in an ``async def``'s sync call
    chain — even three helpers deep — freezes all of them at once, and
    the per-file rules cannot see through the helpers.

    Fix pattern: ship the blocking work to an executor
    (``await loop.run_in_executor(pool, blocking_fn, ...)``) or use the
    async equivalent (``await asyncio.sleep(...)``); passing the blocking
    function as an executor argument is exactly the sanctioned shape and
    is not flagged.
    """
    summary = project.summary(ctx)
    if summary.module is None:
        return
    graph = project.call_graph()
    effects = project.effect_analysis()
    for fn in summary.functions:
        if not fn.is_async:
            continue
        node_id = f"{summary.module}:{fn.qualname}"
        for rc in graph.calls.get(node_id, ()):
            if rc.site.awaited:
                continue
            loc = Loc(rc.site.lineno, rc.site.col)
            if is_blocking_chain(rc.site.chain, rc.canonical):
                name = rc.canonical or rc.site.chain
                yield (
                    loc,
                    f"blocking call {name}() inside async function "
                    f"{fn.name}(); it stalls the event loop — use the async "
                    "equivalent or run_in_executor",
                )
                continue
            if rc.target is None:
                continue
            callee = graph.nodes[rc.target].summary
            if callee.is_async:
                continue
            if effects.has_effect(rc.target, BLOCKS):
                witness = effects.witness(rc.target, BLOCKS)
                yield (
                    loc,
                    f"async function {fn.name}() reaches a blocking call "
                    f"through {witness}; move the blocking work behind "
                    "run_in_executor or an async equivalent",
                )


def _self_method_writes(
    summary_functions: Tuple[FunctionSummary, ...], class_name: str
) -> Dict[str, Tuple[str, ...]]:
    """Method name → self attributes it writes, for one class."""
    return {
        fn.name: fn.self_attr_writes
        for fn in summary_functions
        if fn.parent_class == class_name and not fn.nested
    }


@lint_rule("REP109")
def check_await_races(
    ctx: FileContext, project: Project
) -> Iterator[_Yield]:
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
    summary = project.summary(ctx)
    for cls_sum in summary.classes:
        if not cls_sum.has_async_method:
            continue
        method_writes = _self_method_writes(summary.functions, cls_sum.name)
        for fn in summary.methods_of(cls_sum.name):
            if not fn.is_async:
                continue
            # last_read[attr] = (event index of latest read, awaits seen so far)
            last_read: Dict[str, Tuple[int, int]] = {}
            awaits_seen = 0
            for idx, event in enumerate(fn.events):
                if event.kind == "await":
                    awaits_seen += 1
                elif event.kind == "read":
                    last_read[event.detail] = (idx, awaits_seen)
                elif event.kind == "call":
                    # self.helper() that writes attrs acts as a write point.
                    chain = event.detail
                    if chain.startswith("self.") and chain.count(".") == 1:
                        helper = chain.split(".", 1)[1]
                        for attr in method_writes.get(helper, ()):
                            stale = _stale_read(last_read, attr, awaits_seen)
                            if stale is not None:
                                yield _race_finding(
                                    fn, attr, stale, event.lineno, event.col
                                )
                                last_read.pop(attr, None)
                elif event.kind == "write":
                    stale = _stale_read(last_read, event.detail, awaits_seen)
                    if stale is not None:
                        yield _race_finding(
                            fn, event.detail, stale, event.lineno, event.col
                        )
                    last_read.pop(event.detail, None)


def _stale_read(
    last_read: Dict[str, Tuple[int, int]], attr: str, awaits_seen: int
) -> Optional[int]:
    """Awaits between the latest read of *attr* and now, if any read exists."""
    entry = last_read.get(attr)
    if entry is None:
        return None
    _, awaits_at_read = entry
    crossed = awaits_seen - awaits_at_read
    return crossed if crossed > 0 else None


def _race_finding(
    fn: FunctionSummary, attr: str, crossed: int, lineno: int, col: int
) -> _Yield:
    plural = "s" if crossed > 1 else ""
    return (
        Loc(lineno, col),
        f"await-point read-modify-write race in async method {fn.name}(): "
        f"self.{attr} is written from a read that crossed {crossed} await "
        f"point{plural}; re-read after the await, make the update "
        "suspension-free, or hold an asyncio.Lock",
    )
