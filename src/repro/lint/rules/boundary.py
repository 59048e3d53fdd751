"""REP110 — RNG discipline across process/executor boundaries.

Seeded determinism (the reproduction's core guarantee) survives a process
boundary only through explicit seed handoff: parents call
:func:`repro.utils.rng.spawn_rngs` (or ship integer seeds) and each worker
constructs its own ``Generator``.  Shipping a *live* generator instead
either fails to pickle (``ProcessPoolExecutor``) or — worse — pickles a
snapshot, silently forking the stream so parent and worker draw identical
values and replays stop matching.

A boundary here is any call that hands work to an executor or pool:
``loop.run_in_executor(...)``, ``executor.submit/map(...)``,
``pool.submit/map(...)``, or the project's own
``parallel_map``/``parallel_build`` front ends.  Three argument shapes
are flagged:

* an rng-valued expression (``rng``, ``self.rng``, ``as_rng(...)``,
  ``default_rng(...)``) passed straight through — ``spawn_rngs(...)``
  results are the sanctioned handoff and stay clean;
* a ``lambda`` whose body closes over an rng name;
* a named function whose summary records an rng capture
  (:attr:`~repro.lint.graph.FunctionSummary.rng_capture`: it closes over
  a live rng it neither binds nor receives as a parameter).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple, Union

from repro.lint.context import FileContext, Project
from repro.lint.findings import Loc
from repro.lint.graph import ArgInfo, CallGraph, CallSite, ModuleSummary
from repro.lint.registry import lint_rule

__all__ = ["check_rng_boundary"]

_Yield = Tuple[Union[ast.AST, Loc], str]

#: Call-chain tails that always mark an executor boundary.
_BOUNDARY_TAILS = frozenset({"run_in_executor"})

#: Tails that mark a boundary when the receiver chain names an executor/pool.
_SUBMIT_TAILS = frozenset({"submit", "map"})

#: Project fan-out front ends (canonical dotted suffixes).
_PROJECT_BOUNDARIES = ("parallel_map", "parallel_build")


def _is_boundary(site: CallSite, canonical: str) -> bool:
    chain = site.chain
    if not chain:
        return False
    tail = chain.rpartition(".")[2]
    if tail in _BOUNDARY_TAILS:
        return True
    name = canonical or chain
    if any(
        name == b or name.endswith("." + b) for b in _PROJECT_BOUNDARIES
    ):
        return True
    if tail in _SUBMIT_TAILS and "." in chain:
        receiver = chain.rpartition(".")[0].lower()
        return "executor" in receiver or "pool" in receiver
    return False


@lint_rule("REP110")
def check_rng_boundary(
    ctx: FileContext, project: Project
) -> Iterator[_Yield]:
    """work shipped across a process/executor boundary must not carry a live Generator

    Rationale: replayability requires every random stream to be derivable
    from the run's seed.  A live ``numpy.random.Generator`` shipped to a
    process worker either fails to pickle or pickles a *snapshot* — the
    parent and the worker then draw the same values and the run is no
    longer a function of its seed.

    Fix pattern: derive independent child streams up front with
    ``spawn_rngs(rng, n)`` (or pass integer seeds) and let each task
    construct its own generator; never close a shipped function or lambda
    over the parent's ``rng``.
    """
    summary = project.summary(ctx)
    if summary.module is None:
        return
    graph = project.call_graph()
    for fn in summary.functions:
        node_id = f"{summary.module}:{fn.qualname}"
        for rc in graph.calls.get(node_id, ()):
            if not _is_boundary(rc.site, rc.canonical):
                continue
            boundary = rc.canonical or rc.site.chain
            for arg in rc.site.args:
                message = _classify_arg(
                    arg, summary.module, graph, summary, fn.qualname
                )
                if message is not None:
                    yield (
                        Loc(rc.site.lineno, rc.site.col),
                        f"{message} crosses the {boundary}() boundary; derive "
                        "per-task streams with spawn_rngs(...) or pass seeds "
                        "and construct the Generator worker-side",
                    )


def _classify_arg(
    arg: ArgInfo,
    module: str,
    graph: CallGraph,
    summary: ModuleSummary,
    caller_qualname: str,
) -> Optional[str]:
    if arg.rng:
        return f"live RNG state ({arg.text})"
    if arg.lambda_rng:
        return f"a lambda closing over a live rng ({arg.text})"
    if arg.name is not None:
        # A named function argument: resolve like a bare call would —
        # the caller's own nested defs shadow module-level names.
        target = f"{module}:{caller_qualname}.<locals>.{arg.name}"
        if target not in graph.nodes:
            target = f"{module}:{arg.name}"
        if target not in graph.nodes:
            alias = summary.aliases.get(arg.name)
            if alias is not None:
                mod, _, attr = alias.rpartition(".")
                target = f"{mod}:{attr}"
        if target in graph.nodes and graph.nodes[target].summary.rng_capture:
            return f"function {arg.name}() closing over a live rng"
    return None
