"""Fixpoint effect inference over the lint call graph.

Each function node gets a set of *effects* — facts about what running it
may do — seeded from its own body and propagated along call edges with a
worklist until nothing changes.  One effect is tracked:

``blocks``
    May block the calling thread: ``time.sleep``, socket/DNS calls,
    ``subprocess``, ``urllib``, file IO.  Deliberately **not** propagated
    from ``async def`` callees — awaiting a coroutine suspends instead of
    blocking, and the coroutine's own blocking calls are its own REP108
    finding.

The same worklist computes, per function, which *parameters* it mutates
attributes on (directly or by passing them onward), which is what REP112
needs to follow a frozen tree through aliases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.graph import ArgInfo, CallGraph, CallSite, FunctionSummary, ResolvedCall

__all__ = [
    "BLOCKS",
    "EffectAnalysis",
    "analyze_effects",
    "arg_param_pairs",
    "is_blocking_chain",
]

BLOCKS = "blocks"

#: Canonical dotted names that block the calling thread outright.
_BLOCKING_EXACT = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.waitpid",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "urllib.request.urlopen",
        "open",
        "io.open",
    }
)

#: Canonical prefixes that block (any call into these modules).
_BLOCKING_PREFIXES = ("subprocess.",)

#: Method tails that block regardless of receiver (pathlib-style file IO,
#: socket method calls on a connected socket).
_BLOCKING_TAILS = frozenset(
    {
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "recv",
        "sendall",
        "accept",
        "connect",
    }
)

#: Longest rendered witness chain (in hops) for findings.
_WITNESS_DEPTH = 6


def is_blocking_chain(chain: str, canonical: str) -> bool:
    """Whether a call chain / canonical name is a known blocking primitive."""
    for name in (canonical, chain):
        if not name:
            continue
        if name in _BLOCKING_EXACT:
            return True
        if any(name.startswith(prefix) for prefix in _BLOCKING_PREFIXES):
            return True
    tail = (canonical or chain).rpartition(".")[2]
    return tail in _BLOCKING_TAILS and "." in (canonical or chain)


def _direct_effects(resolved: List[ResolvedCall]) -> Set[str]:
    """Effects evident from one function's own body."""
    for rc in resolved:
        if rc.site.chain and is_blocking_chain(rc.site.chain, rc.canonical):
            return {BLOCKS}
    return set()


@dataclass
class EffectAnalysis:
    """Result of the fixpoint: per-node effect sets plus provenance."""

    graph: CallGraph
    effects: Dict[str, Set[str]] = field(default_factory=dict)
    #: (node id, effect) → the callee edge that introduced it (None = own body).
    provenance: Dict[Tuple[str, str], Optional[str]] = field(default_factory=dict)
    #: node id → parameter names it mutates attributes on (transitively).
    mutated_params: Dict[str, Set[str]] = field(default_factory=dict)
    iterations: int = 0

    def has_effect(self, node_id: str, effect: str) -> bool:
        return effect in self.effects.get(node_id, ())

    def witness(self, node_id: str, effect: str) -> str:
        """A ``f() → g() → time.sleep``-style chain explaining an effect."""
        hops: List[str] = []
        current: Optional[str] = node_id
        seen: Set[str] = set()
        while current is not None and current not in seen and len(hops) < _WITNESS_DEPTH:
            seen.add(current)
            hops.append(_short(current) + "()")
            current = self.provenance.get((current, effect))
        # Terminate the chain at the blocking primitive when we can name it.
        origin = _last_id(node_id, self.provenance, effect)
        for rc in self.graph.calls.get(origin, []):
            if is_blocking_chain(rc.site.chain, rc.canonical):
                hops.append(rc.canonical or rc.site.chain)
                break
        return " → ".join(hops)

    def params_mutated_by(self, node_id: str) -> Set[str]:
        return self.mutated_params.get(node_id, set())


def _short(node_id: str) -> str:
    return node_id.split(":", 1)[1]


def _last_id(
    node_id: str, provenance: Dict[Tuple[str, str], Optional[str]], effect: str
) -> str:
    current = node_id
    seen: Set[str] = set()
    while current not in seen:
        seen.add(current)
        nxt = provenance.get((current, effect))
        if nxt is None:
            return current
        current = nxt
    return current


def arg_param_pairs(
    site: CallSite, callee: FunctionSummary
) -> List[Tuple[ArgInfo, Optional[str]]]:
    """Map each call-site argument to the callee parameter it binds."""
    pairs: List[Tuple[ArgInfo, Optional[str]]] = []
    pos_params = list(callee.pos_params)
    if callee.parent_class is not None and pos_params and pos_params[0] == "self":
        pos_params = pos_params[1:]
    pos_index = 0
    for arg in site.args:
        if arg.keyword is not None:
            param = (
                arg.keyword
                if arg.keyword in callee.pos_params or arg.keyword in callee.kwonly_params
                else (arg.keyword if callee.has_kwarg else None)
            )
            pairs.append((arg, param))
        else:
            param = pos_params[pos_index] if pos_index < len(pos_params) else None
            pairs.append((arg, param))
            pos_index += 1
    return pairs


def analyze_effects(graph: CallGraph) -> EffectAnalysis:
    """Run the worklist fixpoint over *graph* and return the analysis."""
    analysis = EffectAnalysis(graph=graph)
    effects = analysis.effects
    provenance = analysis.provenance
    mutated = analysis.mutated_params

    for node_id, node in graph.nodes.items():
        resolved = graph.calls.get(node_id, [])
        direct = _direct_effects(resolved)
        effects[node_id] = set(direct)
        for effect in direct:
            provenance[(node_id, effect)] = None
        mutated[node_id] = set(node.summary.param_attr_writes)

    callers_of = graph.callers_of()
    worklist: List[str] = list(graph.nodes)
    in_worklist: Set[str] = set(worklist)

    while worklist:
        analysis.iterations += 1
        callee_id = worklist.pop()
        in_worklist.discard(callee_id)
        callee_node = graph.nodes[callee_id]
        callee_fx = effects[callee_id]
        callee_mut = mutated[callee_id]

        for caller_id in callers_of.get(callee_id, ()):
            caller_node = graph.nodes[caller_id]
            changed = False
            for effect in callee_fx:
                if effect in effects[caller_id]:
                    continue
                if effect == BLOCKS and callee_node.summary.is_async:
                    continue  # awaiting suspends; it does not block
                effects[caller_id].add(effect)
                provenance[(caller_id, effect)] = callee_id
                changed = True
            # Parameter-mutation flow: an argument bound to a mutated
            # callee parameter marks the caller's own parameter (if the
            # argument is a bare name that is one).
            if callee_mut:
                caller_params = set(caller_node.summary.params)
                for rc in graph.calls.get(caller_id, []):
                    if rc.target != callee_id:
                        continue
                    for arg, param in arg_param_pairs(rc.site, callee_node.summary):
                        if (
                            param in callee_mut
                            and arg.name is not None
                            and arg.name in caller_params
                            and arg.name not in mutated[caller_id]
                        ):
                            mutated[caller_id].add(arg.name)
                            changed = True
            if changed and caller_id not in in_worklist:
                worklist.append(caller_id)
                in_worklist.add(caller_id)
    return analysis
