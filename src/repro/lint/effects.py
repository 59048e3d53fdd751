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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.graph import CallGraph, ResolvedCall

__all__ = [
    "BLOCKS",
    "EffectAnalysis",
    "analyze_effects",
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


def analyze_effects(graph: CallGraph) -> EffectAnalysis:
    """Run the worklist fixpoint over *graph* and return the analysis."""
    analysis = EffectAnalysis(graph=graph)
    effects = analysis.effects
    provenance = analysis.provenance

    for node_id in graph.nodes:
        direct = _direct_effects(graph.calls.get(node_id, []))
        effects[node_id] = set(direct)
        for effect in direct:
            provenance[(node_id, effect)] = None

    callers_of = graph.callers_of()
    worklist: List[str] = list(graph.nodes)
    in_worklist: Set[str] = set(worklist)

    while worklist:
        analysis.iterations += 1
        callee_id = worklist.pop()
        in_worklist.discard(callee_id)
        callee_node = graph.nodes[callee_id]
        callee_fx = effects[callee_id]

        for caller_id in callers_of.get(callee_id, ()):
            changed = False
            for effect in callee_fx:
                if effect in effects[caller_id]:
                    continue
                if effect == BLOCKS and callee_node.summary.is_async:
                    continue  # awaiting suspends; it does not block
                effects[caller_id].add(effect)
                provenance[(caller_id, effect)] = callee_id
                changed = True
            if changed and caller_id not in in_worklist:
                worklist.append(caller_id)
                in_worklist.add(caller_id)
    return analysis
