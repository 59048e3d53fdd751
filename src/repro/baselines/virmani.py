"""Lifetime-maximizing trees of Virmani & Jain (arXiv:1301.4988, 1301.4551).

Two related-work competitors, both energy-aware and link-quality agnostic
(like AAML, they look only at residual energies):

* **CLMT** — the *centralized lifetime maximizing tree*: a sink-rooted
  greedy growth.  At every step the algorithm attaches, among all frontier
  edges ``(p in tree, v outside)``, the one that maximizes the resulting
  bottleneck lifetime — taking a child costs the parent ``Rx`` per round
  (Eq. 1), so the greedy always spends the cheapest increment of the
  scarcest budget.  This is the global-knowledge version.

* **DLMT** — the *decentralized* variant: nodes join in BFS waves (hop
  distance from the sink, the information a flooded beacon gives every
  node), and each joining node picks, among its already-joined neighbours
  in the previous wave, the parent whose post-attachment lifetime is
  largest.  Each choice uses only neighbourhood state, mirroring the
  distributed protocol of the paper; the result is generally worse than
  CLMT's because nodes cannot see the global bottleneck.

CLMT keeps its frontier in a heap (see :func:`build_clmt_tree`), with the
same trees as the historical rescan of every frontier link per step,
which :mod:`repro.engine.bench` keeps as ``_reference_clmt``.

Both constructions are deterministic: ties break toward the
higher-lifetime parent, then the smaller node ids, so each tree is a pure
function of the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.core.errors import DisconnectedNetworkError
from repro.core.tree import AggregationTree
from repro.network.model import Network

__all__ = ["VirmaniResult", "build_clmt_tree", "build_dlmt_tree"]


@dataclass(frozen=True)
class VirmaniResult:
    """Outcome of a CLMT/DLMT construction.

    Attributes:
        tree: The constructed aggregation tree.
        lifetime: Its network lifetime ``L(T)`` in rounds (Eq. 1).
        attachments: Nodes attached (always ``n - 1``; recorded for parity
            with the other baseline result objects).
    """

    tree: AggregationTree
    lifetime: float
    attachments: int


def _post_attach_lifetime(network: Network, parent: int, n_children: int) -> float:
    """Parent's Eq. 1 lifetime after taking one more child."""
    return network.energy_model.lifetime_rounds(
        network.initial_energy(parent), n_children + 1
    )


def build_clmt_tree(network: Network) -> VirmaniResult:
    """Centralized lifetime-maximizing tree (greedy bottleneck growth).

    Every step attaches the frontier link ``(p, v)`` of largest score
    ``(min(p_after, v_leaf), p_after, -p, -v)``: the bottleneck the
    attachment itself creates (the parent after gaining the child vs the
    child as a fresh leaf), then the tie-breaks of the module docstring.
    The rest of the tree is unchanged by every candidate, so comparing
    these minima is the same as comparing the resulting global minima.

    A node's leaf lifetime never changes, and a parent's ``p_after``
    changes only when it gains a child, and then never rises.  So the
    frontier lives in a heap keyed on each link's score when it was
    pushed, an upper bound of its score now: a popped link whose parent
    has since gained a child is pushed back with its new score, and the
    first popped link that is current is the step's best, exactly as a
    rescan of every frontier link would find it.

    Raises:
        DisconnectedNetworkError: Some node cannot reach the sink.
    """
    n = network.n
    model = network.energy_model
    energy = network.initial_energies.tolist()
    leaf = [model.lifetime_rounds_unchecked(e, 0) for e in energy]
    after = [model.lifetime_rounds_unchecked(e, 1) for e in energy]
    children = [0] * n
    in_tree = [False] * n
    parents: Dict[int, int] = {}
    # Min-heap of negated scores: (-bottleneck, -p_after, p, v).
    frontier: List[Tuple[float, float, int, int]] = []

    def grow(p: int) -> None:
        pa = after[p]
        for v in network.neighbors(p):
            if not in_tree[v]:
                heappush(frontier, (-min(pa, leaf[v]), -pa, p, v))

    in_tree[network.sink] = True
    grow(network.sink)
    while len(parents) < n - 1:
        if not frontier:
            raise DisconnectedNetworkError(
                f"only {len(parents) + 1} of {n} nodes reach the sink"
            )
        _, neg_pa, p, v = heappop(frontier)
        if in_tree[v]:
            continue
        pa = after[p]
        if -neg_pa != pa:  # p gained a child since: re-file at its new score
            heappush(frontier, (-min(pa, leaf[v]), -pa, p, v))
            continue
        parents[v] = p
        children[p] += 1
        after[p] = model.lifetime_rounds_unchecked(energy[p], children[p] + 1)
        in_tree[v] = True
        grow(v)

    tree = AggregationTree(network, parents)
    return VirmaniResult(tree=tree, lifetime=tree.lifetime(), attachments=n - 1)


def build_dlmt_tree(network: Network) -> VirmaniResult:
    """Decentralized lifetime tree: BFS waves, locally best parent.

    Raises:
        DisconnectedNetworkError: Some node cannot reach the sink.
    """
    n = network.n
    level = [-1] * n
    level[network.sink] = 0
    frontier = [network.sink]
    waves: List[List[int]] = []
    while frontier:
        nxt: List[int] = []
        for u in frontier:
            for v in network.neighbors(u):
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(v)
        if nxt:
            waves.append(sorted(nxt))
        frontier = nxt

    unreached = [v for v in range(n) if level[v] < 0]
    if unreached:
        raise DisconnectedNetworkError(
            f"{len(unreached)} node(s) cannot reach the sink "
            f"(e.g. node {unreached[0]})"
        )

    children = [0] * n
    parents: Dict[int, int] = {}
    for wave in waves:
        # Within a wave nodes decide in id order — the deterministic stand-in
        # for the staggered joins a real deployment's timers would produce.
        for v in wave:
            best: Optional[Tuple[float, int]] = None
            for u in network.neighbors(v):
                if level[u] != level[v] - 1:
                    continue
                u_after = _post_attach_lifetime(network, u, children[u])
                if best is None or (u_after, -u) > (best[0], -best[1]):
                    best = (u_after, u)
            assert best is not None  # every wave node saw a previous-wave nbr
            parents[v] = best[1]
            children[best[1]] += 1

    tree = AggregationTree(network, parents)
    return VirmaniResult(tree=tree, lifetime=tree.lifetime(), attachments=n - 1)
