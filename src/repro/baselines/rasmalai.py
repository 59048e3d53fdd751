"""RaSMaLai-style randomized switching for lifetime (extra baseline).

The paper's related work cites Imon et al. (INFOCOM 2013), "RaSMaLai: A
Randomized Switching algorithm for Maximizing Lifetime in tree-based
wireless sensor networks": instead of scanning every move like AAML's
deterministic local search, repeatedly pick a *random* overloaded node and
switch one of its children to a *random* eligible lighter parent, which
gives a much lower per-step cost at the price of randomized convergence.

The original targets collection without aggregation (load = subtree size);
this adaptation uses the paper's aggregation load model (Eq. 1: load =
children count), so it is directly comparable to AAML and IRA here.  A
switch is *eligible* when the new parent's post-move lifetime stays above
the current network bottleneck — the same acceptance logic RaSMaLai uses
with its load threshold.

The loop runs on plain lists (parent pointers, sorted children lists,
Eq. 1 lifetimes from :meth:`~repro.network.energy.EnergyModel.lifetime_rounds_unchecked`
and per-build neighbour lists) kept in step with each trial move and its
undo, so an attempt makes no validated per-call lookup.  It makes the
same random draws, trees and counters as the historical loop on
:class:`~repro.engine.treestate.TreeState`, which
:mod:`repro.engine.bench` keeps as ``_reference_rasmalai``.

Included as an extension baseline: the extended benchmarks use it to show
that (a) randomized switching approaches AAML's lifetime far faster per
move scan, and (b) like AAML it remains link-quality oblivious, so IRA
dominates it on reliability just the same.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.local_search import bfs_tree
from repro.core.tree import AggregationTree
from repro.network.model import Network
from repro.utils.rng import SeedLike, as_rng

__all__ = ["RaSMaLaiResult", "build_rasmalai_tree"]

#: Consecutive failed switch attempts before declaring convergence.
DEFAULT_PATIENCE = 200


@dataclass(frozen=True)
class RaSMaLaiResult:
    """Outcome of a randomized-switching run.

    Attributes:
        tree: The final aggregation tree.
        lifetime: Its network lifetime.
        switches: Accepted random switches.
        attempts: Total switch attempts (accepted + rejected).
    """

    tree: AggregationTree
    lifetime: float
    switches: int
    attempts: int


def build_rasmalai_tree(
    network: Network,
    *,
    initial_tree: Optional[AggregationTree] = None,
    max_switches: int = 10_000,
    patience: int = DEFAULT_PATIENCE,
    seed: SeedLike = None,
) -> RaSMaLaiResult:
    """Randomized bottleneck-switching lifetime maximization.

    Each attempt: pick a uniformly random bottleneck node (minimum
    lifetime), a random child of it, and a random eligible new parent
    (neighbour outside the child's subtree whose post-move lifetime exceeds
    the current bottleneck).  Accept if the move strictly raises the
    bottleneck or strictly shrinks the bottleneck set; stop after *patience*
    consecutive rejected attempts.

    Args:
        network: Connected WSN instance (PRRs ignored — like AAML).
        initial_tree: Starting tree; defaults to the BFS tree.
        max_switches: Hard cap on accepted switches.
        patience: Consecutive failures that end the run.
        seed: Randomness for all the random picks.
    """
    if patience <= 0:
        raise ValueError(f"patience must be positive, got {patience}")
    rng = as_rng(seed)
    tree = initial_tree if initial_tree is not None else bfs_tree(network)
    if tree.network is not network:
        raise ValueError("initial_tree must be built over the same network")

    # Plain-list mirrors of the tree, kept in step with every trial move
    # and undo: parent pointers (-1 at the sink), ascending children lists
    # (the random child pick indexes them), each node's Eq. 1 lifetime and
    # its lifetime with one child more.
    n = network.n
    model = network.energy_model
    energy = network.initial_energies.tolist()
    parent = [-1] * n
    for v, p in tree.parents.items():
        parent[v] = p
    kids = [tree.children(v) for v in range(n)]
    life = [model.lifetime_rounds_unchecked(energy[v], len(kids[v])) for v in range(n)]
    plus = [model.lifetime_rounds_unchecked(energy[v], len(kids[v]) + 1) for v in range(n)]
    nbrs = [network.neighbors(v) for v in range(n)]

    def move(child: int, new_parent: int) -> None:
        old = parent[child]
        parent[child] = new_parent
        kids[old].remove(child)
        insort(kids[new_parent], child)
        for v in (old, new_parent):
            k = len(kids[v])
            life[v] = model.lifetime_rounds_unchecked(energy[v], k)
            plus[v] = model.lifetime_rounds_unchecked(energy[v], k + 1)

    def bottleneck() -> Tuple[float, List[int]]:
        low = min(life)
        bound = low * (1 + 1e-12)
        return low, [v for v, lv in enumerate(life) if lv <= bound]

    switches = 0
    attempts = 0
    failures = 0
    low, members = bottleneck()
    # Bottleneck nodes with at least one child.  A rejected trial move is
    # undone, so this changes only when a switch is accepted.
    loaded_candidates = [v for v in members if kids[v]]
    while switches < max_switches and failures < patience:
        attempts += 1
        if not loaded_candidates:
            break  # bottleneck nodes are all leaves; no load to shed
        loaded = loaded_candidates[rng.integers(0, len(loaded_candidates))]
        children = kids[loaded]
        child = children[rng.integers(0, len(children))]
        bound = low * (1 + 1e-12)
        eligible = []
        for p in nbrs[child]:
            if p == loaded or plus[p] <= bound:
                continue
            # Outside the child's subtree: p's ancestors miss the child.
            u = p
            while u >= 0 and u != child:
                u = parent[u]
            if u < 0:
                eligible.append(p)
        if not eligible:
            failures += 1
            continue
        new_parent = eligible[rng.integers(0, len(eligible))]
        move(child, new_parent)
        new_low, new_members = bottleneck()
        if new_low > low * (1 + 1e-12) or (
            new_low >= low * (1 - 1e-12) and len(new_members) < len(members)
        ):
            low, members = new_low, new_members
            loaded_candidates = [v for v in members if kids[v]]
            switches += 1
            failures = 0
        else:
            move(child, loaded)  # undo the trial move
            failures += 1

    final = AggregationTree(
        network, {v: p for v, p in enumerate(parent) if p >= 0}
    )
    return RaSMaLaiResult(
        tree=final, lifetime=final.lifetime(), switches=switches, attempts=attempts
    )
