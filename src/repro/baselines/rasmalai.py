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

Included as an extension baseline: the extended benchmarks use it to show
that (a) randomized switching approaches AAML's lifetime far faster per
move scan, and (b) like AAML it remains link-quality oblivious, so IRA
dominates it on reliability just the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.local_search import bfs_tree
from repro.core.tree import AggregationTree
from repro.engine.treestate import TreeState
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
    state = TreeState.from_tree(tree)

    switches = 0
    attempts = 0
    failures = 0
    low, members = state.bottleneck_members(1e-12)
    while switches < max_switches and failures < patience:
        attempts += 1
        # Random bottleneck node with at least one child.
        loaded_candidates = [v for v in members if state.n_children(v) > 0]
        if not loaded_candidates:
            break  # bottleneck nodes are all leaves; no load to shed
        loaded = int(loaded_candidates[rng.integers(0, len(loaded_candidates))])
        children = state.children(loaded)
        child = int(children[rng.integers(0, len(children))])
        eligible = [
            p
            for p in network.neighbors(child)
            if p != loaded
            and not state.in_subtree(p, child)
            and network.energy_model.lifetime_rounds(
                network.initial_energy(p), state.n_children(p) + 1
            )
            > low * (1 + 1e-12)
        ]
        if not eligible:
            failures += 1
            continue
        new_parent = int(eligible[rng.integers(0, len(eligible))])
        state.reparent(child, new_parent, check=False)
        new_low, new_members = state.bottleneck_members(1e-12)
        if new_low > low * (1 + 1e-12) or (
            new_low >= low * (1 - 1e-12) and len(new_members) < len(members)
        ):
            low, members = new_low, new_members
            switches += 1
            failures = 0
        else:
            state.reparent(child, loaded, check=False)  # undo the trial move
            failures += 1

    final = state.freeze()
    return RaSMaLaiResult(
        tree=final, lifetime=final.lifetime(), switches=switches, attempts=attempts
    )
