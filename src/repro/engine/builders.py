"""Stock tree-builder registrations: the paper's algorithms plus baselines.

Importing this module populates the registry (:mod:`repro.engine.registry`
does so lazily on first lookup).  Each builder wraps the underlying
``build_*`` function, returns its tree with a meta dict, and documents its
config knobs for ``repro builders``.  A builder takes only the knobs some
caller sets; the library functions keep their other tuning parameters at
their defaults here.

Canonical names::

    ira            IRA (Algorithm 1)           — needs lc
    exact          MILP optimum                — optional lc (None = MST)
    local_search   feasibility-first heuristic — needs lc, no LP
    aaml           lifetime-maximizing ascent
    rasmalai       randomized switching
    mst            Prim minimum-cost tree
    spt            Dijkstra shortest-path tree
    random_tree    uniform random (Wilson)
    delay_bounded  depth-capped cost descent   — needs max_depth
    bfs            breadth-first (hop) tree
    min_energy     Kuo–Lin–Tsai energy SPT     — related work
    clmt           centralized lifetime greedy — related work
    dlmt           decentralized lifetime tree — related work
    convergecast   max-lifetime convergecast   — related work
    portfolio      race members, keep the best — meta-builder
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.aaml import build_aaml_tree
from repro.baselines.convergecast import build_convergecast_tree
from repro.baselines.delay_bounded import build_delay_bounded_tree
from repro.baselines.kuo_energy import build_kuo_energy_tree
from repro.baselines.mst import build_mst_tree
from repro.baselines.random_tree import build_random_tree
from repro.baselines.rasmalai import build_rasmalai_tree
from repro.baselines.spt import build_spt_tree
from repro.baselines.virmani import build_clmt_tree, build_dlmt_tree
from repro.core.exact import solve_mrlc_exact
from repro.core.ira import build_ira_tree
from repro.core.lifetime import LifetimeSpec
from repro.core.local_search import (
    bfs_tree,
    maximize_lifetime,
    polish_under_caps,
)
from repro.engine.registry import tree_builder
from repro.network.model import Network

__all__: list = []


@tree_builder(
    "ira",
    knobs={
        "lc": "required network lifetime LC in aggregation rounds (required)",
    },
)
def _build_ira(network: Network, *, lc: float):
    """IRA (Algorithm 1): max-reliability aggregation tree meeting LC."""
    result = build_ira_tree(network, lc)
    meta = {
        "lc": result.spec.lc,
        "iterations": result.iterations,
        "lp_solves": result.lp_solves,
        "lp_reused": result.lp_reused,
        "cuts_generated": result.cuts_generated,
        "forced_relaxations": len(result.forced_relaxations),
        "lifetime_satisfied": result.lifetime_satisfied,
        "inflation_used": result.inflation_used,
    }
    return result.tree, meta


@tree_builder(
    "exact",
    knobs={
        "lc": "lifetime bound (None solves the unconstrained problem = MST)",
    },
)
def _build_exact(network: Network, *, lc: Optional[float] = None):
    """Exact MILP optimum of MRLC (exponential time; keep n small)."""
    result = solve_mrlc_exact(network, lc)
    meta = {
        "cost": result.cost,
        "milp_solves": result.milp_solves,
        "cuts": len(result.cuts),
    }
    return result.tree, meta


@tree_builder(
    "local_search",
    knobs={
        "lc": "required network lifetime LC in aggregation rounds (required)",
    },
)
def _build_local_search(network: Network, *, lc: float):
    """LP-free MRLC heuristic: lifetime ascent, then cost descent under LC's caps."""
    from repro.core.errors import InfeasibleLifetimeError

    lifted, ascent_moves = maximize_lifetime(bfs_tree(network))
    if not lifted.meets_lifetime(lc):
        raise InfeasibleLifetimeError(
            f"local search cannot reach LC={lc}: best bottleneck lifetime "
            f"{lifted.lifetime():.6g}"
        )
    caps = LifetimeSpec.uninflated(network, lc).children_caps(network)
    polished = polish_under_caps(lifted, caps)
    meta = {"ascent_moves": ascent_moves, "lifetime": polished.lifetime()}
    return polished, meta


@tree_builder("aaml")
def _build_aaml(network: Network):
    """AAML baseline: lexicographic bottleneck-lifetime local search."""
    result = build_aaml_tree(network)
    meta = {"lifetime": result.lifetime, "iterations": result.iterations}
    return result.tree, meta


@tree_builder(
    "rasmalai",
    knobs={
        "seed": "randomness for node/child/parent picks",
    },
)
def _build_rasmalai(network: Network, *, seed=None):
    """RaSMaLai baseline: randomized bottleneck switching for lifetime."""
    result = build_rasmalai_tree(network, seed=seed)
    meta = {
        "lifetime": result.lifetime,
        "switches": result.switches,
        "attempts": result.attempts,
    }
    return result.tree, meta


@tree_builder("mst")
def _build_mst(network: Network):
    """Prim minimum-cost spanning tree — the unconstrained reliability optimum."""
    return build_mst_tree(network)


@tree_builder("spt")
def _build_spt(network: Network):
    """Dijkstra shortest-path tree from the sink."""
    return build_spt_tree(network)


@tree_builder(
    "random_tree",
    knobs={
        "seed": "randomness for the uniform spanning-tree draw",
    },
)
def _build_random(network: Network, *, seed=None):
    """Uniform random spanning tree (Wilson's algorithm)."""
    return build_random_tree(network, seed=seed)


@tree_builder(
    "delay_bounded",
    knobs={
        "max_depth": "hop/latency bound every node must stay within (required)",
    },
)
def _build_delay_bounded(network: Network, *, max_depth: int):
    """Depth-capped cheapest tree (delay-bounded collection baseline)."""
    tree = build_delay_bounded_tree(network, max_depth)
    return tree, {"depth": max(tree.depth(v) for v in range(tree.n))}


@tree_builder("bfs")
def _build_bfs(network: Network):
    """Breadth-first (shortest-hop) spanning tree — the canonical start point."""
    return bfs_tree(network)


@tree_builder("min_energy")
def _build_min_energy(network: Network):
    """Minimum-energy-path tree (Kuo–Lin–Tsai approximation, arXiv:1402.6457)."""
    result = build_kuo_energy_tree(network)
    meta = {
        "tree_energy_j": result.tree_energy_j,
        "max_path_energy_j": result.max_path_energy_j,
    }
    return result.tree, meta


@tree_builder("clmt")
def _build_clmt(network: Network):
    """Centralized lifetime-maximizing tree (Virmani & Jain, arXiv:1301.4988)."""
    result = build_clmt_tree(network)
    meta = {"lifetime": result.lifetime, "attachments": result.attachments}
    return result.tree, meta


@tree_builder("dlmt")
def _build_dlmt(network: Network):
    """Decentralized lifetime-maximizing tree (Virmani & Jain, arXiv:1301.4551)."""
    result = build_dlmt_tree(network)
    meta = {"lifetime": result.lifetime, "attachments": result.attachments}
    return result.tree, meta


@tree_builder("convergecast")
def _build_convergecast(network: Network):
    """Max-lifetime convergecast tree (John et al., arXiv:1910.09793)."""
    result = build_convergecast_tree(network)
    meta = {"convergecast_lifetime": result.lifetime, "moves": result.moves}
    return result.tree, meta


@tree_builder(
    "portfolio",
    knobs={
        "lc": "lifetime bound members must meet (optional)",
        "members": "registry builder names to race (default: heuristic set)",
        "budget_s": "wall-clock budget in seconds (optional)",
        "seed": "portfolio seed; member seeds derive from it by name",
        "n_jobs": "worker processes for the parallel race",
    },
)
def _build_portfolio(
    network: Network,
    *,
    lc: Optional[float] = None,
    members: Optional[Sequence[str]] = None,
    budget_s: Optional[float] = None,
    seed: Optional[int] = None,
    n_jobs: Optional[int] = None,
):
    """Race a member set under a wall-clock budget; keep the best LC-feasible tree."""
    from repro.engine.portfolio import build_portfolio_tree

    return build_portfolio_tree(
        network, lc=lc, members=members, budget_s=budget_s, seed=seed, n_jobs=n_jobs
    )
