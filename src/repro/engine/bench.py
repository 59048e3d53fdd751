"""Core-compute benchmark: the array-native paths vs the historical loops.

Four measurements, each over a workload the acceptance bar names:

* **Round simulation** — ``AggregationSimulator.estimate_reliability`` (the
  batched Bernoulli-matrix path) against a faithful re-implementation of
  the historical per-edge Python loop, on an n≥5000 tree.  Both consume the
  same RNG stream and must produce the same estimate; the speedup is the
  vectorization win alone.
* **Local search** — :func:`~repro.core.local_search.reduce_cost_under_caps`
  (the greedy cost descent on :meth:`TreeState.best_cost_reparent
  <repro.engine.treestate.TreeState.best_cost_reparent>`'s bulk move scan)
  against the historical scalar nested scan, both from the BFS tree of an
  n≥2000 grid.  The trees must match exactly; the speedup is the bulk
  scan's win alone.
* **Lifetime ascent** — :func:`~repro.core.local_search.maximize_lifetime`
  (AAML's engine, on :meth:`TreeState.ascend_lifetime
  <repro.engine.treestate.TreeState.ascend_lifetime>`, which scores the
  moves of one loaded node at a time and keeps its scan order across
  moves) against the historical scalar scan, both from the BFS tree of
  ``random_graph(300, 0.07, seed=1)``.  Trees and move counts must match.
* **Serve size** — :func:`~repro.baselines.rasmalai.build_rasmalai_tree`
  and :func:`~repro.baselines.virmani.build_clmt_tree` (plain-list loops,
  no validated per-call API) against their historical loops
  (``_reference_rasmalai``, ``_reference_clmt``), per build over 30
  G(30, 8/30) graphs, the size of a served miss.  Trees and counters must
  match.

``repro bench core`` runs all four (``--ci``: smaller grids) and can
append the report to a ``BENCH_core.json`` trajectory, which ``repro obs
bench-diff`` then gates on the five speedups (:data:`CORE_BENCH`) — the
cross-PR regression sentinel for the compute core.  See
``docs/performance.md``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.baselines.rasmalai import (
    DEFAULT_PATIENCE,
    RaSMaLaiResult,
    build_rasmalai_tree,
)
from repro.baselines.virmani import VirmaniResult, build_clmt_tree
from repro.core.errors import DisconnectedNetworkError
from repro.core.local_search import (
    COST_EPS,
    bfs_tree,
    maximize_lifetime,
    reduce_cost_under_caps,
)
from repro.core.tree import AggregationTree
from repro.engine.registry import build_tree
from repro.engine.treestate import NO_GAIN, TreeState, lifetime_delta_better
from repro.network.model import Network
from repro.network.topology import grid_graph, random_graph
from repro.obs.benchdiff import BenchRecord, MetricSpec
from repro.simulation.rounds import AggregationSimulator
from repro.utils.rng import SeedLike, as_rng

__all__ = [
    "CORE_BENCH",
    "CoreBenchReport",
    "run_core_bench",
]

#: Default workload sizes — the smallest the acceptance bar admits
#: (round simulation at n ≥ 5000, local search at n ≥ 2000).
ROUND_SIM_GRID = 71  # 71 × 71 = 5041 nodes
ROUND_SIM_ROUNDS = 200
SEARCH_GRID = 45  # 45 × 45 = 2025 nodes
#: Grid spacing for the search workload: far enough apart that shadowing
#: spreads link PRRs over orders of magnitude, so the BFS seed is far from
#: cost-optimal and the descent actually scans.
SEARCH_SPACING_M = 28.0
SEARCH_MAX_MOVES = 100
#: Children cap of every node in the search workload: tight enough that the
#: cap filter rejects candidates.
SEARCH_CAP = 2
#: Lifetime-ascent workload: ``random_graph(300, 0.07, seed=1)``, the
#: n=300 IRA input of the performance notes.
ASCENT_NODES = 300
ASCENT_LINK_P = 0.07
ASCENT_SEED = 1
#: The ascent takes tens of milliseconds, so each side keeps its best of
#: this many runs.
ASCENT_REPEATS = 3
#: Serve-size row: RaSMaLai and CLMT on ``random_graph(30, 8/30, seed=i)``
#: for ``i < SERVE_GRAPHS``, the size of the served misses.
SERVE_NODES = 30
SERVE_GRAPHS = 30


def _reference_estimate(tree, rng, n_rounds: int) -> float:
    """The historical per-edge scalar loop, kept verbatim as the baseline.

    One ``rng.random()`` per non-sink postorder node per round — the exact
    draw order the vectorized simulator reproduces, so both sides of the
    benchmark can (and do) assert equal estimates.
    """
    net = tree.network
    postorder = tree.postorder()
    complete = 0
    for _ in range(n_rounds):
        delivered_below = {v: {v} for v in range(tree.n)}
        for v in postorder:
            if v == tree.sink:
                continue
            parent = tree.parent(v)
            if rng.random() < net.prr(v, parent):
                delivered_below[parent] |= delivered_below[v]
        complete += len(delivered_below[tree.sink]) == tree.n
    return complete / n_rounds


def _reference_reduce_cost(
    tree: AggregationTree, caps: Dict[int, int], max_moves: int
) -> AggregationTree:
    """The historical scalar cost-descent scan, kept verbatim as the baseline.

    Children ascending, then neighbours ascending; the first strict minimum
    below ``COST_EPS`` wins — the move order
    :func:`~repro.core.local_search.reduce_cost_under_caps` reproduces.
    """
    network = tree.network
    state = TreeState(tree)
    sink = state.sink
    moves = 0
    while moves < max_moves:
        best: Optional[Tuple[float, int, int]] = None
        for child in range(state.n):
            if child == sink:
                continue
            parent = state.parent(child)
            assert parent is not None
            for cand in network.neighbors(child):
                if cand == parent or state.in_subtree(cand, child):
                    continue
                if state.n_children(cand) >= caps[cand]:
                    continue
                delta = network.cost(child, cand) - network.cost(child, parent)
                if delta < COST_EPS and (best is None or delta < best[0]):
                    best = (delta, child, cand)
        if best is None:
            break
        state.reparent(best[1], best[2], check=False)
        moves += 1
    return state.freeze()


def _reference_maximize_lifetime(
    tree: AggregationTree, *, max_moves: int = 100_000
) -> Tuple[AggregationTree, int]:
    """The historical scalar lifetime-ascent scan, kept verbatim as the oracle.

    Loaded nodes by ascending lifetime; for each, its children ascending,
    then neighbours ascending; the first strictly better
    :func:`~repro.engine.treestate.lifetime_delta_better` delta wins, and
    the first loaded node with a move ends the scan — the move order
    :func:`~repro.core.local_search.maximize_lifetime` reproduces.
    """
    network = tree.network
    state = TreeState(tree)
    n = state.n
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        best_gain = NO_GAIN
        best_move: Optional[Tuple[int, int]] = None

        kids = state.children_lists()
        order = sorted(range(n), key=state.node_lifetime)
        for loaded in order:
            for child in kids[loaded]:
                for candidate in network.neighbors(child):
                    if candidate == loaded or state.in_subtree(candidate, child):
                        continue
                    gain = state.reparent_lifetime_delta(child, candidate)
                    if lifetime_delta_better(gain, best_gain):
                        best_gain = gain
                        best_move = (child, candidate)
            if best_move is not None:
                break  # act on the tightest bottleneck first

        if best_move is not None:
            state.reparent(*best_move, check=False)
            moves += 1
            improved = True
    return state.freeze(), moves


def _reference_rasmalai(
    network: Network,
    *,
    initial_tree: Optional[AggregationTree] = None,
    max_switches: int = 10_000,
    patience: int = DEFAULT_PATIENCE,
    seed: SeedLike = None,
) -> RaSMaLaiResult:
    """The historical RaSMaLai loop on validated TreeState calls, kept
    verbatim as the oracle: the random picks, trial moves and undos that
    :func:`~repro.baselines.rasmalai.build_rasmalai_tree` reproduces.
    """
    if patience <= 0:
        raise ValueError(f"patience must be positive, got {patience}")
    rng = as_rng(seed)
    tree = initial_tree if initial_tree is not None else bfs_tree(network)
    if tree.network is not network:
        raise ValueError("initial_tree must be built over the same network")
    state = TreeState(tree)

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


def _reference_clmt(network: Network) -> VirmaniResult:
    """The historical CLMT greedy on validated lifetime calls, kept verbatim
    as the oracle: every step rescores every frontier link, the choice
    :func:`~repro.baselines.virmani.build_clmt_tree` reproduces.
    """
    n = network.n
    if n == 1:
        tree = AggregationTree(network, {})
        return VirmaniResult(tree, tree.lifetime(), 0)

    model = network.energy_model
    in_tree = [False] * n
    in_tree[network.sink] = True
    children = [0] * n
    parents: Dict[int, int] = {}

    for _ in range(n - 1):
        best: Optional[Tuple[Tuple[float, float, int, int], int, int]] = None
        for p in range(n):
            if not in_tree[p]:
                continue
            p_after = model.lifetime_rounds(network.initial_energy(p), children[p] + 1)
            for v in network.neighbors(p):
                if in_tree[v]:
                    continue
                v_leaf = model.lifetime_rounds(network.initial_energy(v), 0)
                score = (min(p_after, v_leaf), p_after, -p, -v)
                if best is None or score > best[0]:
                    best = (score, p, v)
        if best is None:
            attached = sum(in_tree)
            raise DisconnectedNetworkError(
                f"only {attached} of {n} nodes reach the sink"
            )
        _, p, v = best
        parents[v] = p
        children[p] += 1
        in_tree[v] = True

    tree = AggregationTree(network, parents)
    return VirmaniResult(tree=tree, lifetime=tree.lifetime(), attachments=n - 1)


def _best_of(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """``fn()``'s result and its fastest wall time over ``ASCENT_REPEATS`` runs."""
    best = float("inf")
    for _ in range(ASCENT_REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _per_build(
    build: Callable[[Network, int], Any], nets: List[Network]
) -> Tuple[List[Any], float]:
    """``build(net, i)`` over the *i*-th of *nets*: the results and the
    per-build wall time of the fastest of ``ASCENT_REPEATS`` passes."""
    results, total = _best_of(lambda: [build(net, i) for i, net in enumerate(nets)])
    return results, total / len(nets)


@dataclass(frozen=True)
class CoreBenchReport:
    """One core-bench run: sizes, wall-clock splits, and the five speedups."""

    round_sim_nodes: int
    round_sim_rounds: int
    round_sim_reference_s: float
    round_sim_vectorized_s: float
    round_sim_speedup: float
    search_nodes: int
    search_max_moves: int
    search_reference_s: float
    search_bulk_s: float
    local_search_speedup: float
    ascent_nodes: int
    ascent_moves: int
    ascent_reference_s: float
    ascent_scan_s: float
    lifetime_ascent_speedup: float
    serve_nodes: int
    serve_graphs: int
    rasmalai_reference_s: float
    rasmalai_s: float
    rasmalai_speedup: float
    clmt_reference_s: float
    clmt_s: float
    clmt_speedup: float
    timestamp: float

    def to_doc(self) -> Dict[str, Any]:
        return asdict(self)

    def render(self) -> str:
        lines = [
            "core bench",
            f"  round sim   n={self.round_sim_nodes} rounds={self.round_sim_rounds}:"
            f" loop {self.round_sim_reference_s:.3f}s ->"
            f" vectorized {self.round_sim_vectorized_s:.3f}s"
            f"  ({self.round_sim_speedup:.1f}x)",
            f"  local search n={self.search_nodes}"
            f" max_moves={self.search_max_moves}:"
            f" loop {self.search_reference_s:.3f}s ->"
            f" bulk scan {self.search_bulk_s:.3f}s"
            f"  ({self.local_search_speedup:.1f}x)",
            f"  lifetime ascent n={self.ascent_nodes}"
            f" moves={self.ascent_moves}:"
            f" loop {self.ascent_reference_s:.3f}s ->"
            f" node scan {self.ascent_scan_s:.3f}s"
            f"  ({self.lifetime_ascent_speedup:.1f}x)",
            f"  rasmalai    n={self.serve_nodes} graphs={self.serve_graphs}:"
            f" loop {self.rasmalai_reference_s * 1e3:.2f}ms ->"
            f" lists {self.rasmalai_s * 1e3:.2f}ms per build"
            f"  ({self.rasmalai_speedup:.1f}x)",
            f"  clmt        n={self.serve_nodes} graphs={self.serve_graphs}:"
            f" loop {self.clmt_reference_s * 1e3:.2f}ms ->"
            f" heap {self.clmt_s * 1e3:.2f}ms per build"
            f"  ({self.clmt_speedup:.1f}x)",
        ]
        return "\n".join(lines)


def run_core_bench(
    *,
    round_grid: int = ROUND_SIM_GRID,
    rounds: int = ROUND_SIM_ROUNDS,
    search_grid: int = SEARCH_GRID,
    search_max_moves: int = SEARCH_MAX_MOVES,
    seed: int = 0,
) -> CoreBenchReport:
    """Run the four core benchmarks and return the report.

    Correctness is asserted, not sampled: the round-simulation estimates
    and the local-search and ascent trees must agree exactly between the
    compared implementations (they share RNG streams / decision sequences), so a
    speedup can never be bought with a behaviour change.
    """
    # --- round simulation: batched matrix vs historical loop -----------
    sim_net = grid_graph(round_grid, round_grid, seed=seed)
    sim_tree = build_tree("bfs", sim_net).tree

    start = time.perf_counter()
    vec = AggregationSimulator(sim_tree, seed=seed).estimate_reliability(rounds)
    vectorized_s = time.perf_counter() - start

    start = time.perf_counter()
    ref = _reference_estimate(sim_tree, as_rng(seed), rounds)
    reference_s = time.perf_counter() - start
    if vec != ref:
        raise AssertionError(
            f"round-sim divergence: vectorized {vec} != reference {ref}"
        )

    # --- local search: bulk move scan vs historical scalar scan --------
    search_net = grid_graph(
        search_grid, search_grid, spacing_m=SEARCH_SPACING_M, seed=seed
    )
    search_tree = build_tree("bfs", search_net).tree
    caps = {v: SEARCH_CAP for v in search_net.nodes}

    start = time.perf_counter()
    bulk = reduce_cost_under_caps(search_tree, caps, max_moves=search_max_moves)
    bulk_s = time.perf_counter() - start

    start = time.perf_counter()
    ref_tree = _reference_reduce_cost(search_tree, caps, search_max_moves)
    search_reference_s = time.perf_counter() - start
    if bulk.parents != ref_tree.parents:
        raise AssertionError("local-search divergence: bulk scan != scalar scan")

    # --- lifetime ascent: per-node scan vs historical scalar scan -------
    ascent_net = random_graph(ASCENT_NODES, ASCENT_LINK_P, seed=ASCENT_SEED)
    ascent_start = bfs_tree(ascent_net)
    (ascent, moves), ascent_scan_s = _best_of(
        lambda: maximize_lifetime(ascent_start)
    )
    (ref_ascent, ref_moves), ascent_reference_s = _best_of(
        lambda: _reference_maximize_lifetime(ascent_start)
    )
    if moves != ref_moves or ascent.parents != ref_ascent.parents:
        raise AssertionError("lifetime-ascent divergence: node scan != scalar scan")

    # --- serve size: RaSMaLai and CLMT vs their historical loops --------
    serve_nets = [
        random_graph(SERVE_NODES, 8 / SERVE_NODES, seed=i) for i in range(SERVE_GRAPHS)
    ]
    ras, rasmalai_s = _per_build(
        lambda net, i: build_rasmalai_tree(net, seed=i), serve_nets
    )
    ras_ref, rasmalai_reference_s = _per_build(
        lambda net, i: _reference_rasmalai(net, seed=i), serve_nets
    )
    if [(r.tree.parents, r.switches, r.attempts) for r in ras] != [
        (r.tree.parents, r.switches, r.attempts) for r in ras_ref
    ]:
        raise AssertionError("rasmalai divergence: lists != historical loop")
    clmt, clmt_s = _per_build(lambda net, i: build_clmt_tree(net), serve_nets)
    clmt_ref, clmt_reference_s = _per_build(
        lambda net, i: _reference_clmt(net), serve_nets
    )
    if [r.tree.parents for r in clmt] != [r.tree.parents for r in clmt_ref]:
        raise AssertionError("clmt divergence: heap != historical loop")

    return CoreBenchReport(
        round_sim_nodes=sim_net.n,
        round_sim_rounds=rounds,
        round_sim_reference_s=reference_s,
        round_sim_vectorized_s=vectorized_s,
        round_sim_speedup=reference_s / max(vectorized_s, 1e-9),
        search_nodes=search_net.n,
        search_max_moves=search_max_moves,
        search_reference_s=search_reference_s,
        search_bulk_s=bulk_s,
        local_search_speedup=search_reference_s / max(bulk_s, 1e-9),
        ascent_nodes=ascent_net.n,
        ascent_moves=moves,
        ascent_reference_s=ascent_reference_s,
        ascent_scan_s=ascent_scan_s,
        lifetime_ascent_speedup=ascent_reference_s / max(ascent_scan_s, 1e-9),
        serve_nodes=SERVE_NODES,
        serve_graphs=SERVE_GRAPHS,
        rasmalai_reference_s=rasmalai_reference_s,
        rasmalai_s=rasmalai_s,
        rasmalai_speedup=rasmalai_reference_s / max(rasmalai_s, 1e-9),
        clmt_reference_s=clmt_reference_s,
        clmt_s=clmt_s,
        clmt_speedup=clmt_reference_s / max(clmt_s, 1e-9),
        timestamp=time.time(),
    )


CORE_BENCH = BenchRecord(
    name="core",
    format="repro-bench-core",
    version=1,
    metrics=(
        MetricSpec("round_sim_speedup"),
        MetricSpec("local_search_speedup"),
        MetricSpec("lifetime_ascent_speedup"),
        MetricSpec("rasmalai_speedup"),
        MetricSpec("clmt_speedup"),
    ),
    # The ascent's graph is fixed, so its size does not tell runs apart.
    workload=("round_sim_nodes", "round_sim_rounds", "search_nodes", "search_max_moves"),
    run=run_core_bench,
    # The loop baselines finish in seconds; the ascent keeps its n=300 graph
    # and the serve-size row its 30 graphs.
    ci_params={"round_grid": 40, "rounds": 100, "search_grid": 26, "search_max_moves": 30},
)
