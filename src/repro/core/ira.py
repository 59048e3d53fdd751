"""IRA — the Iterative Relaxation Algorithm (the paper's core contribution).

Algorithm 1 solves MRLC by iteratively relaxing ``LP(G, L', W)``:

1. ``W <- V``; ``L' <- I_min * LC / (I_min - 2 * Rx * LC)`` (line 3; the
   inflation absorbs the bounded constraint violation tolerated when a
   node's lifetime row is dropped, so the final tree still meets ``LC``).
2. Solve ``LP(G, L', W)`` to an extreme point ``x`` (line 5).
3. Remove every edge with ``x_e = 0`` (line 6) — by LP optimality the
   optimum over the remaining edges is unchanged (Eq. 21, ``C_2 = C_1``).
4. If some ``v in W`` keeps ``L(v) >= LC`` even when it adopts *all* its
   remaining incident support edges, drop its lifetime constraint
   (line 8) — dropping constraints can only improve the optimum
   (Eq. 21, ``C_3 <= C_2``).  Theorem 2 guarantees such a node exists.
5. Repeat until ``W`` is empty.  The remaining program is the Subtour LP,
   whose extreme points are integral spanning trees (Lemma 1), so the
   minimum-cost spanning tree of the surviving edges *is* the LP optimum —
   we extract it directly with Kruskal, which is exact and avoids rounding
   a nearly-integral vector.

Outcome (Section V-A): either a tree with ``L(T) >= LC`` and cost at most
``OPT(L')``, or a proof of infeasibility
(:class:`~repro.core.errors.InfeasibleLifetimeError`).

Implementation notes beyond the paper:

* All currently-droppable constraints are dropped in one iteration (the
  paper drops one per iteration; the relaxation argument is per-node, so
  batching is equivalent and saves LP solves).
* An iteration whose program provably has the previous optimum ``x`` as
  its optimum reuses ``x`` instead of calling HiGHS
  (:meth:`~repro.core.lp.LPSolution.still_optimal_for`): the edges it drops
  had ``x_e = 0`` and every lifetime row tight at ``x`` survives unloosened
  (Eq. 21's ``C_2 = C_1`` argument, extended to slack rows).  Each iteration
  is checked against the previous one; the first program of ``auto``'s
  uninflated attempt is checked against the first program of the inflated
  attempt, whose rows are tighter.  The count is
  :attr:`IRAResult.lp_reused`.
* ``auto`` does not run an uninflated attempt that would repeat the
  inflated one (:meth:`IterativeRelaxation._would_repeat`): when the
  inflated attempt emptied ``W`` in one iteration with no forced
  relaxation, and its first optimum certifies the uninflated first
  program, that attempt would reuse the same ``x`` and test the same
  support against the same ``LC`` degree caps, so it would empty ``W`` at
  once and rebuild the same tree.  ``min`` keeps the first of two equal
  costs, so the result is the one running both attempts returns.
* An uninflated attempt that does run starts from the inflated attempt's
  cut pool: a subtour cut holds for every spanning tree, whatever the
  lifetime rows, so the extra rows change the cut list but not the
  (unique) optimum.
* An attempt keeps one :class:`~repro.core.lp.MRLCLinearProgram`, and so
  one HiGHS model, across its iterations.  Before each later solve,
  :meth:`~repro.core.lp.MRLCLinearProgram.restrict` cuts it down to the
  surviving edges and lifetime rows, keeping every cut row and the basis.
  The edited program is the fresh one row for row, and the perturbed costs
  make its optimum unique, so the warm solve returns the same vertex.
* Theorem 2's progress guarantee relies on exact extreme points.  When an
  iteration removes no edge and drops no constraint, we force-drop the
  constraint with the largest slack and record a diagnostic
  (:attr:`IRAResult.forced_relaxations`).  This path is common when ``LC``
  binds: under the Fig. 8/9 protocol (``LC`` = the AAML lifetime, G(22, 0.3),
  energies uniform in [1500, 5000] J) 59 of 60 seeded builds force at least
  one relaxation, all with ``inflation="auto"`` falling back to ``L' = LC``.
  A forced relaxation may leave the tree short of ``LC``; the repair pass
  (:meth:`IterativeRelaxation._repair_lifetime`) then restores it, and the
  final lifetime check decides :attr:`IRAResult.lifetime_satisfied`.
* The line-3 inflation ``L' = I_min*LC/(I_min - 2*Rx*LC)`` assumes
  ``2*Rx*LC << I_min``.  When ``LC`` approaches ``I_min/(2*Rx)`` (one
  aggregation round costing two receives) the formula explodes and the
  inflated LP becomes infeasible even though trees meeting ``LC`` exist —
  the paper's own DFL evaluation (``LC = L_AAML``) sits in this regime.
  The default ``inflation="auto"`` therefore retries with ``L' = LC`` when
  the inflated program is infeasible; the line-8 removal test is always
  checked against ``LC`` itself, so the output still meets the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.core.errors import DisconnectedNetworkError, InfeasibleLifetimeError
from repro.core.lifetime import LifetimeSpec
from repro.core.local_search import (
    bfs_tree,
    maximize_lifetime,
    polish_under_caps,
    repair_overload,
)
from repro.core.lp import SUPPORT_EPS, LPSolution, MRLCLinearProgram
from repro.core.tree import AggregationTree
from repro.network.model import Network
from repro.obs import OBS

__all__ = ["IRAResult", "IterativeRelaxation", "build_ira_tree"]


@dataclass
class IRAResult:
    """Outcome of one IRA run.

    Attributes:
        tree: The data aggregation tree found.
        spec: The resolved lifetime requirement (``LC`` and inflated ``L'``).
        iterations: Number of LP-relaxation iterations performed.
        lp_solves: Total HiGHS invocations (cutting-plane rounds included).
            An iteration whose optimum was reused makes none, so this can
            be smaller than :attr:`iterations`.
        lp_reused: Iterations answered by reusing a certified earlier optimum
            instead of solving (``lp_solves + lp_reused >= iterations``).
        cuts_generated: Distinct subtour cuts generated across the run
            (including those carried in with a reused earlier optimum).
        forced_relaxations: Nodes whose constraint had to be force-dropped by
            the degeneracy safeguard (empty on theory-conforming runs).
        lifetime_satisfied: Whether the final tree meets ``LC``.
        inflation_used: ``"paper"`` when the line-3 inflated ``L'`` was used,
            ``"none"`` when the run fell back to ``L' = LC``.
    """

    tree: AggregationTree
    spec: LifetimeSpec
    iterations: int
    lp_solves: int
    cuts_generated: int
    forced_relaxations: List[int] = field(default_factory=list)
    lifetime_satisfied: bool = True
    inflation_used: str = "paper"
    lp_reused: int = 0


class IterativeRelaxation:
    """Configurable IRA runner (Algorithm 1).

    Args:
        network: Connected WSN instance.
        lc: Required network lifetime ``LC`` in aggregation rounds.
        constrain_sink: Whether the sink participates in ``W``.  The paper's
            ``W <- V`` includes it; deployments with a mains-powered sink can
            disable this.
        inflation: ``"paper"`` uses Algorithm 1 line 3's inflated ``L'``
            unconditionally; ``"none"`` uses ``L' = LC``; ``"auto"`` (the
            default) tries the paper's bound and falls back to ``LC`` when
            the inflated program is infeasible (see module notes).
        support_eps: Threshold below which an LP value counts as zero.
    """

    def __init__(
        self,
        network: Network,
        lc: float,
        *,
        constrain_sink: bool = True,
        inflation: str = "auto",
        support_eps: float = SUPPORT_EPS,
    ) -> None:
        if not network.is_connected():
            raise DisconnectedNetworkError(
                "network is disconnected; no spanning tree exists"
            )
        if inflation not in ("paper", "none", "auto"):
            raise ValueError(
                f"inflation must be 'paper', 'none', or 'auto', got {inflation!r}"
            )
        self.network = network
        self.lc = float(lc)
        self.inflation = inflation
        self.constrain_sink = constrain_sink
        self.support_eps = support_eps

    def _specs_to_try(self) -> List[Tuple[str, LifetimeSpec]]:
        """Candidate (label, spec) pairs in the order the run attempts them."""
        uninflated = ("none", LifetimeSpec.uninflated(self.network, self.lc))
        if self.inflation == "none":
            return [uninflated]
        try:
            inflated = ("paper", LifetimeSpec.resolve(self.network, self.lc))
        except ValueError:
            if self.inflation == "paper":
                raise InfeasibleLifetimeError(
                    f"inflated bound L' undefined for LC={self.lc}: "
                    "2*Rx*LC >= I_min"
                )
            return [uninflated]
        if self.inflation == "paper":
            return [inflated]
        return [inflated, uninflated]

    def run(self) -> IRAResult:
        """Execute Algorithm 1 and return the tree plus diagnostics.

        In ``auto`` mode both the inflated and the uninflated program are
        run and the cheaper valid tree is returned: the inflated ``L'`` is
        *stricter* than ``LC``, so it can cost reliability the uninflated
        run recovers, while both outputs are certified against ``LC`` by the
        line-8 removal rule.  Returning the min keeps cost monotone in the
        lifetime bound.
        """
        attempts = self._specs_to_try()
        results: List[IRAResult] = []
        last_error: Optional[InfeasibleLifetimeError] = None
        # The first attempt's first LP optimum, which may certify the next
        # attempt's first program (see module notes).
        first_optimum: List[LPSolution] = []
        for label, spec in attempts:
            if results and self._would_repeat(results[0], first_optimum[0], spec):
                break  # it would rebuild the same tree (see module notes)
            try:
                result = self._run_with_spec(spec, label, first_optimum)
            except InfeasibleLifetimeError as exc:
                last_error = exc
                continue
            results.append(result)
            if result.tree.cost() <= 0.0:
                break  # cannot be beaten
        valid = [r for r in results if r.lifetime_satisfied] or results
        if not valid:
            assert last_error is not None
            raise last_error
        return min(valid, key=lambda r: r.tree.cost())

    def _constrained_nodes(self) -> Set[int]:
        """The initial ``W``: every node, less the sink unless it is bounded."""
        w = set(self.network.nodes)
        if not self.constrain_sink:
            w.discard(self.network.sink)
        return w

    def _would_repeat(
        self, result: IRAResult, optimum: LPSolution, spec: LifetimeSpec
    ) -> bool:
        """Whether an attempt under *spec* would rebuild *result*'s tree.

        *result* is an earlier attempt and *optimum* its first LP optimum.
        When that attempt emptied ``W`` in its only iteration without a
        forced relaxation, and *optimum* certifies the first program under
        *spec*, the new attempt would reuse the same ``x``, keep the same
        support, test it against the same ``LC`` degree caps, empty ``W``
        too, and extract the same minimum spanning tree.
        """
        if result.iterations != 1 or result.forced_relaxations:
            return False
        net = self.network
        bounds = spec.lp_degree_bounds(net, sorted(self._constrained_nodes()))
        return optimum.still_optimal_for(net.link_arrays().keys, bounds) is not None

    def _run_with_spec(
        self, spec: LifetimeSpec, label: str, first_optimum: List[LPSolution]
    ) -> IRAResult:
        """One Algorithm 1 run under *spec*.

        *first_optimum* holds the first LP optimum of an earlier attempt, if
        any, against which this run's first program is checked; when it is
        empty, this run's first optimum is appended to it.
        """
        net = self.network
        n = net.n
        if n == 1:  # the lone sink's tree needs no LP
            return IRAResult(
                tree=AggregationTree(net, {}),
                spec=spec,
                iterations=0,
                lp_solves=0,
                cuts_generated=0,
                inflation_used=label,
            )

        active_edges: List[Tuple[int, int]] = list(net.link_arrays().keys)
        w = self._constrained_nodes()
        # Every subtour cut stays valid under any lifetime rows, so a later
        # attempt starts from the earlier attempt's cut pool.
        cuts: List[FrozenSet[int]] = (
            list(first_optimum[0].cuts) if first_optimum else []
        )
        iterations = 0
        lp_solves = 0
        lp_reused = 0
        previous = first_optimum[0] if first_optimum else None
        program: Optional[MRLCLinearProgram] = None
        forced: List[int] = []
        prev_objective: Optional[float] = None
        if OBS.enabled:
            OBS.tracer.event(
                "ira.start", n=n, lc=spec.lc, inflation=label, edges=len(active_edges)
            )

        # Per-node values the loop tests every iteration, computed once.
        lp_bound = spec.lp_degree_bounds(net, sorted(w))
        degree_cap = spec.satisfied_degree_caps(net, w)

        try:
            while w:
                iterations += 1
                bounds = {v: lp_bound[v] for v in w}
                solution = (
                    None
                    if previous is None
                    else previous.still_optimal_for(active_edges, bounds)
                )
                reused = solution is not None
                if reused:
                    lp_reused += 1
                else:
                    if program is None:
                        program = MRLCLinearProgram(
                            net, active_edges, bounds, initial_cuts=cuts
                        )
                    else:
                        program.restrict(active_edges, bounds)
                    solution = program.solve()  # raises InfeasibleLifetimeError
                    lp_solves += solution.n_lp_solves
                if not first_optimum:
                    first_optimum.append(solution)
                previous = solution
                cuts = solution.cuts

                support = solution.support(self.support_eps)
                edges_removed = len(active_edges) - len(support)
                active_edges = support

                degrees = solution.support_degrees(n, self.support_eps)
                droppable = [v for v in sorted(w) if int(degrees[v]) <= degree_cap[v]]
                for v in droppable:
                    w.discard(v)

                if not droppable and edges_removed == 0 and w:
                    # Degeneracy safeguard: Theorem 2 promises progress on exact
                    # extreme points; force the least-binding constraint out.
                    victim = min(
                        w,
                        key=lambda v: degrees[v] - lp_bound[v],
                    )
                    w.discard(victim)
                    forced.append(victim)

                if OBS.enabled:
                    reg = OBS.registry
                    reg.counter("ira.iterations", inflation=label).inc()
                    reg.counter("ira.lp_solves", inflation=label).inc(
                        solution.n_lp_solves
                    )
                    if reused:
                        reg.counter("ira.lp_reused", inflation=label).inc()
                    reg.counter("ira.edges_removed", inflation=label).inc(
                        edges_removed
                    )
                    reg.counter("ira.constraints_dropped", inflation=label).inc(
                        len(droppable)
                    )
                    OBS.tracer.event(
                        "ira.iteration",
                        iteration=iterations,
                        inflation=label,
                        reused=reused,
                        objective=solution.objective,
                        cost_delta=(
                            solution.objective - prev_objective
                            if prev_objective is not None
                            else 0.0
                        ),
                        edges_removed=edges_removed,
                        constraints_dropped=len(droppable),
                        constrained_remaining=len(w),
                    )
                    prev_objective = solution.objective
        finally:
            # The attempt is done with its model: the next program this
            # thread builds refills it instead of creating one.
            if program is not None:
                program.release()

        tree = self._min_spanning_tree(active_edges)
        if OBS.enabled and forced:
            OBS.registry.counter("ira.forced_relaxations", inflation=label).inc(
                len(forced)
            )
        if forced and not tree.meets_lifetime(spec.lc):
            tree = self._repair_lifetime(tree, spec)
        satisfied = tree.meets_lifetime(spec.lc)
        if OBS.enabled:
            OBS.tracer.event(
                "ira.done",
                inflation=label,
                iterations=iterations,
                lp_solves=lp_solves,
                lp_reused=lp_reused,
                cuts=len(cuts),
                cost=tree.cost(),
                lifetime_satisfied=satisfied,
            )
        return IRAResult(
            tree=tree,
            spec=spec,
            iterations=iterations,
            lp_solves=lp_solves,
            cuts_generated=len(cuts),
            forced_relaxations=forced,
            lifetime_satisfied=satisfied,
            inflation_used=label,
            lp_reused=lp_reused,
        )

    def _repair_lifetime(
        self, tree: AggregationTree, spec: LifetimeSpec
    ) -> AggregationTree:
        """Fix the bounded violation left behind by a forced relaxation.

        A degenerate stall force-drops a constraint, which can leave some
        node a single child over its ``LC`` budget (the classic iterative-
        relaxation one-violation outcome).  Two-stage repair over the *full*
        network edge set (the LP may have pruned the needed edge):

        1. cheapest excess-reducing moves (:func:`repair_overload`);
        2. if those dead-end, drive the tree to a lifetime-local-optimum
           (:func:`maximize_lifetime` — the same engine as AAML, which
           reaches ``LC`` whenever ``LC`` is locally achievable) and then
           descend in cost without leaving the cap-feasible region
           (:func:`polish_under_caps`).

        If even that misses ``LC``, the original tree is returned and the
        caller reports ``lifetime_satisfied=False``.
        """
        net = self.network
        caps = spec.children_caps(net)
        candidates = []
        repaired = repair_overload(tree, caps)
        if repaired is not None:
            candidates.append(polish_under_caps(repaired, caps))
        # The LP tree can sit on a lexicographic plateau (e.g. swapping which
        # branch the sink keeps changes nothing); also restart the ascent
        # from the BFS tree, which mirrors the AAML trajectory that proved
        # LC achievable in the first place.
        for start in (tree, bfs_tree(net)):
            lifted, _ = maximize_lifetime(start)
            if lifted.meets_lifetime(spec.lc):
                candidates.append(polish_under_caps(lifted, caps))
        candidates = [c for c in candidates if c.meets_lifetime(spec.lc)]
        if candidates:
            return min(candidates, key=lambda t: t.cost())
        return tree  # cannot repair; report the violation honestly

    def _min_spanning_tree(self, edges: List[Tuple[int, int]]) -> AggregationTree:
        """Kruskal MST over the surviving edges.

        Once ``W`` is empty the program is the Subtour LP, whose optimum is
        the minimum spanning tree of the remaining graph (Lemma 1), so this
        is the exact final extreme point — no numerical rounding involved.
        Costs come from the network's link snapshot; edges are taken by
        cost, ties to the smaller key.
        """
        net = self.network
        position = net.edge_index(edges)
        cost = net.link_arrays().key_cost[position]
        root = list(range(net.n))  # union-find forest, path halving
        chosen: List[Tuple[int, int]] = []
        for i in np.lexsort((position, cost)).tolist():
            a, b = edges[i]
            ra, rb = a, b
            while root[ra] != ra:
                root[ra] = root[root[ra]]
                ra = root[ra]
            while root[rb] != rb:
                root[rb] = root[root[rb]]
                rb = root[rb]
            if ra != rb:
                root[ra] = rb
                chosen.append((a, b))
        if len(chosen) != net.n - 1:
            raise InfeasibleLifetimeError(
                "surviving edge set no longer spans the network"
            )
        return AggregationTree.from_edges(net, chosen)


def build_ira_tree(
    network: Network,
    lc: float,
    *,
    constrain_sink: bool = True,
    inflation: str = "auto",
) -> IRAResult:
    """Run IRA on *network* with lifetime bound *lc* (Algorithm 1).

    Returns an :class:`IRAResult`; raises
    :class:`~repro.core.errors.InfeasibleLifetimeError` when no aggregation
    tree can meet *lc* and
    :class:`~repro.core.errors.DisconnectedNetworkError` when the network has
    no spanning tree at all.
    """
    return IterativeRelaxation(
        network, lc, constrain_sink=constrain_sink, inflation=inflation
    ).run()
