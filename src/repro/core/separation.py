"""Subtour-elimination separation oracle (Padberg–Wolsey minimum cuts).

The Subtour LP (Section IV-A) has exponentially many constraints

    x(E(S)) <= |S| - 1          for all S ⊆ V,

so the cutting-plane solver generates them lazily: given a fractional point
``x``, this oracle either certifies that all subtour constraints hold or
returns violated sets ``S``.

Reduction (Padberg & Wolsey 1983).  Using
``x(E(S)) = (sum_{v in S} x(delta(v)) - x(delta(S))) / 2``, the constraint is
equivalent to ``f(S) := |S| - x(E(S)) >= 1``, and

    f(S) = sum_{v in S} a_v + x(delta(S)) / 2,   a_v = 1 - x(delta(v)) / 2.

Minimising a node-weight-plus-cut objective over sets forced to contain a
chosen root ``r`` is a single s-t minimum cut: positive ``a_v`` becomes an
arc ``v -> t``, negative ``a_v`` becomes an arc ``s -> v`` (plus a constant
offset), each graph edge contributes symmetric arcs of capacity ``x_e / 2``,
and ``s -> r`` gets infinite capacity.  Probing every root finds the global
minimiser; any root whose minimum is below ``1`` yields a violated set.
Singletons always have ``f = 1``, so violated sets have ``|S| >= 2``
automatically.

Shrinking (Padberg & Rinaldi 1990).  Adding a node ``v`` to ``S`` changes
``f`` by ``1 - x(v, S)``, where ``x(v, S)`` sums ``x`` over the edges from
``v`` into ``S``.  If an edge with ``x_e >= 1`` joins ``v`` to ``S`` this is
``<= 0``, so closing any set under such edges never raises ``f``: some
minimiser is a union of the *groups* (connected components of the
``x_e >= 1`` edges).  The oracle therefore contracts each group to one node
with ``a_G = |G| - x(E(G)) - x(delta(G)) / 2`` (summing cross-group arcs),
checks each group on its own (no flow needed), and probes one root per
group instead of one per node.  With ``k`` groups the contracted objective
is the same ``f`` restricted to unions of groups, so ``k = n`` is the plain
per-node reduction above and ``k = 1`` needs no probe at all.  IRA's LP
points are mostly integral after the first rounds, so ``k`` is usually a
small fraction of ``n``.

The paper invokes exactly this machinery via Theorem 1 (ellipsoid +
separation oracle); in practice cutting planes over HiGHS converge in a few
rounds on these instance sizes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.obs import OBS
from repro.utils.maxflow import DinicMaxFlow
from repro.utils.unionfind import UnionFind

__all__ = ["find_violated_subtours", "subtour_violation"]

#: Violations smaller than this are attributed to LP tolerance, not reported.
DEFAULT_TOLERANCE = 1e-7

_BIG = 1e18


def subtour_violation(
    subset: Sequence[int],
    edges: Sequence[Tuple[int, int]],
    x: np.ndarray,
) -> float:
    """Amount by which ``x(E(S)) <= |S| - 1`` is violated for *subset* (<=0 ok)."""
    members = set(subset)
    inside = sum(
        float(x[i]) for i, (u, v) in enumerate(edges) if u in members and v in members
    )
    return inside - (len(members) - 1)


def find_violated_subtours(
    n: int,
    edges: Sequence[Tuple[int, int]],
    x: np.ndarray,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    max_sets: int = 10,
) -> List[FrozenSet[int]]:
    """Return up to *max_sets* subsets violating the subtour constraints.

    Args:
        n: Number of graph vertices (ids ``0..n-1``).
        edges: Edge endpoint pairs aligned with *x*.
        x: Current fractional LP values, one per edge.
        tolerance: Minimum violation worth reporting.
        max_sets: Cap on returned sets (adding several cuts per round speeds
            up convergence; duplicates are merged).

    Returns an empty list iff ``x`` satisfies every subtour constraint to
    within *tolerance*.
    """
    x = np.asarray(x, dtype=float)
    if len(x) != len(edges):
        raise ValueError(f"{len(edges)} edges but {len(x)} values")
    if n < 2:
        return []

    # Groups: components of the x_e >= 1 edges (exact, no tolerance; see
    # the module docstring for why this keeps the oracle exact).
    support: List[Tuple[int, int, float]] = []
    groups = UnionFind(range(n))
    for i, (u, v) in enumerate(edges):
        if x[i] > 0.0:
            support.append((u, v, float(x[i])))
            if x[i] >= 1.0:
                groups.union(u, v)
    members = groups.sets()
    k = len(members)
    group_of = [0] * n
    for g, group in enumerate(members):
        for v in group:
            group_of[v] = g

    # Per group: x(E(G)) and x(delta(G)); cross-group x summed per pair.
    inside = [0.0] * k
    boundary = [0.0] * k
    cross: Dict[Tuple[int, int], float] = {}
    for u, v, val in support:
        gu, gv = group_of[u], group_of[v]
        if gu == gv:
            inside[gu] += val
        else:
            boundary[gu] += val
            boundary[gv] += val
            pair = (gu, gv) if gu < gv else (gv, gu)
            cross[pair] = cross.get(pair, 0.0) + val

    found: Dict[FrozenSet[int], float] = {}
    for g, group in enumerate(members):
        violation = inside[g] - (len(group) - 1)
        if len(group) >= 2 and violation > tolerance:
            found[frozenset(group)] = violation

    probes = 0
    if k >= 2 and len(found) < max_sets:
        node_weight = [
            len(group) - inside[g] - boundary[g] / 2.0
            for g, group in enumerate(members)
        ]  # a_G
        offset_base = sum(min(a_g, 0.0) for a_g in node_weight)

        source, sink = k, k + 1
        # One shared network: per root only the source->root arc changes.
        # The s->G arcs for negative node weights stay; roots get an extra
        # switchable infinite arc.
        net = DinicMaxFlow(k + 2)
        for (gu, gv), val in cross.items():
            net.add_edge(gu, gv, val / 2.0, val / 2.0)
        for g, a_g in enumerate(node_weight):
            if a_g >= 0.0:
                net.add_edge(g, sink, a_g)
            else:
                net.add_edge(source, g, -a_g)
        root_arcs = [net.add_edge(source, g, 0.0) for g in range(k)]

        # A root's probe only matters below this flow (f_min >= 1
        # otherwise), so augmentation can stop early at the threshold.
        cutoff = 1.0 - tolerance - offset_base

        for root in range(k):
            probes += 1
            net.reset_flow()
            net.set_capacity(root_arcs[root], _BIG)
            result = net.solve(source, sink, cutoff=cutoff)
            net.set_capacity(root_arcs[root], 0.0)
            if offset_base + result.flow_value >= 1.0 - tolerance:
                continue
            subset = frozenset(
                v for g in result.source_side if g != source for v in members[g]
            )
            if len(subset) >= 2 and subset not in found:
                violation = subtour_violation(sorted(subset), edges, x)
                if violation > tolerance:
                    found[subset] = violation
                    if len(found) >= max_sets:
                        break  # enough cuts for this round

    ranked = sorted(found.items(), key=lambda item: -item[1])
    result_sets = [subset for subset, _ in ranked[:max_sets]]
    if OBS.enabled:
        reg = OBS.registry
        reg.counter("separation.calls").inc()
        reg.counter("separation.root_probes").inc(probes)
        reg.counter("separation.violated_sets").inc(len(result_sets))
        if result_sets:
            OBS.tracer.event(
                "separation.cuts",
                n=n,
                violated=len(result_sets),
                worst_violation=ranked[0][1],
            )
    return result_sets
