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

Screening the roots.  IRA's contracted graphs are small (``k <= 11`` groups
in every call of 80 sampled benchmark builds), and many oracle calls
certify the point (238 of 426 on ``ira-tight``): every probe then ends at
``f_min >= 1`` and finds nothing.  So when
``k <= SCREEN_MAX_GROUPS`` the oracle first evaluates ``f`` on all ``2^k``
unions of groups in a few numpy passes, as ``f(S) = sum_{G in S} c_G -
x(E_cross(S))`` with ``c_G = |G| - x(E(G))`` (the same objective: the
boundary halves cancel against the ``a_G``).  Let ``m_r`` be the minimum
of ``f`` over the unions containing root ``r``.  A probe from ``r`` can
only return a union containing ``r``, whose violation is at most
``1 - m_r``.  So a root with ``m_r >= 1 - tolerance + SCREEN_MARGIN`` (no
union through it falls below that) cannot yield a reported set, and its
Dinic probe, which would end at ``offset + flow >= 1 - tolerance`` and
``continue``, is skipped; the returned list, order included, does not
change.  The margin covers floating-point round-off: the screen and the
probe (or ``subtour_violation``'s re-check) each sum ``O(k^2)`` (resp.
``O(m)``) terms with partial sums ``<= n``, so each is within
``terms * n * 2^-53`` of the exact value: about ``1e-10`` even at
``n = 300``, ``m = 3183``.  Dinic stays the only source of cut sets; the
screen only decides which roots to probe.  Above the cap every root is
probed, since ``2^k`` outgrows ``k`` max-flows.

Resuming the probes.  Root ``r``'s network is one network plus the arc
``s -> r``.  The oracle solves that network once with no root arc open and
starts each probe from a copy of its residual capacities.  The base flow
uses no root arc, so it is feasible in every root's network, and Dinic
augments it to a maximum flow there (the probe's value counts it).  The
nodes reachable from ``s`` in the residual graph of *any* maximum flow form
the inclusion-minimal minimum cut, so a resumed probe returns the same
source side as a probe from zero, and the cut list, order included, does
not change; only a flow value within round-off of ``1 - tolerance`` could
decide differently.  The base solve needs no cutoff: with no root forced
in, its cut with source side ``{s} | S`` costs ``f(S) - offset`` for every
``S``, the empty set included, so its flow is at most ``f({}) - offset =
-offset``, below the probes' cutoff ``1 - tolerance - offset``.

The paper invokes exactly this machinery via Theorem 1 (ellipsoid +
separation oracle); in practice cutting planes over HiGHS converge in a few
rounds on these instance sizes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import OBS
from repro.utils.maxflow import DinicMaxFlow

__all__ = ["find_violated_subtours", "subtour_violation"]

#: Violations smaller than this are attributed to LP tolerance, not reported.
DEFAULT_TOLERANCE = 1e-7

#: Largest group count whose ``2^k`` unions the oracle screens before probing.
SCREEN_MAX_GROUPS = 12

#: Round-off allowance between the screen's ``f`` and the probe's.
SCREEN_MARGIN = 1e-9

_BIG = 1e18


def subtour_violation(
    subset: Sequence[int],
    edges: Union[Sequence[Tuple[int, int]], np.ndarray],
    x: np.ndarray,
) -> float:
    """Amount by which ``x(E(S)) <= |S| - 1`` is violated for *subset* (<=0 ok).

    *edges* is a sequence of endpoint pairs or an ``(m, 2)`` integer array.
    ``x(E(S))`` is a sequential ``cumsum`` in edge order, so it carries the
    same bits as an edge-by-edge loop.
    """
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    members = np.fromiter(set(subset), dtype=np.int64)
    size = 1 + max(int(members.max(initial=-1)), int(ends.max(initial=-1)))
    member = np.zeros(size, dtype=bool)
    member[members] = True
    inside = np.asarray(x, dtype=float)[: len(ends)][
        member[ends[:, 0]] & member[ends[:, 1]]
    ]
    total = float(np.cumsum(inside)[-1]) if len(inside) else 0.0
    return total - (len(members) - 1)


@lru_cache(maxsize=SCREEN_MAX_GROUPS + 1)
def _union_bits(k: int) -> np.ndarray:
    """Read-only ``(2^k, k)`` 0/1 matrix: row ``mask`` marks the groups in it."""
    bits = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(float)
    bits.flags.writeable = False
    return bits


def _screen(
    members: List[List[int]],
    inside: List[float],
    cross: Dict[Tuple[int, int], float],
    threshold: float,
) -> List[int]:
    """The groups that lie in some union of groups with ``f < threshold``,
    ascending: the roots a probe could still find a violated set from.

    With ``Q[G][G] = -2 (|G| - x(E(G)))`` and ``Q[G][H]`` the ``x`` between
    groups ``G`` and ``H``, a union with membership vector ``b`` has
    ``f = -b^T Q b / 2``.
    """
    k = len(members)
    q = np.zeros((k, k))
    q.flat[:: k + 1] = [
        2.0 * (inside[g] - len(group)) for g, group in enumerate(members)
    ]
    for (gu, gv), val in cross.items():
        q[gu, gv] = q[gv, gu] = val
    bits = _union_bits(k)
    low = np.einsum("ij,ij->i", bits @ q, bits) > -2.0 * threshold
    return np.flatnonzero(bits[low].any(axis=0)).tolist()


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
    # the module docstring for why this keeps the oracle exact).  Union-find
    # links every root under the smaller one, so a node's parent is never
    # larger than the node and one ascending pass numbers the groups by
    # their smallest node.
    support: List[Tuple[int, int, float]] = []
    parent = list(range(n))
    for (u, v), val in zip(edges, x.tolist()):
        if val > 0.0:
            support.append((u, v, val))
            if val >= 1.0:
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                if u < v:
                    parent[v] = u
                elif v < u:
                    parent[u] = v
    members: List[List[int]] = []
    group_of = [0] * n
    for v in range(n):
        if parent[v] == v:
            group_of[v] = len(members)
            members.append([v])
        else:
            group_of[v] = group_of[parent[v]]
            members[group_of[v]].append(v)
    k = len(members)

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

    # Endpoint array for subtour_violation, built once on first use.
    ends: Optional[np.ndarray] = None
    found: Dict[FrozenSet[int], float] = {}
    for g, group in enumerate(members):
        violation = inside[g] - (len(group) - 1)
        if len(group) >= 2 and violation > tolerance:
            found[frozenset(group)] = violation

    roots: Sequence[int] = range(k) if k >= 2 and len(found) < max_sets else ()
    if roots and k <= SCREEN_MAX_GROUPS:
        roots = _screen(members, inside, cross, 1.0 - tolerance + SCREEN_MARGIN)

    probes = paths = 0
    if roots:
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
        # Every probe resumes from the maximum flow with no root arc open
        # (see the module docstring); that flow stays below the cutoff.
        base = net.solve(source, sink)
        paths = base.augmenting_paths

        for root in roots:
            probes += 1
            net.reset_flow(base)
            net.set_capacity(root_arcs[root], _BIG)
            result = net.solve(source, sink, cutoff=cutoff)
            paths += result.augmenting_paths
            if offset_base + result.flow_value >= 1.0 - tolerance:
                continue
            subset = frozenset(
                v for g in result.source_side if g != source for v in members[g]
            )
            if len(subset) >= 2 and subset not in found:
                if ends is None:
                    ends = np.fromiter(
                        chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges)
                    ).reshape(-1, 2)
                violation = subtour_violation(subset, ends, x)
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
        reg.counter("separation.augmenting_paths").inc(paths)
        reg.counter("separation.violated_sets").inc(len(result_sets))
        if result_sets:
            OBS.tracer.event(
                "separation.cuts",
                n=n,
                violated=len(result_sets),
                worst_violation=ranked[0][1],
            )
    return result_sets
