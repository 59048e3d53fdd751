"""Mutable incremental tree state — the substrate under every local search.

Every optimizer in the library manipulates aggregation trees through the
same elementary move: take a node from its parent and hang it under a
network neighbour outside its own subtree.  Historically each such move paid
for a full :class:`~repro.core.tree.AggregationTree` rebuild — O(n)
validation plus fresh Q/C/L recomputation per *candidate*.  ``TreeState(tree)``
thaws a validated tree into mutable parent pointers, children counts, and
per-node lifetimes, and maintains the three paper metrics incrementally:

* cost          ``C(T) = sum(-log q_e)``      — additive, O(1) per move
* reliability   ``Q(T) = prod(q_e)``          — multiplicative, O(1) per move
* lifetime      ``L(T) = min_v L(v)`` (Eq. 1) — lazy min with a count of
  minimum-achieving nodes, O(1) per move in the common case and an O(n)
  rescan only when every bottleneck node was touched.

A move changes exactly one tree edge and the children count of exactly two
nodes, so all bookkeeping is constant-time.  ``freeze()`` converts back to
the immutable, fully-validated :class:`AggregationTree` at search exit.

The greedy cost descents do not loop over candidates in Python:
:meth:`TreeState.best_cost_reparent` scores every ``(child, neighbour)``
pair in one vectorized pass and returns exactly the move the scalar nested
scan (child ascending, neighbour ascending, first strict minimum wins)
would accept.  ``tests/test_engine_treestate.py`` pins it against that
scalar scan, kept there as the oracle.

The lifetime ascent scores one loaded node's moves at a time.
:meth:`TreeState.best_lifetime_reparent` returns exactly the move of the
scalar scan (kept as ``_reference_maximize_lifetime`` in
:mod:`repro.engine.bench`): loaded nodes in stable ascending-lifetime
order; for each, its children ascending, then their neighbours ascending;
the first candidate strictly better under :func:`lifetime_delta_better`
replaces the running best; the first loaded node with an improving legal
move ends the scan.  One sort key reproduces it.  Write ``S`` for the
current lifetime multiset, ``L[v]`` for node ``v``'s lifetime and ``L⁻[v]``
/ ``L⁺[v]`` for it with one child fewer / more.  Moving a child of the
loaded node ``l`` under ``c`` yields ``S - {L[l], L[c]} + {L⁻[l], L⁺[c]}``.
For a fixed ``l``, candidates ``a`` and ``b`` therefore compare like the
multisets ``{L⁺[a], L[b]}`` and ``{L⁺[b], L[a]}`` (add ``L[a] + L[b]`` to
both results; common terms cancel), and the side holding the smallest
uncancelled value is the worse move.  Eq. 1 falls as the child count
grows, so ``L⁺[c] <= L[c]``; call ``c`` *flat* when they are equal (a
zero-energy node, or one whose Eq. 1 denominator rounds the extra child
away).

The key is a total preorder that agrees with :func:`lifetime_delta_better`,
and "strictly improves the tree" means "beats the identity move", so the
best legal candidate of a loaded node improves exactly when any of its
legal candidates does.  Hence: visit the loaded nodes in rank order; for
each, score its children's ``(child, neighbour)`` pairs alone, keep the
strictly improving ones, sort them by key, and accept the first that
passes the ancestor walk.  A move improves when sorted ``{L⁻[l], L⁺[c]}``
is tuple-greater than sorted ``{L[l], L[c]}``.  With ``L⁻[l] >= L[l]`` and
``L⁺[c] <= L[c]`` (exact: the rounded Eq. 1 is monotone in the child
count) that reduces to: ``L⁻[l] > L[l]``, and ``c`` flat, or ``L⁺[c] >
L[l]``, or ``L⁺[c] == L[l]`` with ``L⁻[l] > L[c]``.  Each pair's lifetimes are Python floats from
:meth:`~repro.network.energy.EnergyModel.lifetime_rounds_unchecked`,
bitwise the scalar Eq. 1.  An ascent (:meth:`TreeState.ascend_lifetime`)
keeps the rank order, children lists and ``L⁺`` values across moves and
re-files only the two nodes a move changes, so a move costs the pairs of
the loaded nodes the scan visits, not a pass over every link.

The incremental C and Q accumulate one floating add/multiply per move and so
can drift from a from-scratch recomputation by a few ULPs over thousands of
moves; the randomized equivalence suite pins the drift below 1e-9.  Lifetime
values are recomputed exactly from the children counts, never accumulated.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.tree import AggregationTree

__all__ = [
    "LifetimeDelta",
    "NO_GAIN",
    "TreeState",
    "lifetime_delta_better",
]

#: A lifetime delta as two cancelled multisets ``(removed, added)`` of
#: per-node lifetime values; the identity move is ``((), ())``.
LifetimeDelta = Tuple[Tuple[float, ...], Tuple[float, ...]]

#: The identity lifetime delta (move changes no node's lifetime).
NO_GAIN: LifetimeDelta = ((), ())


def lifetime_delta_better(a: LifetimeDelta, b: LifetimeDelta) -> bool:
    """Whether move *a* beats move *b* on the ascending lifetime vector.

    Both deltas must be taken against the same base state.  Compares the two
    resulting sorted lifetime vectors lexicographically — without building
    them.  If ``S`` is the base multiset, move *a* yields ``S - rem_a +
    add_a``; comparing that against ``S - rem_b + add_b`` reduces (after
    cancelling ``S``) to an elementwise walk over ``sorted(add_a + rem_b)``
    versus ``sorted(add_b + rem_a)``: at the first differing value, the side
    holding the *larger* value has the lexicographically greater vector.
    Pass ``b = NO_GAIN`` to ask "does *a* strictly improve the current tree?".
    """
    rem_a, add_a = a
    rem_b, add_b = b
    plus = sorted(add_a + rem_b)
    minus = sorted(add_b + rem_a)
    for x, y in zip(plus, minus):
        if x != y:
            return x > y
    return False


class TreeState:
    """Mutable aggregation tree with O(1) incremental paper metrics.

    A thawed copy of an :class:`AggregationTree`: the tree was validated
    when it was built, so thawing it checks nothing, and :meth:`freeze`
    validates the result from scratch.  ``reparent`` is the local-search
    move; cost and reliability sum/multiply over the tree edges and
    lifetime takes the min over every node, as the :class:`AggregationTree`
    definitions do.

    Parent pointers and children counts are ``int64`` arrays (the bulk move
    scans index them); per-node lifetimes are a Python list, because the
    searches read them one scalar at a time.  Sums and products run in
    ascending node order, so a thawed tree starts from the same floats
    however it was built.

    Args:
        tree: The tree to thaw.
    """

    __slots__ = (
        "network",
        "_parent",
        "_n_children",
        "_life",
        "_cost",
        "_q",
        "_min_life",
        "_min_count",
        "_min_dirty",
    )

    def __init__(self, tree: AggregationTree) -> None:
        network = tree.network
        self.network = network
        self._parent = parent = tree._parent.copy()
        cost = 0.0
        q = 1.0
        for v, p in enumerate(parent.tolist()):
            if p >= 0:
                edge = network.edge(v, p)
                cost += edge.cost
                q *= edge.prr
        counts = np.bincount(parent[parent >= 0], minlength=network.n)
        self._n_children = counts.astype(np.int64, copy=False)
        self._life: List[float] = network.energy_model.lifetime_rounds_unchecked(
            network.initial_energies, self._n_children
        ).tolist()
        self._cost = cost
        self._q = q
        self._min_life = 0.0
        self._min_count = 0
        self._min_dirty = True

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.network.n

    @property
    def sink(self) -> int:
        return self.network.sink

    def parent(self, v: int) -> Optional[int]:
        """Parent of *v*, or ``None`` for the sink."""
        p = int(self._parent[v])
        return p if p >= 0 else None

    def parents_map(self) -> Dict[int, int]:
        """Parent map of the non-sink nodes."""
        return {v: p for v, p in enumerate(self._parent.tolist()) if p >= 0}

    def n_children(self, v: int) -> int:
        """``Ch_T(v)`` of Eq. 1."""
        return int(self._n_children[v])

    def children_counts(self) -> np.ndarray:
        """Copy of the per-node children-count vector (``Ch_T`` of Eq. 1)."""
        return self._n_children.copy()

    def parents_array(self) -> np.ndarray:
        """Copy of the parent-pointer vector (-1 for the sink)."""
        return self._parent.copy()

    def children(self, v: int) -> List[int]:
        """Children of *v* in ascending id order (O(n) scan)."""
        return np.nonzero(self._parent == v)[0].tolist()

    def children_lists(self) -> List[List[int]]:
        """Children of every node at once (one O(n) pass, ids ascending)."""
        kids: List[List[int]] = [[] for _ in range(self.network.n)]
        for c, p in enumerate(self._parent.tolist()):
            if p >= 0:
                kids[p].append(c)
        return kids

    def in_subtree(self, node: int, root: int) -> bool:
        """Whether *node* lies in the subtree rooted at *root*.

        Walks ancestors of *node* — O(depth), not O(subtree size), which is
        what makes per-candidate cycle filtering cheap inside move scans.
        """
        sink = self.network.sink
        parent = self._parent
        u = node
        while True:
            if u == root:
                return True
            if u == sink:
                return False
            u = int(parent[u])

    def depths(self) -> List[int]:
        """Hop count to the sink for every node.

        Fully iterative (memoized path walks, O(n) total): a 10k-node
        path-like chain must not touch the recursion limit — the deep-chain
        regression test pins this.
        """
        n = self.network.n
        sink = self.network.sink
        parent = self._parent.tolist()
        depth = [-1] * n
        depth[sink] = 0
        for v in range(n):
            if depth[v] >= 0:
                continue
            path = []
            u = v
            while depth[u] < 0:
                path.append(u)
                u = parent[u]
            d = depth[u]
            for w in reversed(path):
                d += 1
                depth[w] = d
        return depth

    # ------------------------------------------------------------------
    # Paper metrics (incremental)
    # ------------------------------------------------------------------
    @property
    def cost(self) -> float:
        """``C(T) = sum(-log q_e)`` over the tree edges."""
        return self._cost

    @property
    def reliability(self) -> float:
        """``Q(T) = prod(q_e)`` over the tree edges."""
        return self._q

    def node_lifetime(self, v: int) -> float:
        """Eq. 1 lifetime of node *v* in aggregation rounds."""
        return self._life[v]

    def lifetime(self) -> float:
        """``L(T) = min_v L(v)``; O(1) amortized via the lazy minimum."""
        if self._min_dirty:
            self._min_life = min(self._life)
            self._min_count = self._life.count(self._min_life)
            self._min_dirty = False
        return self._min_life

    def bottleneck_members(self, rel_tol: float = 1e-12) -> Tuple[float, List[int]]:
        """``(low, members)``: the minimum lifetime and the node ids within
        ``low * (1 + rel_tol)`` of it, ascending.  The historical
        randomized-switching loop (``_reference_rasmalai`` in
        :mod:`repro.engine.bench`) polls this every attempt.
        """
        life = self._life
        low = min(life)
        bound = low * (1 + rel_tol)
        return low, [v for v, lv in enumerate(life) if lv <= bound]

    def _set_life(self, v: int, value: float) -> None:
        old = self._life[v]
        if old == value:
            return
        self._life[v] = value
        if self._min_dirty:
            return
        if value < self._min_life:
            self._min_life = value
            self._min_count = 1
        elif value == self._min_life:
            self._min_count += 1
        if old == self._min_life and value != self._min_life:
            self._min_count -= 1
            if self._min_count == 0:
                self._min_dirty = True

    def _update_children(self, v: int, delta: int) -> None:
        self._n_children[v] += delta
        network = self.network
        self._set_life(
            v,
            network.energy_model.lifetime_rounds_unchecked(
                network.initial_energy(v), int(self._n_children[v])
            ),
        )

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------
    def reparent(self, v: int, new_parent: int, *, check: bool = True) -> None:
        """Move the node *v* under *new_parent* — O(1) bookkeeping.

        With ``check=True`` (the default) validates link existence and walks
        ``new_parent``'s ancestry to reject cycles; search loops that already
        filtered candidates pass ``check=False`` to skip the second walk.
        """
        network = self.network
        if v == network.sink:
            raise ValueError("the sink has no parent to change")
        old = int(self._parent[v])
        p = int(new_parent)
        if p == old:
            return
        if check:
            if not network.has_edge(v, p):
                raise ValueError(
                    f"tree edge ({v}, {p}) does not exist in the network"
                )
            if self.in_subtree(p, v):
                raise ValueError(
                    f"re-parenting {v} under {p} would create a cycle"
                )
        edge_old = network.edge(v, old)
        edge_new = network.edge(v, p)
        self._cost += edge_new.cost - edge_old.cost
        self._q *= edge_new.prr / edge_old.prr
        self._parent[v] = p
        self._update_children(old, -1)
        self._update_children(p, +1)

    def reparent_lifetime_delta(self, v: int, new_parent: int) -> LifetimeDelta:
        """The move's lifetime change as cancelled ``(removed, added)`` tuples.

        A re-parent changes only the lifetimes of the old and new parent, so
        the ascending lifetime vector of the trial tree differs from the
        current one by at most two removals and two additions.  Feed the
        result to :func:`lifetime_delta_better` for O(1) lexicographic
        comparison of candidate moves — the engine of the AAML ascent.
        """
        if v == self.network.sink:
            raise ValueError("the sink has no parent to change")
        old = int(self._parent[v])
        p = int(new_parent)
        if p == old:
            return NO_GAIN
        model = self.network.energy_model
        removed = sorted((self._life[old], self._life[p]))
        added = sorted(
            (
                model.lifetime_rounds(
                    self.network.initial_energy(old),
                    int(self._n_children[old]) - 1,
                ),
                model.lifetime_rounds(
                    self.network.initial_energy(p),
                    int(self._n_children[p]) + 1,
                ),
            )
        )
        rem: List[float] = []
        add: List[float] = []
        i = j = 0
        while i < 2 and j < 2:
            if removed[i] == added[j]:
                i += 1
                j += 1
            elif removed[i] < added[j]:
                rem.append(removed[i])
                i += 1
            else:
                add.append(added[j])
                j += 1
        rem.extend(removed[i:])
        add.extend(added[j:])
        return tuple(rem), tuple(add)

    # ------------------------------------------------------------------
    # Bulk move scans
    # ------------------------------------------------------------------
    def reparent_candidates(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(child, cand, delta)`` for every legal-looking re-parent pair.

        Covers all directed ``(node, neighbour)`` pairs with ``child !=
        sink`` and ``cand != parent(child)``, in (child ascending, cand
        ascending) order.  ``delta`` is the cost change ``cost(child, cand)
        - cost(child, parent)``, bitwise-equal to the scalar scan's
        ``network.cost`` difference (``scalar_best_cost_reparent`` in
        ``tests/test_engine_treestate.py``).
        Subtree (cycle) legality is *not* filtered here;
        :meth:`best_cost_reparent` validates lazily.
        """
        links = self.network.link_arrays()
        src, dst, cost = links.src, links.dst, links.cost
        on_tree = dst == self._parent[src]
        # Each child's current edge cost, read off its tree link.
        edge_cost = np.zeros(self.network.n, dtype=np.float64)
        edge_cost[src[on_tree]] = cost[on_tree]
        keep = (src != self.network.sink) & ~on_tree
        child = src[keep]
        return child, dst[keep], cost[keep] - edge_cost[child]

    def best_cost_reparent(
        self,
        *,
        cand_ok: Optional[np.ndarray] = None,
        child_group: Optional[np.ndarray] = None,
        pair_ok: Optional[
            Callable[[np.ndarray, np.ndarray], np.ndarray]
        ] = None,
        threshold: Optional[float] = None,
    ) -> Optional[Tuple[float, int, int]]:
        """The move a scalar nested cost scan would accept.

        Returns ``(delta, child, cand)`` for the minimum-delta valid move —
        ties broken by scan order, exactly like a sequential ``delta <
        best`` loop over children ascending, then neighbours ascending — or
        ``None`` when no candidate qualifies.

        Args:
            cand_ok: Optional per-node bool mask of allowed new parents
                (children-cap filtering).
            child_group: Optional per-node int key; when given, children
                with a negative key are excluded and candidates are scanned
                grouped by ascending key first (``repair_overload`` scans
                by ascending overloaded-parent id before child id).
            pair_ok: Optional vectorized predicate over ``(child, cand)``
                arrays (the delay-bounded depth gate).
            threshold: When set, only deltas strictly below it qualify
                (the ``-1e-15`` strict-descent cutoff).

        Subtree legality is validated lazily on the delta-sorted candidate
        list (O(depth) ancestor walk each), so the usual case touches a
        handful of candidates even though every pair was scored.
        """
        child, cand, delta = self.reparent_candidates()
        valid = np.ones(child.size, dtype=bool)
        if cand_ok is not None:
            valid &= cand_ok[cand]
        if child_group is not None:
            valid &= child_group[child] >= 0
        if pair_ok is not None:
            valid &= pair_ok(child, cand)
        if threshold is not None:
            valid &= delta < threshold
        idx = np.nonzero(valid)[0]
        if idx.size == 0:
            return None
        if child_group is not None:
            # Stable: keeps (child, cand) order within one group.
            idx = idx[np.argsort(child_group[child[idx]], kind="stable")]
        order = idx[np.argsort(delta[idx], kind="stable")]
        for i in order:
            c = int(child[i])
            t = int(cand[i])
            if not self.in_subtree(t, c):
                return float(delta[i]), c, t
        return None

    def lifetime_candidates(self) -> Iterator[List[Tuple[int, int]]]:
        """``(child, cand)`` of the strictly lifetime-improving re-parents.

        Covers the same directed pairs as :meth:`reparent_candidates` and
        keeps those whose move lexicographically raises the ascending
        lifetime vector.  Yields one group per loaded node (the children's
        current parent), lazily, in stable ascending-lifetime order of that
        node, skipping nodes with no improving pair; within a group, pairs
        follow the key of the module docstring: flat candidates first, then
        larger ``L⁺[cand]``, then smaller ``L[cand]``, then scan order.  A
        group is scored only when the caller asks for it.  Subtree (cycle)
        legality is *not* filtered; :meth:`best_lifetime_reparent`
        validates lazily.  The state must not move while the generator
        runs.
        """
        ascent = _LifetimeAscent(self)
        for _, loaded in ascent.order:
            group = ascent.scored(loaded)
            if group:
                yield [(c, t) for _, _, _, c, t in group]

    def best_lifetime_reparent(self) -> Tuple[Optional[Tuple[int, int]], int]:
        """The move a scalar lifetime-ascent scan would accept.

        Returns ``((child, cand), checked)``, or ``(None, checked)`` at a
        local optimum; ``checked`` counts the candidates whose subtree
        legality was walked.  See :meth:`lifetime_candidates` and the module
        docstring for why the first legal candidate in key order is the
        scalar scan's choice.
        """
        return _LifetimeAscent(self).best()

    def ascend_lifetime(self, max_moves: int) -> Tuple[int, int]:
        """Apply :meth:`best_lifetime_reparent`'s move until none is left.

        Returns ``(moves, checked)``.  Stops at a local optimum or after
        *max_moves* moves.  One scan state serves every move, updated for
        the two nodes each move changes, so the moves are those of repeated
        :meth:`best_lifetime_reparent` calls.
        """
        ascent = _LifetimeAscent(self)
        moves = 0
        checked = 0
        while moves < max_moves:
            move, walked = ascent.best()
            checked += walked
            if move is None:
                break
            ascent.move(*move)
            moves += 1
        return moves, checked

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def freeze(self) -> AggregationTree:
        """The immutable, fully-validated :class:`AggregationTree`.

        Construction re-validates from scratch — intentionally, so a frozen
        tree is always trustworthy regardless of how the state was mutated.
        """
        return AggregationTree(self.network, self.parents_map())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(n={self.network.n}, "
            f"cost={self._cost:.4f})"
        )


class _LifetimeAscent:
    """The lifetime ascent's scan over one :class:`TreeState`.

    Keeps what the scan reads between moves: ``order``, the sorted
    ``(lifetime, node)`` pairs of the loaded nodes (stable ascending-lifetime
    order), the children and parent lists, the sorted neighbour lists, and
    ``plus``, every node's Eq. 1 lifetime with one child more.  A move
    changes two nodes' children counts, so :meth:`move` re-files just those
    two.  The state must move only through :meth:`move` while the object
    is in use.
    """

    __slots__ = ("state", "parent", "kids", "nbrs", "energy", "plus", "order")

    def __init__(self, state: TreeState) -> None:
        network = state.network
        self.state = state
        self.parent = state._parent.tolist()
        self.kids = state.children_lists()
        self.nbrs = [network.neighbors(v) for v in range(network.n)]
        energy = network.initial_energies
        self.energy = energy.tolist()
        self.plus = network.energy_model.lifetime_rounds_unchecked(
            energy, state._n_children + 1
        ).tolist()
        life = state._life
        self.order = sorted((life[v], v) for v, kids in enumerate(self.kids) if kids)

    def scored(self, loaded: int) -> List[Tuple[bool, float, float, int, int]]:
        """The improving moves of *loaded*'s children, in key order.

        Each entry is ``(not flat, -L⁺ or 0, L or 0, child, cand)`` of the
        candidate: tuple order is the module docstring's key, with scan
        order ``(child, cand)`` last.
        """
        life = self.state._life
        plus = self.plus
        nbrs = self.nbrs
        kids = self.kids[loaded]
        ll = life[loaded]
        ml = self.state.network.energy_model.lifetime_rounds_unchecked(
            self.energy[loaded], len(kids) - 1
        )
        found = []
        if ml == ll:
            return found  # *loaded* is flat: no move raises its lifetime
        for c in kids:
            for t in nbrs[c]:
                if t == loaded:
                    continue
                lt = life[t]
                pt = plus[t]
                if pt == lt:
                    found.append((False, 0.0, 0.0, c, t))
                elif pt > ll or (pt == ll and ml > lt):
                    found.append((True, -pt, lt, c, t))
        found.sort()
        return found

    def best(self) -> Tuple[Optional[Tuple[int, int]], int]:
        """The first legal candidate in (loaded rank, key) order."""
        parent = self.parent
        checked = 0
        for _, loaded in self.order:
            for _, _, _, c, t in self.scored(loaded):
                checked += 1
                # Legal unless ``t`` lies in ``c``'s subtree; the sink's
                # parent entry is -1.
                u = t
                while u >= 0 and u != c:
                    u = parent[u]
                if u < 0:
                    return (c, t), checked
        return None, checked

    def move(self, child: int, new_parent: int) -> None:
        """Apply a legal move and re-file the two nodes it changes."""
        state = self.state
        old = self.parent[child]
        life = state._life
        order = self.order
        kids = self.kids
        touched = (old, new_parent)
        for v in touched:
            if kids[v]:
                del order[bisect_left(order, (life[v], v))]
        state.reparent(child, new_parent, check=False)
        self.parent[child] = new_parent
        kids[old].remove(child)
        insort(kids[new_parent], child)
        model = state.network.energy_model
        for v in touched:
            k = len(kids[v])
            self.plus[v] = model.lifetime_rounds_unchecked(self.energy[v], k + 1)
            if k:
                insort(order, (life[v], v))
