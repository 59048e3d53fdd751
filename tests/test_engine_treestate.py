"""TreeState: incremental metrics must always agree with from-scratch trees.

The core contract of :class:`repro.engine.TreeState` is that after *any*
sequence of ``attach``/``reparent`` mutations, its incrementally maintained
C(T), Q(T), L(T), and children counts match a freshly constructed
:class:`~repro.core.tree.AggregationTree` to 1e-9.  The randomized suite
here drives a thousand mutations per topology and re-checks the invariant
throughout.  The bulk move scan is pinned against the scalar nested scans
it replaced, kept below as the oracle.
"""

import itertools
import math
import random

import numpy as np
import pytest

from repro.core.tree import AggregationTree
from repro.engine import (
    NO_GAIN,
    TreeState,
    freeze_parents,
    lifetime_delta_better,
)
from repro.network.dfl import dfl_network
from repro.network.model import Network
from repro.network.topology import grid_graph, random_graph

#: The invariant suite also runs under each retired engine setting.
under_retired_setting = pytest.mark.usefixtures("retired_engine_setting")


def _reference(state: TreeState) -> AggregationTree:
    """A from-scratch AggregationTree over the state's current parents."""
    return AggregationTree(state.network, state.parents_map())


def _assert_matches_reference(state: TreeState) -> None:
    tree = _reference(state)
    assert state.cost == pytest.approx(tree.cost(), abs=1e-9)
    assert state.reliability == pytest.approx(tree.reliability(), abs=1e-9)
    assert state.lifetime() == pytest.approx(tree.lifetime(), abs=1e-9)
    for v in range(state.n):
        assert state.n_children(v) == len(tree.children(v))
        assert state.children(v) == list(tree.children(v))
        assert state.node_lifetime(v) == pytest.approx(
            tree.node_lifetime(v), abs=1e-9
        )


def _legal_reparents(state: TreeState):
    """All (child, new_parent) moves legal from the current tree."""
    net = state.network
    moves = []
    for v in range(state.n):
        if v == state.sink:
            continue
        for p in net.neighbors(v):
            if p != state.parent(v) and not state.in_subtree(p, v):
                moves.append((v, p))
    return moves


# ---------------------------------------------------------------------------
# randomized equivalence suite (satellite c)
# ---------------------------------------------------------------------------


@under_retired_setting
@pytest.mark.parametrize(
    "make_net, seed",
    [
        (lambda: dfl_network(), 1),
        (lambda: random_graph(16, 0.7, seed=11), 2),
        (lambda: random_graph(30, 0.4, seed=12), 3),
        (lambda: grid_graph(5, 5), 4),
    ],
    ids=["dfl", "rand16", "rand30", "grid5x5"],
)
def test_thousand_random_mutations_match_scratch(make_net, seed):
    """1k random reparents: every metric matches a from-scratch tree."""
    net = make_net()
    state = TreeState.from_tree(AggregationTree.from_edges(net, _bfs_edges(net)))
    rng = random.Random(seed)
    checked = 0
    for step in range(1000):
        moves = _legal_reparents(state)
        if not moves:
            break
        v, p = rng.choice(moves)
        state.reparent(v, p)
        if step % 50 == 0 or step > 990:
            _assert_matches_reference(state)
            checked += 1
    assert checked >= 20
    _assert_matches_reference(state)
    # the frozen tree round-trips through the strict validator
    assert state.freeze().parents == state.parents_map()


def _bfs_edges(net: Network):
    from collections import deque

    seen = {net.sink}
    queue = deque([net.sink])
    edges = []
    while queue:
        u = queue.popleft()
        for v in net.neighbors(u):
            if v not in seen:
                seen.add(v)
                edges.append((v, u))
                queue.append(v)
    return edges


@under_retired_setting
def test_random_attach_construction_matches_scratch():
    """Growing a tree attach-by-attach in random order matches from-scratch."""
    net = random_graph(25, 0.5, seed=7)
    rng = random.Random(99)
    state = TreeState(net)
    assert state.n_attached == 1 and not state.spanning
    while not state.spanning:
        frontier = [
            (v, p)
            for v in range(net.n)
            if not state.is_attached(v)
            for p in net.neighbors(v)
            if state.is_attached(p)
        ]
        state.attach(*rng.choice(frontier))
    _assert_matches_reference(state)


# ---------------------------------------------------------------------------
# lifetime deltas
# ---------------------------------------------------------------------------


@under_retired_setting
def test_reparent_lifetime_delta_matches_vector_comparison():
    """The O(1) cancelled delta ranks moves exactly like full sorted vectors."""
    net = random_graph(14, 0.7, seed=21)
    state = TreeState.from_tree(AggregationTree.from_edges(net, _bfs_edges(net)))

    def full_vector(s):
        return sorted(s.node_lifetime(v) for v in range(s.n))

    base = full_vector(state)
    for v, p in _legal_reparents(state):
        gain = state.reparent_lifetime_delta(v, p)
        trial = state.copy()
        trial.reparent(v, p)
        expect = full_vector(trial) > base
        assert lifetime_delta_better(gain, NO_GAIN) == expect, (v, p)


@under_retired_setting
def test_identity_gain_is_no_gain():
    assert not lifetime_delta_better(NO_GAIN, NO_GAIN)
    assert lifetime_delta_better(((1.0,), (2.0,)), NO_GAIN)
    assert not lifetime_delta_better(((2.0,), (1.0,)), NO_GAIN)


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


@under_retired_setting
def test_reparent_rejects_cycles_missing_links_and_sink():
    net = grid_graph(4, 4)  # sparse, so non-neighbors exist
    state = TreeState.from_tree(AggregationTree.from_edges(net, _bfs_edges(net)))
    child = next(v for v in range(net.n) if state.n_children(v) == 0)
    with pytest.raises(ValueError):
        state.reparent(net.sink, child)  # sink cannot be moved
    deep = child
    anc = state.parent(deep)
    with pytest.raises(ValueError):
        state.reparent(anc, deep)  # would create a cycle
    non_neighbor = next(
        u
        for u in range(net.n)
        if u != child and u not in net.neighbors(child)
    )
    with pytest.raises(ValueError):
        state.reparent(child, non_neighbor)  # no such link


@under_retired_setting
def test_attach_rejects_double_attach_and_unattached_parent():
    net = random_graph(10, 0.8, seed=2)
    state = TreeState(net)
    first = min(net.neighbors(net.sink))
    state.attach(first, net.sink)
    with pytest.raises(ValueError):
        state.attach(first, net.sink)  # already attached
    orphan = next(v for v in range(net.n) if not state.is_attached(v))
    other = next(
        u for u in net.neighbors(orphan) if not state.is_attached(u)
    )
    with pytest.raises(ValueError):
        state.attach(orphan, other)  # parent itself unattached


@under_retired_setting
def test_constructor_validates_parents():
    net = dfl_network()
    with pytest.raises(ValueError):
        TreeState(net, {1: 1})  # self-loop (no such link either)
    a = next(v for v in range(1, net.n) if any(u != net.sink for u in net.neighbors(v)))
    b = next(u for u in net.neighbors(a) if u != net.sink)
    with pytest.raises(ValueError):
        TreeState(net, {a: b, b: a})  # two-node cycle off the sink
    bad = {v: net.sink for v in net.neighbors(net.sink)}
    bad[999] = net.sink
    with pytest.raises(ValueError):
        TreeState(net, bad)  # out of range


@under_retired_setting
def test_freeze_requires_spanning():
    net = random_graph(8, 0.9, seed=4)
    state = TreeState(net)
    with pytest.raises(ValueError):
        state.freeze()


# ---------------------------------------------------------------------------
# single-node edge case (satellite a keeps this dedicated test)
# ---------------------------------------------------------------------------


@under_retired_setting
def test_single_node_network_freezes_to_empty_parent_map():
    net = Network(1)
    assert freeze_parents(net, {}).parents == {}
    state = TreeState(net)
    assert state.spanning
    tree = state.freeze()
    assert tree.parents == {}
    assert tree.cost() == 0.0
    assert tree.reliability() == 1.0
    # the lone sink still drains its battery transmitting its own reading
    assert tree.lifetime() == pytest.approx(state.lifetime())


@under_retired_setting
def test_copy_is_independent():
    net = random_graph(12, 0.7, seed=6)
    state = TreeState.from_tree(AggregationTree.from_edges(net, _bfs_edges(net)))
    clone = state.copy()
    v, p = _legal_reparents(state)[0]
    state.reparent(v, p)
    assert clone.parent(v) != p or clone.cost != state.cost
    _assert_matches_reference(clone)


# ---------------------------------------------------------------------------
# deep-chain regression: depths() stays iterative
# ---------------------------------------------------------------------------


def test_depths_survive_ten_thousand_node_path():
    """A 10k-node path must not recurse: depths() and freeze() work at a
    depth far beyond CPython's default recursion limit."""
    n = 10_000
    net = Network(n)
    for v in range(1, n):
        net.add_link(v - 1, v, 0.99)
    parents = {v: v - 1 for v in range(1, n)}
    state = TreeState(net, parents)
    depths = state.depths()
    assert depths[n - 1] == n - 1
    assert state.freeze().parents == parents
    assert math.isfinite(state.cost)


# ---------------------------------------------------------------------------
# bulk move scan == scalar scan
# ---------------------------------------------------------------------------


def scalar_best_cost_reparent(
    state, *, cand_ok=None, child_group=None, pair_ok=None, threshold=None
):
    """The scalar nested scans ``best_cost_reparent`` replaced.

    With ``cand_ok`` + ``threshold`` this is ``reduce_cost_under_caps``'s
    loop; with ``cand_ok`` + ``child_group`` it is ``repair_overload``'s
    (children of overloaded parents, by ascending parent); with ``pair_ok``
    + ``threshold`` it is the delay-bounded descent's.  Children ascending
    (within a group), neighbours ascending, first strict minimum wins.
    """
    network = state.network
    children = [c for c in range(state.n) if c != state.sink]
    if child_group is not None:
        children = sorted(
            (c for c in children if child_group[c] >= 0),
            key=lambda c: (child_group[c], c),
        )
    best = None
    for child in children:
        parent = state.parent(child)
        assert parent is not None
        for cand in network.neighbors(child):
            if cand == parent or state.in_subtree(cand, child):
                continue
            if cand_ok is not None and not cand_ok[cand]:
                continue
            if pair_ok is not None and not pair_ok(
                np.array([child]), np.array([cand])
            )[0]:
                continue
            delta = network.cost(child, cand) - network.cost(child, parent)
            if threshold is not None and not delta < threshold:
                continue
            if best is None or delta < best[0]:
                best = (delta, child, cand)
    return best


def _tied_network(n, p, seed):
    """G(n, p) whose PRRs come from three values, so deltas tie often."""
    rng = random.Random(seed)
    net = Network(n)
    for u in range(n):
        for v in range(u + 1, n):
            if v == u + 1 or rng.random() < p:  # the path keeps it connected
                net.add_link(u, v, rng.choice((0.8, 0.9, 0.95)))
    return net


def _random_spanning_state(net, rng):
    from repro.baselines.random_tree import build_random_tree

    return TreeState.from_tree(build_random_tree(net, seed=rng.randrange(2**32)))


@pytest.mark.parametrize(
    "use_cand_ok, use_group, use_pair_ok, use_threshold",
    list(itertools.product((False, True), repeat=4)),
)
def test_bulk_scan_matches_scalar_scan(
    use_cand_ok, use_group, use_pair_ok, use_threshold
):
    """Same ``(delta, child, cand)`` as the scalar scan — bitwise, ties and
    ``None`` included — under every combination of the four filters."""
    rng = random.Random(hash((use_cand_ok, use_group, use_pair_ok, use_threshold)))
    nets = [
        _tied_network(20, 0.3, seed=1),
        _tied_network(35, 0.15, seed=2),
        random_graph(25, 0.3, prr_low=0.5, prr_high=0.99, seed=3),
        grid_graph(5, 6),
    ]
    found = 0
    for net in nets:
        for _ in range(15):
            state = _random_spanning_state(net, rng)
            n = net.n
            filters = {}
            if use_cand_ok:
                filters["cand_ok"] = np.array(
                    [rng.random() < 0.6 for _ in range(n)]
                )
            if use_group:
                filters["child_group"] = np.array(
                    [rng.choice((-1, 0, 1, 2, 5)) for _ in range(n)]
                )
            if use_pair_ok:
                gate = np.array(
                    [[rng.random() < 0.7 for _ in range(n)] for _ in range(n)]
                )
                filters["pair_ok"] = lambda child, cand: gate[child, cand]
            if use_threshold:
                filters["threshold"] = rng.choice((-1e-15, 0.0, -0.05, 0.05))
            expect = scalar_best_cost_reparent(state, **filters)
            assert state.best_cost_reparent(**filters) == expect
            found += expect is not None
    assert found > 0
