"""TreeState: incremental metrics must always agree with from-scratch trees.

The core contract of :class:`repro.engine.TreeState` is that after *any*
sequence of ``reparent`` mutations, its incrementally maintained
C(T), Q(T), L(T), and children counts match a freshly constructed
:class:`~repro.core.tree.AggregationTree` to 1e-9.  The randomized suite
here drives a thousand mutations per topology and re-checks the invariant
throughout.  The bulk move scans are pinned against the scalar nested scans
they replaced: the cost scan's oracle is kept below, the lifetime ascent's
is ``_reference_maximize_lifetime`` in :mod:`repro.engine.bench`.
"""

import copy
import itertools
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.ira as ira_module
from repro.core.local_search import bfs_tree, maximize_lifetime
from repro.core.tree import AggregationTree
from repro.engine import (
    NO_GAIN,
    TreeState,
    lifetime_delta_better,
)
from repro.engine.bench import _reference_maximize_lifetime
from repro.engine.registry import build_tree
from repro.network.dfl import dfl_network
from repro.network.energy import EnergyModel
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
    state = TreeState(AggregationTree.from_edges(net, _bfs_edges(net)))
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


# ---------------------------------------------------------------------------
# lifetime deltas
# ---------------------------------------------------------------------------


@under_retired_setting
def test_reparent_lifetime_delta_matches_vector_comparison():
    """The O(1) cancelled delta ranks moves exactly like full sorted vectors."""
    net = random_graph(14, 0.7, seed=21)
    state = TreeState(AggregationTree.from_edges(net, _bfs_edges(net)))

    def full_vector(s):
        return sorted(s.node_lifetime(v) for v in range(s.n))

    base = full_vector(state)
    for v, p in _legal_reparents(state):
        gain = state.reparent_lifetime_delta(v, p)
        trial = TreeState(AggregationTree(net, state.parents_map()))
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
    state = TreeState(AggregationTree.from_edges(net, _bfs_edges(net)))
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


# ---------------------------------------------------------------------------
# single-node edge case (satellite a keeps this dedicated test)
# ---------------------------------------------------------------------------


@under_retired_setting
def test_single_node_network_freezes_to_empty_parent_map():
    net = Network(1)
    state = TreeState(AggregationTree(net, {}))
    tree = state.freeze()
    assert tree.parents == {}
    assert tree.cost() == 0.0
    assert tree.reliability() == 1.0
    # the lone sink still drains its battery transmitting its own reading
    assert tree.lifetime() == pytest.approx(state.lifetime())


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
    state = TreeState(AggregationTree(net, parents))
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

    return TreeState(build_random_tree(net, seed=rng.randrange(2**32)))


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


# ---------------------------------------------------------------------------
# bulk lifetime ascent == scalar ascent
# ---------------------------------------------------------------------------


def _assert_ascent_matches_reference(tree, **kwargs):
    bulk, bulk_moves = maximize_lifetime(tree, **kwargs)
    ref, ref_moves = _reference_maximize_lifetime(tree, **kwargs)
    assert bulk_moves == ref_moves
    assert bulk.parents == ref.parents
    return bulk_moves


def _energy_network(n, p, energies, seed, energy_model=None):
    kwargs = {} if energy_model is None else {"energy_model": energy_model}
    return random_graph(n, p, initial_energy=np.asarray(energies), seed=seed, **kwargs)


@pytest.mark.parametrize("seed", range(6))
def test_ascent_matches_reference_from_random_starts(seed):
    """Uniform random spanning trees over G(n, p) with random energies."""
    rng = random.Random(seed)
    n = rng.choice((12, 20, 30))
    energies = [rng.uniform(1500.0, 5000.0) for _ in range(n)]
    net = _energy_network(n, rng.choice((0.2, 0.4)), energies, seed)
    moved = 0
    for _ in range(5):
        moved += _assert_ascent_matches_reference(
            _random_spanning_state(net, rng).freeze()
        )
    assert moved > 0


@pytest.mark.parametrize("seed", range(4))
def test_ascent_matches_reference_with_zero_energy_nodes(seed):
    """Zero-energy nodes are flat candidates and pin the minimum at 0."""
    rng = random.Random(100 + seed)
    n = 20
    energies = [
        0.0 if v != 0 and rng.random() < 0.25 else rng.uniform(1000.0, 4000.0)
        for v in range(n)
    ]
    net = _energy_network(n, 0.3, energies, seed)
    for _ in range(4):
        _assert_ascent_matches_reference(_random_spanning_state(net, rng).freeze())
    _assert_ascent_matches_reference(bfs_tree(net))


@pytest.mark.parametrize("seed", range(4))
def test_ascent_matches_reference_with_tied_energies(seed):
    """Rounded energies: lifetimes tie, so ranks and keys tie often."""
    rng = random.Random(200 + seed)
    n = 25
    energies = [float(rng.choice((1000, 2000, 3000))) for _ in range(n)]
    net = _energy_network(n, 0.3, energies, seed)
    for _ in range(4):
        _assert_ascent_matches_reference(_random_spanning_state(net, rng).freeze())
    _assert_ascent_matches_reference(bfs_tree(net))


def test_ascent_matches_reference_from_ira_lp_trees(monkeypatch):
    """The starts IRA's repair pass feeds the ascent: LP trees and BFS."""
    starts = []

    def recording(tree, **kwargs):
        starts.append(tree)
        return maximize_lifetime(tree, **kwargs)

    monkeypatch.setattr(ira_module, "maximize_lifetime", recording)
    for seed in range(4):
        # Fig. 8/9 protocol: LC = AAML lifetime, energies U[1500, 5000] J.
        rng = np.random.default_rng(seed)
        net = random_graph(
            22, 0.3, initial_energy=rng.uniform(1500.0, 5000.0, size=22), seed=rng
        )
        build_tree("ira", net, lc=build_tree("aaml", net).lifetime)
    assert len(starts) >= 4
    for tree in starts:
        _assert_ascent_matches_reference(tree)


@pytest.mark.parametrize("cap", [0, 1, 2, 5, 17])
def test_ascent_matches_reference_under_move_caps(cap):
    net = random_graph(40, 0.2, seed=31)
    moves = _assert_ascent_matches_reference(bfs_tree(net), max_moves=cap)
    assert moves == cap


def test_flat_candidates_tie_so_scan_order_decides():
    """Two flat candidates with different lifetimes: the first scanned wins.

    With ``tx = 1`` and ``rx = 6e-17``, one child rounds ``tx + rx`` back
    to 1.0, so every leaf keeps its lifetime ``E`` when it adopts a child:
    leaves are flat, with values set by their energies.  Node 1 is the
    bottleneck (two children, ``E = 1``).  Its child 2 can move under leaf
    4, 5 or 6.  All three moves leave the same lifetime multiset, so the
    scalar scan keeps the first, leaf 4 — not 5 (largest ``L⁺``) nor 6
    (smallest ``L``).
    """
    model = EnergyModel(tx=1.0, rx=6e-17)
    assert model.lifetime_rounds(7.0, 1) == model.lifetime_rounds(7.0, 0)
    net = Network(
        7,
        initial_energy=[1000.0, 1.0, 100.0, 100.0, 5.0, 9.0, 2.0],
        energy_model=model,
    )
    for u, v in [(0, 1), (1, 2), (1, 3), (0, 4), (0, 5), (0, 6)]:
        net.add_link(u, v, 0.9)
    for leaf in (4, 5, 6):
        net.add_link(2, leaf, 0.9)
    tree = AggregationTree(net, {1: 0, 2: 1, 3: 1, 4: 0, 5: 0, 6: 0})
    state = TreeState(tree)
    assert state.best_lifetime_reparent() == ((2, 4), 1)
    _assert_ascent_matches_reference(tree)
    _assert_ascent_matches_reference(tree, max_moves=1)


@pytest.mark.parametrize("seed", range(3))
def test_ascent_matches_reference_with_flat_leaves(seed):
    """The rounding model of the fixture above on random graphs."""
    rng = random.Random(300 + seed)
    n = 18
    energies = [float(rng.choice((1, 2, 3, 5, 8))) for _ in range(n)]
    net = _energy_network(
        n, 0.35, energies, seed, energy_model=EnergyModel(tx=1.0, rx=6e-17)
    )
    for _ in range(4):
        _assert_ascent_matches_reference(_random_spanning_state(net, rng).freeze())


@pytest.mark.parametrize("seed", range(3))
def test_ascent_matches_reference_with_equal_plus_lifetimes(seed):
    """``E / (1 + k)`` with small integer energies: ``L⁺`` ties are common,
    so the smaller-``L`` rule decides between different lifetimes."""
    rng = random.Random(400 + seed)
    n = 18
    energies = [float(rng.randint(2, 12)) for _ in range(n)]
    net = _energy_network(
        n, 0.35, energies, seed, energy_model=EnergyModel(tx=1.0, rx=1.0)
    )
    for _ in range(4):
        _assert_ascent_matches_reference(_random_spanning_state(net, rng).freeze())


def test_lifetime_candidates_are_exactly_the_improving_moves():
    """Every group, not only the first: the filter keeps every strictly
    improving pair and nothing else, one group per loaded node in stable
    ascending-lifetime order, and each group best move first under
    :func:`lifetime_delta_better`, ties in scan order."""
    rng = random.Random(41)
    nets = [
        random_graph(16, 0.5, seed=41),
        _energy_network(
            18, 0.35, [float(rng.choice((1, 2, 3))) for _ in range(18)], 42,
            energy_model=EnergyModel(tx=1.0, rx=6e-17),
        ),
        _energy_network(
            18, 0.35, [float(rng.randint(2, 12)) for _ in range(18)], 43,
            energy_model=EnergyModel(tx=1.0, rx=1.0),
        ),
    ]
    several = 0
    for net in nets:
        for _ in range(5):
            state = _random_spanning_state(net, rng)
            groups = list(state.lifetime_candidates())
            several += len(groups) > 1
            loaded = [state.parent(group[0][0]) for group in groups]
            rank = sorted(range(net.n), key=state.node_lifetime)
            assert loaded == [v for v in rank if v in loaded]
            for node, group in zip(loaded, groups):
                assert all(state.parent(c) == node for c, _ in group)
                for a, b in zip(group, group[1:]):
                    gain_a = state.reparent_lifetime_delta(*a)
                    gain_b = state.reparent_lifetime_delta(*b)
                    assert not lifetime_delta_better(gain_b, gain_a)
                    if not lifetime_delta_better(gain_a, gain_b):
                        assert a < b
            got = [move for group in groups for move in group]
            expect = {
                (v, p)
                for v in range(net.n)
                if v != net.sink
                for p in net.neighbors(v)
                if p != state.parent(v)
                and lifetime_delta_better(state.reparent_lifetime_delta(v, p), NO_GAIN)
            }
            assert len(got) == len(expect)
            assert set(got) == expect
    assert several > 0


#: Energy kinds of :func:`drawn_energy_network`.
ENERGY_KINDS = ("uniform", "zero", "tied", "flat", "small")


def drawn_energy_network(n, p, kind, rng, seed):
    """G(n, p) (``seed``) with energies of one kind drawn from *rng*: 0 J
    nodes, tied energies, the flat rounding model (``tx = 1``, ``rx =
    6e-17``) and small integer energies under ``tx = rx = 1``, whose tied
    ``L⁺`` values differ in ``L``."""
    model = None
    if kind == "uniform":
        energies = [rng.uniform(1500.0, 5000.0) for _ in range(n)]
    elif kind == "zero":
        energies = [
            0.0 if v and rng.random() < 0.25 else rng.uniform(1000.0, 4000.0)
            for v in range(n)
        ]
    elif kind == "tied":
        energies = [float(rng.choice((1000, 2000, 3000))) for _ in range(n)]
    elif kind == "small":
        # E / (1 + k): equal L⁺ values with different L are common.
        energies = [float(rng.randint(2, 12)) for _ in range(n)]
        model = EnergyModel(tx=1.0, rx=1.0)
    else:
        energies = [float(rng.choice((1, 2, 3, 5, 8))) for _ in range(n)]
        model = EnergyModel(tx=1.0, rx=6e-17)
    # random_graph keeps drawing until the graph is connected.
    return _energy_network(n, p, energies, seed, energy_model=model)


@given(
    n=st.integers(2, 30),
    p=st.sampled_from((0.15, 0.3, 0.5)),
    kind=st.sampled_from(ENERGY_KINDS),
    seed=st.integers(0, 2**16),
    max_moves=st.one_of(st.integers(0, 12), st.just(100_000)),
)
@settings(max_examples=150, deadline=None)
def test_ascent_matches_reference_on_drawn_inputs(n, p, kind, seed, max_moves):
    """The ascent against the scalar scan on drawn graphs, energies, starts
    and move caps."""
    rng = random.Random(seed)
    net = drawn_energy_network(n, p, kind, rng, seed)
    _assert_ascent_matches_reference(
        _random_spanning_state(net, rng).freeze(), max_moves=max_moves
    )


# ---------------------------------------------------------------------------
# the network's link snapshot
# ---------------------------------------------------------------------------


def _scan_costs(net, parents):
    """``{(child, cand): delta}`` of the bulk cost scan on a fresh state."""
    child, cand, delta = TreeState(
        AggregationTree(net, parents)
    ).reparent_candidates()
    return dict(zip(zip(child.tolist(), cand.tolist()), delta.tolist()))


def _scalar_costs(net, parents):
    return {
        (v, u): net.cost(v, u) - net.cost(v, parents[v])
        for v in parents
        for u in net.neighbors(v)
        if u != parents[v]
    }


def _assert_undirected_view_current(net):
    """The snapshot's undirected view lists ``edges()`` as it is now."""
    links = net.link_arrays()
    edges = list(net.edges())
    assert links.keys == tuple(e.key for e in edges)
    assert links.key_cost.tolist() == [e.cost for e in edges]
    assert links.key_prr.tolist() == [e.prr for e in edges]
    positions = list(range(len(edges)))
    assert net.edge_index(links.keys).tolist() == positions
    assert net.edge_index((v, u) for u, v in links.keys).tolist() == positions
    assert dict(links.index) == {key: i for i, key in enumerate(links.keys)}


def test_link_changes_between_builds_reach_the_bulk_scans():
    """set_prr, add_link and remove_link each drop the snapshot, directed
    rows and undirected view alike."""
    net = random_graph(12, 0.4, seed=51)
    parents = bfs_tree(net).parents
    assert _scan_costs(net, parents) == _scalar_costs(net, parents)
    _assert_undirected_view_current(net)

    off_tree = next(
        (v, u)
        for v in parents
        for u in net.neighbors(v)
        if u != parents[v] and parents.get(u) != v
    )
    net.set_prr(*off_tree, 0.5)
    costs = _scan_costs(net, parents)
    assert costs == _scalar_costs(net, parents)
    assert costs[off_tree] == net.cost(*off_tree) - net.cost(
        off_tree[0], parents[off_tree[0]]
    )
    _assert_undirected_view_current(net)

    missing = next(
        (v, u)
        for v in parents
        for u in range(net.n)
        if u != v and not net.has_edge(v, u)
    )
    net.add_link(*missing, 0.7)
    assert missing in _scan_costs(net, parents)
    assert _scan_costs(net, parents) == _scalar_costs(net, parents)
    _assert_undirected_view_current(net)

    net.remove_link(*off_tree)
    costs = _scan_costs(net, parents)
    assert off_tree not in costs
    assert costs == _scalar_costs(net, parents)
    _assert_undirected_view_current(net)
    with pytest.raises(KeyError):
        net.edge_index([off_tree])


def test_link_snapshot_is_shared_read_only_and_not_pickled():
    net = random_graph(10, 0.5, seed=52)
    blank = pickle.dumps(net)
    links = net.link_arrays()
    assert net.link_arrays() is links  # one snapshot per link set
    arrays = [part for part in links if isinstance(part, np.ndarray)]
    assert len(arrays) == len(links) - 2  # all but the keys and their index
    assert all(not array.flags.writeable for array in arrays)
    assert isinstance(links.keys, tuple)
    _assert_undirected_view_current(net)
    for u, v in ((3, 3), (0, net.n), (-1, 1)):  # a self-loop, out of range
        with pytest.raises(KeyError):
            net.edge_index([(u, v)])
    with pytest.raises(TypeError):
        links.index[(0, 1)] = 0  # the snapshot is read-only
    assert pickle.dumps(net) == blank  # the snapshot stays out of pickles
    for clone in (
        pickle.loads(blank),
        copy.copy(net),
        copy.deepcopy(net),
        net.copy(),
    ):
        rebuilt = clone.link_arrays()
        assert rebuilt is not links
        for a, b in zip(rebuilt, links):
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)
            else:
                assert a == b
