"""RaSMaLai and CLMT against their historical scalar loops.

``repro.engine.bench`` keeps the loops the two builders had before they
moved onto plain lists (``_reference_rasmalai``, ``_reference_clmt``).  The
builders must make the same trees with the same counters on every input:
the RNG draws of RaSMaLai and the greedy order of CLMT included.  Inputs
use the lifetime-ascent tests' energy kinds (uniform, 0 J nodes, tied,
flat rounding, small integers).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.random_tree import build_random_tree
from repro.baselines.rasmalai import build_rasmalai_tree
from repro.baselines.virmani import build_clmt_tree
from repro.core.errors import DisconnectedNetworkError
from repro.engine.bench import _reference_clmt, _reference_rasmalai
from repro.network.model import Network
from repro.network.topology import random_graph
from tests.test_engine_treestate import ENERGY_KINDS, drawn_energy_network


@given(
    n=st.integers(2, 30),
    p=st.sampled_from((0.15, 0.3, 0.5)),
    kind=st.sampled_from(ENERGY_KINDS),
    seed=st.integers(0, 2**16),
    start=st.sampled_from(("bfs", "random")),
    patience=st.sampled_from((1, 20, 200)),
    max_switches=st.sampled_from((0, 3, 10_000)),
)
@settings(max_examples=150, deadline=None)
def test_rasmalai_matches_reference(n, p, kind, seed, start, patience, max_switches):
    net = drawn_energy_network(n, p, kind, random.Random(seed), seed)
    initial = build_random_tree(net, seed=seed + 1) if start == "random" else None
    kwargs = dict(
        initial_tree=initial, patience=patience, max_switches=max_switches
    )
    got = build_rasmalai_tree(net, seed=seed, **kwargs)
    want = _reference_rasmalai(net, seed=seed, **kwargs)
    assert got.tree.parents == want.tree.parents
    assert (got.switches, got.attempts) == (want.switches, want.attempts)
    assert got.lifetime.hex() == want.lifetime.hex()


@given(
    n=st.integers(2, 30),
    p=st.sampled_from((0.15, 0.3, 0.5)),
    kind=st.sampled_from(ENERGY_KINDS),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_clmt_matches_reference(n, p, kind, seed):
    net = drawn_energy_network(n, p, kind, random.Random(seed), seed)
    got = build_clmt_tree(net)
    want = _reference_clmt(net)
    assert got.tree.parents == want.tree.parents
    assert got.attachments == want.attachments
    assert got.lifetime.hex() == want.lifetime.hex()


@pytest.mark.parametrize("seed", range(5))
def test_rasmalai_switches_on_serve_size_graphs(seed):
    """At G(30, 8/30) the loop switches often, so the trial moves and their
    undos both run."""
    net = random_graph(30, 8 / 30, seed=seed)
    got = build_rasmalai_tree(net, seed=seed)
    want = _reference_rasmalai(net, seed=seed)
    assert got.switches > 0 and got.attempts > got.switches
    assert got.tree.parents == want.tree.parents
    assert (got.switches, got.attempts) == (want.switches, want.attempts)


def test_clmt_refuses_a_disconnected_network_like_the_reference():
    net = Network(5)
    net.add_link(0, 1, 0.9)
    net.add_link(1, 2, 0.8)
    net.add_link(3, 4, 0.7)
    with pytest.raises(DisconnectedNetworkError) as got:
        build_clmt_tree(net)
    with pytest.raises(DisconnectedNetworkError) as want:
        _reference_clmt(net)
    assert str(got.value) == str(want.value) == "only 3 of 5 nodes reach the sink"
