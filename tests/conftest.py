"""Shared fixtures for the test suite.

Expensive fixtures (the DFL instance, its AAML baseline) are session-scoped
and treated as read-only by tests; anything that mutates a network builds
its own copy.
"""

from __future__ import annotations

import pytest

from repro.baselines import build_aaml_tree
from repro.network import Network, dfl_network, random_graph



@pytest.fixture(params=["object", "numpy"])
def retired_engine_setting(request, monkeypatch):
    """Run a test under each value ``REPRO_ENGINE_BACKEND`` used to accept.

    ``TreeState`` is the only tree engine and reads no engine setting, so
    the engine suites must pass unchanged in an environment that still
    exports the retired variable, whichever value it holds.
    """
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", request.param)
    return request.param

@pytest.fixture
def tiny_network() -> Network:
    """5-node network with a known structure and hand-picked PRRs.

    Topology (sink = 0)::

        0 --1.0-- 1 --0.9-- 3
        0 --0.8-- 2 --0.7-- 4
        1 --0.6-- 2,  3 --0.5-- 4
    """
    net = Network(5)
    net.add_link(0, 1, 1.0)
    net.add_link(0, 2, 0.8)
    net.add_link(1, 3, 0.9)
    net.add_link(2, 4, 0.7)
    net.add_link(1, 2, 0.6)
    net.add_link(3, 4, 0.5)
    return net


@pytest.fixture
def toy_fig4_network() -> Network:
    """The 6-node network of the paper's Fig. 4 toy example."""
    net = Network(6)
    net.add_link(1, 4, 0.8)
    net.add_link(2, 4, 0.5)
    net.add_link(2, 5, 0.9)
    net.add_link(3, 5, 0.9)
    net.add_link(4, 0, 1.0)
    net.add_link(5, 0, 1.0)
    return net


@pytest.fixture
def path_network() -> Network:
    """4-node path 0-1-2-3 (unique spanning tree)."""
    net = Network(4)
    net.add_link(0, 1, 0.9)
    net.add_link(1, 2, 0.8)
    net.add_link(2, 3, 0.7)
    return net


@pytest.fixture(scope="session")
def dfl() -> Network:
    """The canonical DFL instance (session-scoped; do not mutate)."""
    return dfl_network()


@pytest.fixture(scope="session")
def dfl_aaml(dfl):
    """AAML result on the 0.95-filtered DFL instance (read-only)."""
    return build_aaml_tree(dfl.filtered(0.95))


@pytest.fixture
def small_random_network() -> Network:
    """A fixed 10-node random graph used across algorithm tests."""
    return random_graph(10, 0.6, seed=321)
