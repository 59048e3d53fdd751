"""Shared fixtures for the test suite.

Expensive fixtures (the DFL instance, its AAML baseline) are session-scoped
and treated as read-only by tests; anything that mutates a network builds
its own copy.

Every test runs under :func:`asyncio_stall_guard`: each ``asyncio.run``
gets a debug-mode loop, and a callback or task step that holds the loop
for :data:`STALL_THRESHOLD_S` or longer fails the test.  That is how the
suite keeps blocking calls (``time.sleep``, sync socket or file IO) out of
the serve plane's coroutines, however many sync helpers deep they sit.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, List

import pytest

from repro.baselines import build_aaml_tree
from repro.network import Network, dfl_network, random_graph

#: A loop callback or task step running this long (seconds) is a stall.
STALL_THRESHOLD_S = 0.5


class _StallLog(logging.Handler):
    """Collects asyncio's debug-mode ``Executing <handle> took N seconds``."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.stalls: List[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if message.startswith("Executing ") and " took " in message:
            self.stalls.append(message)

    def check(self) -> None:
        """Fail the running test if the event loop stalled since last check."""
        stalls, self.stalls = self.stalls, []
        if stalls:
            pytest.fail(
                f"event loop blocked for >= {STALL_THRESHOLD_S} s; move the "
                "blocking call behind run_in_executor or use its async "
                "equivalent:\n" + "\n".join(stalls),
                pytrace=False,
            )


class _DebugLoopPolicy(asyncio.DefaultEventLoopPolicy):
    """New loops run in debug mode with the stall threshold as their limit."""

    def new_event_loop(self) -> asyncio.AbstractEventLoop:
        loop = super().new_event_loop()
        loop.set_debug(True)
        loop.slow_callback_duration = STALL_THRESHOLD_S
        return loop


@pytest.fixture(autouse=True)
def asyncio_stall_guard(monkeypatch):
    """Run every ``asyncio.run`` in debug mode; fail the test on a stall."""
    real_run = asyncio.run

    def debug_run(main: Any, *, debug: Any = None, **kwargs: Any) -> Any:
        return real_run(main, debug=True, **kwargs)

    log = _StallLog()
    logger = logging.getLogger("asyncio")
    policy = asyncio.get_event_loop_policy()
    asyncio.set_event_loop_policy(_DebugLoopPolicy())
    monkeypatch.setattr(asyncio, "run", debug_run)
    logger.addHandler(log)
    try:
        yield log
    finally:
        logger.removeHandler(log)
        asyncio.set_event_loop_policy(policy)
    log.check()


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
