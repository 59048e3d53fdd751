"""The one remote-build path (repro.engine.pool) seen from every caller."""

from __future__ import annotations

import asyncio
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.engine.registry as registry_module
from repro.engine import race_builders, tree_builder
from repro.engine.pool import kill_pool
from repro.network.topology import random_graph
from repro.serve.cache import WarmStructures
from repro.serve.workers import WorkerPool, WorkItem


@pytest.fixture
def silent_failure():
    """A registered builder whose exception has an empty message."""

    @tree_builder("_pool_silent", knobs={})
    def _silent(network):
        raise ValueError()

    yield "_pool_silent"
    registry_module._REGISTRY.pop("_pool_silent", None)


def _error_texts(builder, params):
    """The error each caller reports for one failing build, keyed by caller."""
    net = random_graph(8, 0.6, seed=4)
    warm = WarmStructures("fp", net)
    item = WorkItem(key="k", builder=builder, params=params)
    texts = {}
    (shard,) = asyncio.run(WorkerPool("inline").run_shard(warm, [item]))
    texts["inline"] = shard.error
    with WorkerPool("process", n_workers=1) as pool:
        (shard,) = asyncio.run(pool.run_shard(warm, [item]))
    texts["process"] = shard.error
    for label, kwargs in (("serial race", {"parallel": False}), ("race", {"n_jobs": 1})):
        (outcome,) = race_builders(
            net, (builder,), member_params={builder: params}, **kwargs
        )
        assert outcome.status == "error"
        texts[label] = outcome.error
    return texts


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="temp-registered test builders reach workers only via fork",
)
def test_empty_message_error_reads_the_same_in_every_caller(silent_failure):
    texts = _error_texts(silent_failure, {})
    assert set(texts.values()) == {"ValueError: "}, texts


def test_builder_error_reads_the_same_in_every_caller():
    # delay_bounded needs max_depth: every caller reports the same TypeError.
    texts = _error_texts("delay_bounded", {})
    (text,) = set(texts.values())
    assert text.startswith("TypeError: ") and "max_depth" in text


def _identity(x):
    return x


def test_kill_pool_returns_only_after_every_worker_is_reaped():
    # The executor's manager thread can win the waitpid race against
    # kill_pool's join.  Returning right after a lost join left a dead worker
    # in active_children() on about 4% of these kills, so 100 kills catch it.
    for _ in range(100):
        pool = ProcessPoolExecutor(max_workers=2)
        assert list(pool.map(_identity, range(4))) == [0, 1, 2, 3]
        pids = set(pool._processes)
        kill_pool(pool)
        assert not {p.pid for p in multiprocessing.active_children()} & pids
