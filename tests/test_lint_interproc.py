"""The interprocedural contracts REP108–REP110: positive and negative fixtures.

REP109 (await-point races) is still a lint rule.  REP108 and REP110 are
runtime checks now, and their fixtures run against those checks:

* REP108 (an ``async def`` must not block the loop) is the suite-wide
  stall guard in ``tests/conftest.py``: every ``asyncio.run`` gets a
  debug-mode loop, and a step holding it for ``STALL_THRESHOLD_S`` fails
  the test.  The blocking fixtures hold it for 1 s, twice the threshold.
* REP110 (no live ``Generator`` crosses a process boundary) is
  :func:`repro.utils.rng.reject_generators`, called by ``parallel_map``,
  ``race_builders`` and ``WorkerPool("process").run_shard``.  The
  accepting fixtures run each boundary on real process pools at tiny
  sizes.

Every contract keeps at least one fixture that must fire and one that
must stay silent — the silent cases encode the sanctioned patterns
(``run_in_executor`` offloading, ``asyncio.sleep``, monotonic counters,
integer seeds, ``spawn_rngs`` handoff).
"""

from __future__ import annotations

import asyncio
import time
from functools import partial

import pytest

from repro.engine import race_builders
from repro.experiments.parallel import parallel_map
from repro.network.topology import random_graph
from repro.serve.cache import WarmStructures
from repro.serve.workers import WorkerPool, WorkItem
from repro.utils.rng import as_rng, spawn_rngs

from tests.lint_utils import lint_sources, rule_ids

#: Long enough to cross the stall threshold with a 2x margin.
BLOCK_S = 1.0


def _task(i, seed):
    return int(as_rng(seed).integers(0, 100)) + i


def _boundaries(func, params):
    """Hand the same work to each process boundary; yields ``(name, thunk)``."""
    net = random_graph(6, 0.8, seed=1)
    yield "parallel_map", lambda: parallel_map(func, 2, n_jobs=2)

    def race():
        (outcome,) = race_builders(
            net, ("random_tree",), member_params={"random_tree": params}, n_jobs=1
        )
        return outcome.status, outcome.error

    yield "race_builders", race

    def run_shard():
        item = WorkItem(builder="random_tree", params=params)
        with WorkerPool("process", n_workers=1) as pool:
            (outcome,) = asyncio.run(pool.run_shard(WarmStructures("fp", net), [item]))
        return outcome.result is not None, outcome.error

    yield "WorkerPool.run_shard", run_shard


def _assert_every_boundary_rejects(func, params):
    for name, thunk in _boundaries(func, params):
        with pytest.raises(ValueError, match="Generator cannot cross"):
            thunk()
            pytest.fail(f"{name} accepted a live Generator")


def _assert_every_boundary_accepts(func, params):
    """Same boundaries, same work: each runs it in a worker process."""
    results = dict(_boundaries(func, params))
    assert len(results["parallel_map"]()) == 2
    assert results["race_builders"]() == ("ok", None)
    assert results["WorkerPool.run_shard"]() == (True, None)


class TestRep108AsyncBlocking:
    def test_direct_blocking_call_in_async_def_fires(self, asyncio_stall_guard):
        async def handler():
            time.sleep(BLOCK_S)

        asyncio.run(handler())
        assert len(asyncio_stall_guard.stalls) == 1
        assert "handler()" in asyncio_stall_guard.stalls[0]
        with pytest.raises(pytest.fail.Exception, match="event loop blocked"):
            asyncio_stall_guard.check()

    def test_blocking_reachable_through_sync_helper_fires(
        self, asyncio_stall_guard
    ):
        def settle():
            time.sleep(BLOCK_S)

        async def handler():
            settle()

        asyncio.run(handler())
        with pytest.raises(pytest.fail.Exception, match="run_in_executor"):
            asyncio_stall_guard.check()

    def test_sync_function_blocking_is_fine(self, asyncio_stall_guard):
        def worker():
            time.sleep(BLOCK_S)

        worker()  # no event loop is running, so nothing stalls
        assert asyncio_stall_guard.stalls == []

    def test_run_in_executor_offload_is_sanctioned(self, asyncio_stall_guard):
        def blocking_io():
            time.sleep(BLOCK_S)

        async def handler():
            loop = asyncio.get_running_loop()
            await asyncio.gather(
                loop.run_in_executor(None, blocking_io),
                asyncio.sleep(BLOCK_S),
            )

        asyncio.run(handler())
        assert asyncio_stall_guard.stalls == []

    def test_awaiting_async_callee_that_blocks_flags_callee_only(
        self, asyncio_stall_guard
    ):
        # The blocking step is reported once, not once per awaiting frame.
        async def bad():
            time.sleep(BLOCK_S)

        async def caller():
            await bad()

        asyncio.run(caller())
        assert len(asyncio_stall_guard.stalls) == 1
        asyncio_stall_guard.stalls.clear()


class TestRep109AwaitRaces:
    def test_read_modify_write_across_await_fires(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "repro/mod.py": (
                "class Server:\n"
                "    async def handle(self):\n"
                "        pending = self.count\n"
                "        await self.flush()\n"
                "        self.count = pending + 1\n"
                "    async def flush(self):\n"
                "        pass\n"
            ),
        })
        assert set(rule_ids(findings)) == {"REP109"}
        assert "count" in findings[0].message

    def test_augassign_with_awaited_value_fires(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "repro/mod.py": (
                "class Server:\n"
                "    async def handle(self):\n"
                "        self.total += await self.compute()\n"
                "    async def compute(self):\n"
                "        return 1\n"
            ),
        })
        assert set(rule_ids(findings)) == {"REP109"}

    def test_monotonic_counter_after_await_is_fine(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "repro/mod.py": (
                "class Server:\n"
                "    async def handle(self):\n"
                "        await self.flush()\n"
                "        self.count += 1\n"
                "    async def flush(self):\n"
                "        pass\n"
            ),
        })
        assert findings == []

    def test_reread_after_await_is_fine(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "repro/mod.py": (
                "class Server:\n"
                "    async def handle(self):\n"
                "        stale = self.count\n"
                "        await self.flush()\n"
                "        fresh = self.count\n"
                "        self.count = fresh + 1\n"
                "    async def flush(self):\n"
                "        pass\n"
            ),
        })
        assert findings == []


class TestRep110RngBoundary:
    def test_live_rng_argument_across_submit_fires(self):
        rng = as_rng(0)
        _assert_every_boundary_rejects(partial(_task, seed=rng), {"seed": rng})

    def test_lambda_closing_over_rng_fires(self):
        rng = as_rng(0)
        _assert_every_boundary_rejects(
            lambda i: rng.random(), {"draw": lambda: rng.random()}
        )

    def test_named_function_capturing_rng_fires(self):
        rng = as_rng(0)

        def job(i):
            return rng.random() + job_count(i)

        def job_count(i):  # a closure that refers to itself terminates
            return 0 if i <= 0 else job_count(i - 1)

        _assert_every_boundary_rejects(job, {"draw": job})

    def test_seed_handoff_is_sanctioned(self):
        _assert_every_boundary_accepts(partial(_task, seed=7), {"seed": 7})

    def test_spawn_rngs_result_is_sanctioned(self):
        rng = as_rng(0)
        task_stream, build_stream = spawn_rngs(rng, 2)
        _assert_every_boundary_accepts(
            partial(_task, seed=task_stream), {"seed": build_stream}
        )
