"""Interprocedural rules REP108–REP110: positive and negative fixtures.

Every rule gets at least one fixture that must fire and one that must
stay silent — the silent cases encode the sanctioned patterns
(``run_in_executor`` offloading, monotonic counters, ``spawn_rngs``
handoff, duck-typed private fast paths).
"""

from __future__ import annotations

from tests.lint_utils import lint_sources, rule_ids


class TestRep108AsyncBlocking:
    def test_direct_blocking_call_in_async_def_fires(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "repro/mod.py": (
                "import time\n"
                "async def handler():\n"
                "    time.sleep(1)\n"
            ),
        }, select=["REP108"])
        assert set(rule_ids(findings)) == {"REP108"}
        assert "time.sleep" in findings[0].message

    def test_blocking_reachable_through_sync_helper_fires(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "repro/mod.py": (
                "import time\n"
                "def settle():\n"
                "    time.sleep(0.1)\n"
                "async def handler():\n"
                "    settle()\n"
            ),
        }, select=["REP108"])
        assert set(rule_ids(findings)) == {"REP108"}
        # The message carries the witness chain so the fix is obvious.
        assert "settle" in findings[0].message

    def test_sync_function_blocking_is_fine(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "repro/mod.py": (
                "import time\n"
                "def worker():\n"
                "    time.sleep(1)\n"
            ),
        }, select=["REP108"])
        assert findings == []

    def test_run_in_executor_offload_is_sanctioned(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "repro/mod.py": (
                "import time\n"
                "def blocking_io():\n"
                "    time.sleep(1)\n"
                "async def handler(loop):\n"
                "    await loop.run_in_executor(None, blocking_io)\n"
            ),
        }, select=["REP108"])
        assert findings == []

    def test_awaiting_async_callee_that_blocks_flags_callee_only(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "repro/mod.py": (
                "import time\n"
                "async def bad():\n"
                "    time.sleep(1)\n"
                "async def caller():\n"
                "    await bad()\n"
            ),
        }, select=["REP108"])
        assert len(findings) == 1
        assert findings[0].line == 3


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
        }, select=["REP109"])
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
        }, select=["REP109"])
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
        }, select=["REP109"])
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
        }, select=["REP109"])
        assert findings == []


class TestRep110RngBoundary:
    def test_live_rng_argument_across_submit_fires(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "repro/mod.py": (
                "def task(r, n):\n"
                "    pass\n"
                "def run(pool, rng):\n"
                "    pool.submit(task, rng, 4)\n"
            ),
        }, select=["REP110"])
        assert set(rule_ids(findings)) == {"REP110"}
        assert "spawn_rngs" in findings[0].message

    def test_lambda_closing_over_rng_fires(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "repro/mod.py": (
                "async def run(loop, rng):\n"
                "    await loop.run_in_executor(None, lambda: rng.random())\n"
            ),
        }, select=["REP110"])
        assert set(rule_ids(findings)) == {"REP110"}

    def test_named_function_capturing_rng_fires(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "repro/mod.py": (
                "def run(executor, rng):\n"
                "    def job():\n"
                "        return rng.random()\n"
                "    executor.submit(job)\n"
            ),
        }, select=["REP110"])
        assert set(rule_ids(findings)) == {"REP110"}

    def test_seed_handoff_is_sanctioned(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "repro/mod.py": (
                "def task(seed):\n"
                "    pass\n"
                "def run(pool, seeds):\n"
                "    for seed in seeds:\n"
                "        pool.submit(task, seed)\n"
            ),
        }, select=["REP110"])
        assert findings == []

    def test_spawn_rngs_result_is_sanctioned(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "repro/mod.py": (
                "from repro.core.rng import spawn_rngs\n"
                "def task(stream):\n"
                "    pass\n"
                "def run(pool, rng):\n"
                "    pool.submit(task, spawn_rngs(rng, 1)[0])\n"
            ),
        }, select=["REP110"])
        assert findings == []


class TestSuppression:
    def test_inline_ignore_silences_interprocedural_finding(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "repro/mod.py": (
                "import time\n"
                "async def handler():\n"
                "    time.sleep(0.001)  # repro: ignore[REP108] startup settle\n"
            ),
        }, select=["REP108"])
        assert findings == []
