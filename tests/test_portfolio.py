"""Tests for the portfolio meta-builder (repro.engine.portfolio)."""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import threading
import time

import pytest

import repro.engine.pool as pool_module
import repro.engine.registry as registry_module
from repro.engine.bench_portfolio import PORTFOLIO_BENCH, run_portfolio_bench
from repro.engine.portfolio import (
    DEFAULT_MEMBERS,
    MemberOutcome,
    PortfolioError,
    build_portfolio_tree,
    member_configs,
    race_builders,
    select_winner,
)
from repro.engine.registry import build_tree, tree_builder
from repro.network.topology import random_graph
from repro.obs import instrument
from repro.obs.benchdiff import append_trajectory
from repro.utils.rng import as_rng

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="temp-registered test builders reach workers only via fork",
)


@pytest.fixture
def net():
    return random_graph(16, 0.5, seed=21)


@pytest.fixture
def crashing_builder():
    """A registered builder that always raises (cleaned up after the test)."""

    @tree_builder("_pf_crasher", knobs={})
    def _crasher(network):
        raise RuntimeError("portfolio test crash")

    yield "_pf_crasher"
    registry_module._REGISTRY.pop("_pf_crasher", None)


@pytest.fixture
def sleeping_builder():
    """A registered builder that sleeps far past any test budget."""

    @tree_builder("_pf_sleeper", knobs={})
    def _sleeper(network):
        time.sleep(8)
        from repro.core.local_search import bfs_tree

        return bfs_tree(network)

    yield "_pf_sleeper"
    registry_module._REGISTRY.pop("_pf_sleeper", None)


class TestMemberConfigs:
    def test_lc_and_seed_merge_only_into_declared_knobs(self):
        configs = member_configs(
            ("local_search", "mst", "rasmalai"), lc=100.0, seed=5
        )
        assert configs[0]["lc"] == 100.0  # local_search declares lc
        assert configs[1] == {}  # mst declares neither
        assert "seed" in configs[2] and "lc" not in configs[2]

    def test_member_seeds_are_order_independent(self):
        a = member_configs(("rasmalai", "random_tree"), seed=5)
        b = member_configs(("random_tree", "rasmalai"), seed=5)
        assert a[0]["seed"] == b[1]["seed"]
        assert a[1]["seed"] == b[0]["seed"]

    def test_explicit_params_win_over_sugar(self):
        configs = member_configs(
            ("local_search",), lc=100.0, member_params={"local_search": {"lc": 7.0}}
        )
        assert configs[0]["lc"] == 7.0

    def test_rejects_duplicates_empty_and_unknown_overrides(self):
        with pytest.raises(ValueError, match="duplicate"):
            member_configs(("mst", "mst"))
        with pytest.raises(ValueError, match="at least one member"):
            member_configs(())
        with pytest.raises(ValueError, match="non-members"):
            member_configs(("mst",), member_params={"spt": {}})

    def test_unknown_member_fails_fast(self):
        from repro.engine.registry import UnknownBuilderError

        with pytest.raises(UnknownBuilderError):
            member_configs(("mst", "nope"))


class TestSerialRace:
    def test_outcomes_in_member_order_with_metrics(self, net):
        members = ("mst", "bfs", "clmt")
        outcomes = race_builders(net, members)
        assert [o.member for o in outcomes] == list(members)
        for o in outcomes:
            assert o.status == "ok"
            assert o.tree is not None
            assert o.cost == pytest.approx(o.tree.cost())
            assert o.feasible  # no lc bound -> always feasible

    def test_feasibility_judged_against_lc(self, net):
        lc = build_tree("aaml", net).lifetime  # the max: only specialists pass
        outcomes = race_builders(net, ("mst", "clmt"), lc=lc)
        by_name = {o.member: o for o in outcomes}
        assert by_name["clmt"].feasible or not by_name["mst"].feasible

    def test_member_error_is_isolated(self, net, crashing_builder):
        outcomes = race_builders(net, ("mst", crashing_builder))
        assert outcomes[0].status == "ok"
        assert outcomes[1].status == "error"
        assert "RuntimeError: portfolio test crash" in outcomes[1].error

    def test_bad_arguments(self, net):
        with pytest.raises(ValueError, match="budget_s"):
            race_builders(net, ("mst",), budget_s=0)
        with pytest.raises(ValueError, match="n_jobs"):
            race_builders(net, ("mst",), n_jobs=0)


class TestProcessBoundary:
    def test_live_generator_in_params_is_rejected_naming_the_member(self, net):
        rng = as_rng(0)
        with pytest.raises(ValueError, match="'random_tree'.*Generator"):
            race_builders(
                net,
                ("mst", "random_tree"),
                member_params={"random_tree": {"rng": rng}},
                n_jobs=2,
            )
        with pytest.raises(ValueError, match="'mst'"):
            race_builders(
                net,
                ("mst",),
                member_params={"mst": {"extra": {"nested": [1, rng]}}},
                n_jobs=1,
            )


class TestSelectWinner:
    def _outcome(self, member, order, **kw):
        defaults = dict(status="ok", elapsed_s=0.0, feasible=True, cost=1.0)
        defaults.update(kw)
        return MemberOutcome(member=member, order=order, **defaults)

    def test_cheapest_feasible_wins(self):
        outcomes = [
            self._outcome("a", 0, cost=2.0),
            self._outcome("b", 1, cost=1.0),
            self._outcome("c", 2, cost=1.5, feasible=False),
        ]
        assert select_winner(outcomes).member == "b"

    def test_member_order_breaks_cost_ties(self):
        outcomes = [
            self._outcome("a", 0, cost=1.0),
            self._outcome("b", 1, cost=1.0),
        ]
        assert select_winner(outcomes).member == "a"
        # ... and order is positional, not alphabetical
        outcomes = [
            self._outcome("b", 0, cost=1.0),
            self._outcome("a", 1, cost=1.0),
        ]
        assert select_winner(outcomes).member == "b"

    def test_infeasible_fallback_maximizes_lifetime(self):
        outcomes = [
            self._outcome("a", 0, feasible=False, cost=1.0, lifetime=10.0),
            self._outcome("b", 1, feasible=False, cost=9.0, lifetime=20.0),
        ]
        assert select_winner(outcomes, lc=100.0).member == "b"

    def test_no_ok_member_raises_with_statuses(self):
        outcomes = [
            MemberOutcome(member="a", order=0, status="error", error="X: y"),
            MemberOutcome(member="b", order=1, status="timeout"),
        ]
        with pytest.raises(PortfolioError, match="a=error.*b=timeout"):
            select_winner(outcomes)


@fork_only
class TestParallelRace:
    def test_crash_and_hang_do_not_lose_other_results(
        self, net, crashing_builder, sleeping_builder
    ):
        start = time.perf_counter()
        outcomes = race_builders(
            net,
            ("mst", crashing_builder, sleeping_builder, "bfs"),
            budget_s=2.0,
        )
        elapsed = time.perf_counter() - start
        by_name = {o.member: o for o in outcomes}
        assert by_name["mst"].status == "ok"
        assert by_name["bfs"].status == "ok"
        assert by_name[crashing_builder].status == "error"
        assert "portfolio test crash" in by_name[crashing_builder].error
        assert by_name[sleeping_builder].status == "timeout"
        # The race returns at the budget, not at the sleeper's leisure.
        assert elapsed < 10.0

    def test_result_identical_to_racing_survivors_alone(
        self, net, crashing_builder, sleeping_builder
    ):
        raced = race_builders(
            net,
            ("mst", crashing_builder, sleeping_builder, "spt"),
            budget_s=2.0,
        )
        survivors = race_builders(net, ("mst", "spt"))
        raced_winner = select_winner(raced)
        solo_winner = select_winner(survivors)
        assert raced_winner.member == solo_winner.member
        assert raced_winner.tree == solo_winner.tree  # bitwise parent equality

    def test_serial_and_parallel_pick_identical_winners(self, net):
        lc = 0.5 * build_tree("aaml", net).lifetime
        members = ("local_search", "clmt", "dlmt", "min_energy")
        serial = race_builders(net, members, lc=lc, seed=3)
        parallel = race_builders(net, members, lc=lc, seed=3, n_jobs=len(members))
        sw, pw = select_winner(serial, lc=lc), select_winner(parallel, lc=lc)
        assert sw.member == pw.member
        assert sw.tree == pw.tree
        # per-member trees match bitwise too, not just the winner
        for s, p in zip(serial, parallel):
            assert s.tree == p.tree


def _new_children(before):
    return [p for p in multiprocessing.active_children() if p.pid not in before]


def _race_in_child(net, queue):
    outcomes = race_builders(net, ("mst", "bfs"), n_jobs=2)
    queue.put(
        (
            [o.status for o in outcomes],
            pool_module._SHARED.pid,
            os.getpid(),
            len(pool_module._INHERITED),
        )
    )


@pytest.fixture
def fresh_pool():
    """Start and end the test without a shared race pool."""
    pool_module.drop_shared_pool()
    before = {p.pid for p in multiprocessing.active_children()}
    yield before
    pool_module.drop_shared_pool()


@fork_only
class TestSharedPool:
    def test_parallel_races_share_one_pool(self, net, fresh_pool):
        pools = set()
        for _ in range(20):
            outcomes = race_builders(net, ("mst", "bfs", "spt"), n_jobs=2)
            assert [o.status for o in outcomes] == ["ok"] * 3
            assert len(_new_children(fresh_pool)) <= 2
            pools.add(id(pool_module._SHARED.executor))
        assert len(pools) == 1

    def test_timed_out_member_does_not_outlive_its_race(
        self, net, sleeping_builder, fresh_pool
    ):
        outcomes = race_builders(net, ("mst", sleeping_builder), budget_s=1.0)
        assert [o.status for o in outcomes] == ["ok", "timeout"]
        assert _new_children(fresh_pool) == []
        outcomes = race_builders(net, ("mst", "bfs"), budget_s=5.0)
        assert [o.status for o in outcomes] == ["ok", "ok"]

    def test_other_threads_race_survives_a_timeout(
        self, net, sleeping_builder, fresh_pool
    ):
        @tree_builder("_pf_slow", knobs={})
        def _slow(network):
            time.sleep(1.5)
            from repro.core.local_search import bfs_tree

            return bfs_tree(network)

        results = {}

        def race(key, members, budget_s):
            results[key] = race_builders(net, members, budget_s=budget_s)

        threads = [
            threading.Thread(
                target=race, args=("timed_out", ("mst", sleeping_builder), 1.0)
            ),
            threading.Thread(target=race, args=("slow", ("mst", "_pf_slow"), 5.0)),
        ]
        try:
            for thread in threads:
                thread.start()
                time.sleep(0.3)  # the first race holds the shared pool
            for thread in threads:
                thread.join()
        finally:
            registry_module._REGISTRY.pop("_pf_slow", None)
        # The timed-out race kills only the pool it raced on.
        assert [o.status for o in results["timed_out"]] == ["ok", "timeout"]
        assert [o.status for o in results["slow"]] == ["ok", "ok"]

    def test_builder_registered_after_the_pool_forked_is_raceable(
        self, net, fresh_pool
    ):
        race_builders(net, ("mst", "bfs"), n_jobs=2)
        forked = pool_module._SHARED.executor

        @tree_builder("_pf_late", knobs={})
        def _late(network):
            from repro.core.local_search import bfs_tree

            return bfs_tree(network)

        try:
            outcomes = race_builders(net, ("mst", "_pf_late"), n_jobs=2)
        finally:
            registry_module._REGISTRY.pop("_pf_late", None)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert pool_module._SHARED.executor is not forked

    def test_forked_child_does_not_reuse_the_parent_pool(self, net, fresh_pool):
        race_builders(net, ("mst", "bfs"), n_jobs=2)
        parent_pool = pool_module._SHARED
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_race_in_child, args=(net, queue))
        child.start()
        try:
            statuses, pool_pid, child_pid, inherited = queue.get(timeout=60)
            # The child's own pool is shut down at its exit; a leftover
            # idle worker would keep this join waiting.
            child.join(timeout=60)
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert statuses == ["ok", "ok"]
        assert pool_pid == child_pid != os.getpid()
        assert inherited == 1
        assert pool_module._SHARED is parent_pool
        outcomes = race_builders(net, ("mst", "bfs"), n_jobs=2)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert pool_module._SHARED is parent_pool


class TestBuildPortfolioTree:
    def test_registered_builder_returns_winner_and_meta(self, net):
        lc = 0.5 * build_tree("aaml", net).lifetime
        result = build_tree(
            "portfolio",
            net,
            lc=lc,
            members=["mst", "clmt", "bfs"],
        )
        meta = result.meta
        assert meta["winner"] in ("mst", "clmt", "bfs")
        assert set(meta["members"]) == {"mst", "clmt", "bfs"}
        for entry in meta["members"].values():
            assert entry["status"] == "ok"
            assert entry["elapsed_s"] >= 0
        winner_entry = meta["members"][meta["winner"]]
        assert winner_entry["feasible"] is True
        assert result.tree.meets_lifetime(lc)

    def test_default_members(self, net):
        tree, meta = build_portfolio_tree(net)
        assert tuple(meta["members"]) == DEFAULT_MEMBERS
        assert tree is not None

    def test_meta_is_json_serializable(self, net):
        result = build_tree("portfolio", net, members=["mst", "bfs"])
        json.dumps(result.meta)  # must not raise

    def test_all_members_failing_raises(self, net, crashing_builder):
        with pytest.raises(PortfolioError, match="portfolio test crash"):
            build_portfolio_tree(net, members=[crashing_builder])


class TestObsCounters:
    def test_counters_recorded_when_instrumented(self, net):
        with instrument(params={"test": "portfolio"}) as session:
            build_portfolio_tree(net, members=["mst", "bfs"])
            snapshot = session.registry.snapshot()
        counters = snapshot["counters"]
        assert counters.get("portfolio.races") == 1
        assert counters.get("portfolio.members{member=mst,status=ok}") == 1
        assert counters.get("portfolio.members{member=bfs,status=ok}") == 1
        assert counters.get("portfolio.wins{member=mst}") == 1
        assert any(
            k.startswith("portfolio.member_seconds") for k in snapshot["histograms"]
        )

    def test_uninstrumented_race_records_nothing(self, net):
        tree, meta = build_portfolio_tree(
            net, members=["mst", "bfs"]
        )  # no instrument(): must not blow up
        assert meta["winner"] == "mst"


class TestServeIntegration:
    def test_portfolio_served_and_cached(self, net):
        from repro.serve.request import BuildRequest
        from repro.serve.server import TreeServer
        from repro.serve.workers import WorkerPool

        async def run():
            async with TreeServer(pool=WorkerPool(mode="inline")) as server:
                first = await server.submit(
                    BuildRequest(
                        builder="portfolio",
                        network=net,
                        params={"lc": 1e6, "members": ["mst", "clmt", "bfs"], "seed": 4},
                    )
                )
                second = await server.submit(
                    BuildRequest(
                        builder="portfolio",
                        network=net,
                        params={"lc": 1e6, "members": ["mst", "clmt", "bfs"], "seed": 4},
                    )
                )
                return first, second

        first, second = asyncio.run(run())
        assert first.cache_info.source == "built"
        assert second.cache_info.hit and second.cache_info.source == "result"
        assert first.signature() == second.signature()
        assert "winner" in first.metrics

    def test_new_baselines_served(self, net):
        from repro.serve.request import BuildRequest
        from repro.serve.server import TreeServer

        async def run():
            async with TreeServer() as server:
                responses = {}
                for name in ("min_energy", "clmt", "dlmt", "convergecast"):
                    responses[name] = await server.submit(
                        BuildRequest(builder=name, network=net)
                    )
                return responses

        responses = asyncio.run(run())
        for name, response in responses.items():
            assert response.builder == name
            assert len(response.tree.edges()) == net.n - 1


def _append(path, report):
    return append_trajectory(
        path, PORTFOLIO_BENCH.format, PORTFOLIO_BENCH.version, report.to_doc()
    )


class TestPortfolioBench:
    def test_report_and_trajectory_roundtrip(self, tmp_path):
        report = run_portfolio_bench(
            n_nodes=12, members=("mst", "bfs"), seed=1
        )
        assert report.winner == "mst"
        assert report.speedup > 0
        assert report.warm_parallel_s > 0 and report.warm_speedup > 0
        assert "portfolio bench" in report.render()
        assert "warm pool" in report.render()

        out = tmp_path / "BENCH_portfolio.json"
        doc = _append(out, report)
        assert doc["format"] == "repro-bench-portfolio"
        assert doc["runs"][0]["winner"] == "mst"
        _append(out, report)
        assert len(json.loads(out.read_text())["runs"]) == 2

    def test_trajectory_rejects_foreign_format(self, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        out.write_text('{"format": "repro-bench-serve", "runs": []}')
        report = run_portfolio_bench(n_nodes=12, members=("mst", "bfs"), seed=1)
        with pytest.raises(ValueError, match="repro-bench-portfolio"):
            _append(out, report)

    def test_bench_diff_knows_portfolio_format(self):
        names = [m.name for m in PORTFOLIO_BENCH.metrics]
        assert "speedup" in names
        assert "warm_speedup" in names


class TestCli:
    def test_bench_portfolio_cli(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_portfolio.json"
        assert main(["bench", "portfolio", "--ci", "--out", str(out)]) == 0
        assert "portfolio bench" in capsys.readouterr().out
        (run,) = json.loads(out.read_text())["runs"]
        assert (run["n_nodes"], run["members"]) == (24, list(DEFAULT_MEMBERS))

    def test_ext_portfolio_in_command_table(self):
        from repro.cli import _COMMANDS

        assert "ext-portfolio" in _COMMANDS
