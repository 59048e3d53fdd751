"""Cache correctness for the serving layer.

The load-bearing guarantee: a served-from-cache response is **bitwise
identical** to a cold build — same parents, same exact metric floats — for
every builder in the registry.  That only holds because builders are pure
functions of ``(network, params)``; these tests pin it per builder,
plus the key/fingerprint plumbing that makes the content addressing work.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict

import pytest

from repro.core.local_search import bfs_tree
from repro.engine import available_builders, build_tree, get_builder
from repro.network.topology import random_graph
from repro.serve import (
    BuildRequest,
    ResultCache,
    ServeError,
    StructureCache,
    TreeServer,
    canonical_params_json,
    make_response,
    request_key,
)
from repro.serve.bench import _content_signature


def _request_config(builder: str, net, seed: int) -> Dict[str, Any]:
    """Params that make *builder* feasible on *net*."""
    knobs = get_builder(builder).knobs
    params: Dict[str, Any] = {}
    if "lc" in knobs:
        params["lc"] = 0.5 * bfs_tree(net).lifetime()
    if "seed" in knobs:
        params["seed"] = seed
    if "max_depth" in knobs:
        seed_tree = bfs_tree(net)
        params["max_depth"] = max(seed_tree.depth(v) for v in range(net.n))
    return params


def _submit_twice(request: BuildRequest):
    async def run():
        async with TreeServer() as server:
            first = await server.submit(request)
            second = await server.submit(request)
            return first, second

    return asyncio.run(run())


class TestServedEqualsCold:
    @pytest.mark.parametrize("builder", available_builders())
    def test_cache_hit_bitwise_identical_to_cold_build(self, builder):
        # n=10 keeps the exact MILP affordable while exercising real trees.
        net = random_graph(10, 0.6, seed=101)
        params = _request_config(builder, net, seed=5)
        request = BuildRequest(builder=builder, network=net, params=params)
        first, second = _submit_twice(request)

        assert not first.cache_info.hit and first.cache_info.source == "built"
        assert second.cache_info.hit and second.cache_info.source == "result"
        assert second.cache_info.key == first.cache_info.key
        # Full signature includes elapsed_s: the cached response is cut
        # from the very same stored body, so even that matches.
        assert second.signature() == first.signature()
        assert second.tree.parents == first.tree.parents

        # And both match an offline cold rebuild bitwise (modulo wall time).
        cold = build_tree(builder, net, **params)
        cold_response = make_response(
            cold,
            first.cache_info.fingerprint,
            first.cache_info.key,
            hit=False,
            source="built",
        )
        assert _content_signature(second) == _content_signature(cold_response)

    def test_equal_topologies_share_cache_entries(self):
        # Distinct-but-equal Network objects land on one fingerprint/key.
        net_a = random_graph(12, 0.5, seed=7)
        net_b = random_graph(12, 0.5, seed=7)
        assert net_a is not net_b

        async def run():
            async with TreeServer() as server:
                first = await server.submit(BuildRequest("mst", network=net_a))
                second = await server.submit(BuildRequest("mst", network=net_b))
                return first, second, server.stats()

        first, second, stats = asyncio.run(run())
        assert first.cache_info.fingerprint == second.cache_info.fingerprint
        assert second.cache_info.hit
        assert stats["built"] == 1

    def test_params_spelling_never_splits_cache_slots(self):
        import numpy as np

        net = random_graph(10, 0.6, seed=11)
        lc = 0.5 * bfs_tree(net).lifetime()

        async def run():
            async with TreeServer() as server:
                as_float = await server.submit(
                    BuildRequest("portfolio", network=net, params={"lc": lc, "seed": 3})
                )
                as_numpy = await server.submit(
                    BuildRequest(
                        "portfolio",
                        network=net,
                        params={"seed": np.int64(3), "lc": np.float64(lc)},
                    )
                )
                return as_float, as_numpy

        as_float, as_numpy = asyncio.run(run())
        assert as_float.cache_info.key == as_numpy.cache_info.key
        assert as_numpy.cache_info.hit


class TestRequestModel:
    def test_needs_network_or_fingerprint(self):
        with pytest.raises(ServeError, match="network or a fingerprint"):
            BuildRequest("mst")

    def test_lc_on_lc_free_builder_is_refused(self):
        net = random_graph(8, 0.7, seed=1)
        with pytest.raises(ServeError, match="unexpected keyword argument 'lc'"):
            _submit_twice(BuildRequest("mst", network=net, params={"lc": 10.0}))

    def test_seed_on_deterministic_builder_is_refused(self):
        net = random_graph(8, 0.7, seed=1)
        with pytest.raises(ServeError, match="unexpected keyword argument 'seed'"):
            _submit_twice(BuildRequest("mst", network=net, params={"seed": 3}))

    def test_conflicting_lc_spellings_are_refused(self):
        from repro.serve.protocol import decode_build_request

        doc = {"builder": "ira", "fingerprint": "f" * 64, "params": {"lc": 5.0}}
        with pytest.raises(ServeError, match="params\\['lc'\\]"):
            decode_build_request({**doc, "lc": 6.0})
        with pytest.raises(ServeError, match="params\\['seed'\\]"):
            decode_build_request({**doc, "builder": "random_tree", "seed": 6})

    def test_canonical_params_json_is_order_and_dtype_stable(self):
        import numpy as np

        a = canonical_params_json({"lc": 5.0, "inflation": "auto"})
        b = canonical_params_json(
            {"inflation": "auto", "lc": np.float64(5.0)}
        )
        assert a == b
        assert canonical_params_json({"seed": np.int64(3)}) == (
            canonical_params_json({"seed": 3})
        )

    def test_request_key_separates_builders_and_params(self):
        keys = {
            request_key("f" * 64, "mst", {}),
            request_key("f" * 64, "spt", {}),
            request_key("f" * 64, "random_tree", {"seed": 1}),
            request_key("f" * 64, "random_tree", {"seed": 2}),
            request_key("e" * 64, "spt", {}),
        }
        assert len(keys) == 5


class TestResultCacheLRU:
    def test_eviction_is_least_recent(self):
        net = random_graph(8, 0.7, seed=2)
        result = build_tree("mst", net)
        cache = ResultCache(capacity=2)
        cache.put("a", result)
        cache.put("b", result)
        assert cache.get("a") is result  # refresh 'a'
        cache.put("c", result)  # evicts 'b'
        assert cache.get("b") is None
        assert cache.get("a") is result
        assert cache.get("c") is result
        assert cache.evictions == 1

    def test_hit_rate_tracks_lookups(self):
        net = random_graph(8, 0.7, seed=2)
        cache = ResultCache(capacity=4)
        assert cache.hit_rate == 0.0
        cache.put("a", build_tree("mst", net))
        cache.get("a")
        cache.get("missing")
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            StructureCache(capacity=0)


class TestStructureCache:
    def test_fingerprint_memoized_per_object(self):
        cache = StructureCache()
        net = random_graph(10, 0.5, seed=3)
        first = cache.fingerprint_of(net)
        second = cache.fingerprint_of(net)
        assert first == second

    def test_warm_structures_are_shared_and_memoize_cut_tree(self):
        cache = StructureCache()
        net = random_graph(10, 0.5, seed=4)
        fingerprint = cache.fingerprint_of(net)
        warm_a = cache.get_or_create(fingerprint, net)
        warm_b = cache.get_or_create(fingerprint, None)
        assert warm_a is warm_b

        tree_first = warm_a.cut_tree()
        value = warm_a.min_cut(3)
        assert warm_a.cut_tree() is tree_first  # built once
        assert value > 0  # connected graph: positive sink cut
        assert warm_a.cut_queries == 1

    def test_payload_pickles_once_and_round_trips(self):
        import pickle

        cache = StructureCache()
        net = random_graph(10, 0.5, seed=5)
        warm = cache.get_or_create(cache.fingerprint_of(net), net)
        payload = warm.payload()
        assert warm.payload() is payload  # memoized bytes
        clone = pickle.loads(payload)
        assert cache.fingerprint_of(clone) == warm.fingerprint

    def test_unknown_fingerprint_without_network_raises(self):
        from repro.serve import UnknownTopologyError

        cache = StructureCache()
        with pytest.raises(UnknownTopologyError):
            cache.get_or_create("0" * 64, None)


class TestCacheMetaSurvives:
    def test_meta_survives_inline_cache(self):
        net = random_graph(10, 0.6, seed=12)
        lc = 0.5 * bfs_tree(net).lifetime()
        first, second = _submit_twice(
            BuildRequest("ira", network=net, params={"lc": lc})
        )
        assert first.metrics["iterations"] >= 1
        assert second.metrics["iterations"] == first.metrics["iterations"]
        assert isinstance(first.metrics["lifetime"], float)

    def test_build_result_identity_on_hit(self):
        # Every response is cut from the one stored body, which holds the
        # built tree itself (immutable trees make that safe).
        net = random_graph(9, 0.6, seed=13)

        async def run():
            async with TreeServer() as server:
                first = await server.submit(BuildRequest("spt", network=net))
                second = await server.submit(BuildRequest("spt", network=net))
                return first, second

        first, second = asyncio.run(run())
        assert second.tree is first.tree
