"""Synthetic client load for the tree server, and its trajectory file.

The driver builds a deterministic workload — ``n_topologies`` seeded
random graphs × one request per builder — and replays it against an
in-process :class:`~repro.serve.server.TreeServer` in two phases:

* **cold**: every unique request once, submitted in bounded-concurrency
  waves (this exercises admission, batching, and sharding);
* **warm**: ``repeats - 1`` more copies of each unique request in a
  seeded shuffle — the repeat-query regime the result cache exists for.

Each phase is timed separately, so the report carries both a cold
build-throughput number and a warm served-from-cache number.  With
``verify=True`` every unique request is additionally rebuilt cold through
:func:`repro.engine.build_tree` (no server, no cache) and compared
bitwise — parents and exact metric ``repr``s — against the served
response; any mismatch counts as *divergent* and fails the run with an
``AssertionError``.

``repro bench serve --out BENCH_serve.json`` runs the workload of
:data:`SERVE_BENCH` (n=100, 2 topologies, 96 requests) and appends the
report to a trajectory file (one JSON document, a ``runs`` list) so
throughput regressions are visible across PRs;
``benchmarks/test_bench_serve.py`` pins the n=100–500 numbers.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.local_search import bfs_tree
from repro.engine import build_tree, get_builder
from repro.network.model import Network
from repro.network.topology import random_graph
from repro.obs.benchdiff import BenchRecord, MetricSpec
from repro.serve.request import BuildRequest, BuildResponse
from repro.serve.server import ServeConfig, TreeServer
from repro.serve.workers import WorkerPool
from repro.utils.rng import as_rng

__all__ = [
    "BenchReport",
    "SERVE_BENCH",
    "make_workload",
    "run_serve_bench",
]

#: Builders the default workload mixes: cheap enough to sustain load at
#: n=500, and between them they cover deterministic, seeded, lc-bounded,
#: and depth-bounded request shapes.
DEFAULT_BENCH_BUILDERS = ("mst", "spt", "bfs", "random_tree")


@dataclass(frozen=True)
class BenchReport:
    """One bench run's measurements (the trajectory-file record)."""

    n_nodes: int
    n_topologies: int
    builders: Tuple[str, ...]
    unique_requests: int
    total_requests: int
    cold_elapsed_s: float
    warm_elapsed_s: float
    hit_rate: float
    built: int
    coalesced: int
    rejected: int
    batches: int
    max_batch: int
    divergent: int
    pool_mode: str
    pool_workers: int
    timestamp: float

    @property
    def cold_rps(self) -> float:
        """Cold build throughput (unique requests / cold phase seconds)."""
        return (
            self.unique_requests / self.cold_elapsed_s
            if self.cold_elapsed_s > 0
            else float("inf")
        )

    @property
    def warm_rps(self) -> float:
        """Warm served throughput (repeat requests / warm phase seconds)."""
        repeats = self.total_requests - self.unique_requests
        return (
            repeats / self.warm_elapsed_s
            if self.warm_elapsed_s > 0
            else float("inf")
        )

    def render(self) -> str:
        """Human-readable summary block."""
        lines = [
            f"serve bench: n={self.n_nodes} nodes × {self.n_topologies} "
            f"topologies × builders {', '.join(self.builders)}",
            f"  pool            {self.pool_mode} ({self.pool_workers} workers)",
            f"  requests        {self.total_requests} total, "
            f"{self.unique_requests} unique",
            f"  cold phase      {self.cold_elapsed_s:.3f}s "
            f"({self.cold_rps:,.0f} req/s built)",
            f"  warm phase      {self.warm_elapsed_s:.3f}s "
            f"({self.warm_rps:,.0f} req/s served)",
            f"  hit rate        {self.hit_rate:.1%}",
            f"  batches         {self.batches} (max batch {self.max_batch})",
            f"  divergent       {self.divergent}",
        ]
        return "\n".join(lines)

    def to_doc(self) -> Dict[str, Any]:
        return {
            "n_nodes": self.n_nodes,
            "n_topologies": self.n_topologies,
            "builders": list(self.builders),
            "unique_requests": self.unique_requests,
            "total_requests": self.total_requests,
            "cold_elapsed_s": self.cold_elapsed_s,
            "warm_elapsed_s": self.warm_elapsed_s,
            "cold_rps": self.cold_rps,
            "warm_rps": self.warm_rps,
            "hit_rate": self.hit_rate,
            "built": self.built,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "batches": self.batches,
            "max_batch": self.max_batch,
            "divergent": self.divergent,
            "pool_mode": self.pool_mode,
            "pool_workers": self.pool_workers,
            "timestamp": self.timestamp,
        }


def _bench_params(
    builder: str, network: Network, topology_index: int, seed: int
) -> Tuple[Dict[str, Any], Optional[float], Optional[int]]:
    """(params, lc_bound, seed) making *builder* feasible on *network*."""
    knobs = get_builder(builder).knobs
    params: Dict[str, Any] = {}
    lc_bound: Optional[float] = None
    request_seed: Optional[int] = None
    if "lc" in knobs:
        # Half the BFS tree's bottleneck lifetime is always reachable.
        lc_bound = 0.5 * bfs_tree(network).lifetime()
    if "seed" in knobs:
        request_seed = seed + 7919 * topology_index
    if "max_depth" in knobs:
        seed_tree = bfs_tree(network)
        params["max_depth"] = max(
            seed_tree.depth(v) for v in range(network.n)
        )
    return params, lc_bound, request_seed


def make_workload(
    *,
    n_nodes: int,
    n_topologies: int,
    builders: Sequence[str],
    link_probability: Optional[float] = None,
    seed: int = 0,
) -> Tuple[List[Network], List[BuildRequest]]:
    """Deterministic unique-request set: one per (topology, builder)."""
    if n_topologies < 1:
        raise ValueError(f"n_topologies must be >= 1, got {n_topologies}")
    if not builders:
        raise ValueError("builders must be non-empty")
    if link_probability is None:
        # Aim for a sparse but safely connected G(n, p): ~8 expected
        # neighbors, clamped to the paper's 0.7 for small n.
        link_probability = max(0.03, min(0.7, 8.0 / n_nodes))
    networks = [
        random_graph(
            n_nodes,
            link_probability,
            seed=seed + 100_003 * index,
            ensure_connected=True,
        )
        for index in range(n_topologies)
    ]
    requests: List[BuildRequest] = []
    for index, network in enumerate(networks):
        for builder in builders:
            params, lc_bound, request_seed = _bench_params(
                builder, network, index, seed
            )
            requests.append(
                BuildRequest(
                    builder=builder,
                    network=network,
                    params=params,
                    lc_bound=lc_bound,
                    seed=request_seed,
                )
            )
    return networks, requests


async def _submit_in_waves(
    server: TreeServer,
    requests: Sequence[BuildRequest],
    concurrency: int,
) -> List[BuildResponse]:
    responses: List[BuildResponse] = []
    for start in range(0, len(requests), concurrency):
        wave = requests[start : start + concurrency]
        responses.extend(await asyncio.gather(*(server.submit(r) for r in wave)))
    return responses


def _strip_elapsed(value: Any) -> Any:
    """Drop ``elapsed_s`` keys at any nesting depth (portfolio meta holds
    per-member wall times inside ``metrics["members"]``)."""
    if isinstance(value, dict):
        return {
            k: _strip_elapsed(v) for k, v in value.items() if k != "elapsed_s"
        }
    return value


def _content_signature(response: BuildResponse) -> str:
    """Bitwise content identity, ignoring only wall-clock ``elapsed_s``."""
    stripped = replace(response, metrics=_strip_elapsed(response.metrics))
    return stripped.signature()


def _verify_against_cold(
    served: Dict[str, BuildResponse], requests: Sequence[BuildRequest]
) -> int:
    """Rebuild each unique request cold (no server) and count divergence."""
    from repro.network.serialization import topology_fingerprint
    from repro.serve.request import effective_params, request_key
    from repro.serve.server import make_response

    divergent = 0
    for request in requests:
        params = effective_params(request)
        fingerprint = topology_fingerprint(request.network)
        key = request_key(fingerprint, request.builder, params)
        cold = build_tree(request.builder, request.network, **params)
        cold_response = make_response(
            cold, fingerprint, key, hit=False, source="built"
        )
        if _content_signature(cold_response) != _content_signature(
            served[key]
        ):
            divergent += 1
    return divergent


def run_serve_bench(
    *,
    n_nodes: int = 120,
    n_topologies: int = 3,
    builders: Sequence[str] = DEFAULT_BENCH_BUILDERS,
    repeats: int = 12,
    link_probability: Optional[float] = None,
    seed: int = 0,
    mode: str = "inline",
    workers: Optional[int] = None,
    concurrency: int = 32,
    config: Optional[ServeConfig] = None,
    verify: bool = True,
) -> BenchReport:
    """Run the synthetic workload once and return its report.

    ``repeats`` is the total number of times each unique request is issued
    (1 cold + ``repeats - 1`` warm), so the expected hit rate is
    ``1 - 1/repeats`` — ≥ 90% from ``repeats=10`` up.

    Raises:
        AssertionError: With ``verify``, a served response differs from its
            cold rebuild.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    _, unique = make_workload(
        n_nodes=n_nodes,
        n_topologies=n_topologies,
        builders=builders,
        link_probability=link_probability,
        seed=seed,
    )

    async def _drive() -> Tuple[Dict[str, Any], Dict[str, BuildResponse], float, float]:
        pool = WorkerPool(mode=mode, n_workers=workers)
        served: Dict[str, BuildResponse] = {}
        async with TreeServer(pool=pool, config=config) as server:
            start = time.perf_counter()
            cold_responses = await _submit_in_waves(server, unique, concurrency)
            cold_elapsed = time.perf_counter() - start
            for response in cold_responses:
                served[response.cache_info.key] = response

            warm_requests = [r for r in unique for _ in range(repeats - 1)]
            order = as_rng(seed).permutation(len(warm_requests))
            warm_requests = [warm_requests[i] for i in order]
            start = time.perf_counter()
            await _submit_in_waves(server, warm_requests, concurrency)
            warm_elapsed = time.perf_counter() - start
            stats = server.stats()
        pool.close()
        return stats, served, cold_elapsed, warm_elapsed

    stats, served, cold_elapsed, warm_elapsed = asyncio.run(_drive())
    divergent = _verify_against_cold(served, unique) if verify else 0
    if divergent:
        raise AssertionError(
            f"{divergent} of {len(unique)} served responses differ from a cold build"
        )
    return BenchReport(
        n_nodes=n_nodes,
        n_topologies=n_topologies,
        builders=tuple(builders),
        unique_requests=len(unique),
        total_requests=len(unique) * repeats,
        cold_elapsed_s=cold_elapsed,
        warm_elapsed_s=warm_elapsed,
        hit_rate=float(stats["hit_rate"]),
        built=int(stats["built"]),
        coalesced=int(stats["coalesced"]),
        rejected=int(stats["rejected"]),
        batches=int(stats["batches"]),
        max_batch=int(stats["max_batch"]),
        divergent=divergent,
        pool_mode=str(stats["pool_mode"]),
        pool_workers=int(stats["pool_workers"]),
        timestamp=time.time(),
    )


SERVE_BENCH = BenchRecord(
    name="serve",
    format="repro-bench-serve",
    version=1,
    metrics=(MetricSpec("warm_rps"), MetricSpec("cold_rps"), MetricSpec("hit_rate")),
    workload=(
        "n_nodes",
        "n_topologies",
        "builders",
        "total_requests",
        "pool_mode",
        "pool_workers",
    ),
    run=run_serve_bench,
    params={"n_nodes": 100, "n_topologies": 2, "repeats": 12},
)
