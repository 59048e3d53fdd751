"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public functions at the name their caller looks
up (``repro.core.lp.linprog``, ``repro.core.lp.find_violated_subtours``, the
``solve``/``build``/``submit`` methods on their classes, ...), adding up the
time and call count of each and a few counters the layer exposes in its
arguments or results.  Nothing under ``src/`` is edited; :meth:`remove`
restores every original.

Self times are derived from the known nesting: HiGHS and separation run
inside ``MRLCLinearProgram.solve``, which runs inside ``build_ira_tree``.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.core.lp as lp_module
import repro.engine.builders as builders_module
import repro.engine.portfolio as portfolio_module
import repro.serve.cache as cache_module
import repro.serve.tcp as tcp_module
from repro.core.lp import MRLCLinearProgram
from repro.engine import RegisteredBuilder
from repro.serve import ResultCache, TreeServer, WorkerPool
from repro.utils.maxflow import DinicMaxFlow

#: Builders whose per-build time is reported as ``engine.build_s.<name>``.
ENGINE_BUILDERS = (
    "ira",
    "mst",
    "spt",
    "bfs",
    "random_tree",
    "min_energy",
    "dlmt",
    "aaml",
    "clmt",
    "rasmalai",
    "local_search",
    "portfolio",
)

#: One per-layer metric: (value, unit, sample count).
LayerMetric = Tuple[float, str, int]


def _array_bytes(matrix: Any) -> int:
    """Bytes of a dense or scipy-sparse matrix's stored arrays."""
    if matrix is None:
        return 0
    if isinstance(matrix, np.ndarray):
        return int(matrix.nbytes)
    return sum(
        int(getattr(matrix, part).nbytes)
        for part in ("data", "indices", "indptr", "row", "col")
        if hasattr(matrix, part)
    )


class LayerTracer:
    """Time and count calls into each layer while installed."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _wrap(
        self,
        owner: Any,
        attr: str,
        span: Callable[[tuple], str],
        observe: Optional[Callable[[tuple, dict, Any, float, Any], None]] = None,
        prepare: Optional[Callable[[tuple], Any]] = None,
    ) -> None:
        original = getattr(owner, attr)
        seconds, calls = self.seconds, self.calls

        def finish(args, kwargs, result, start, token):
            elapsed = time.perf_counter() - start
            name = span(args)
            seconds[name] += elapsed
            calls[name] += 1
            if observe is not None:
                observe(args, kwargs, result, elapsed, token)

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                token = prepare(args) if prepare else None
                start = time.perf_counter()
                result = await original(*args, **kwargs)
                finish(args, kwargs, result, start, token)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                token = prepare(args) if prepare else None
                start = time.perf_counter()
                result = original(*args, **kwargs)
                finish(args, kwargs, result, start, token)
                return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self) -> "LayerTracer":
        """Wrap every traced entry point (idempotence is not supported)."""
        counts = self.counts

        def on_highs(args, kwargs, result, elapsed, token):
            a_ub = kwargs.get("A_ub", args[1] if len(args) > 1 else None)
            counts["lp.rows"] += 0 if a_ub is None else a_ub.shape[0]
            counts["lp.a_ub_bytes"] += _array_bytes(a_ub)

        def on_separation(args, kwargs, result, elapsed, token):
            counts["separation.cuts"] += len(result)
            counts["separation.productive"] += 1 if result else 0

        def on_lp_solve(args, kwargs, result, elapsed, before):
            counts["lp.cuts_added"] += len(args[0].cuts) - before

        def on_race(args, kwargs, outcomes, elapsed, token):
            slowest = max((o.elapsed_s for o in outcomes), default=0.0)
            counts["portfolio.overhead_s"] += elapsed - slowest

        def on_submit(args, kwargs, response, elapsed, token):
            if response.cache_info.source == "built":
                counts["serve.miss_submits"] += 1
                counts["serve.miss_submit_s"] += elapsed

        def fixed(name: str) -> Callable[[tuple], str]:
            return lambda args: name

        self._wrap(lp_module, "linprog", fixed("lp.highs"), on_highs)
        self._wrap(
            lp_module, "find_violated_subtours", fixed("separation"), on_separation
        )
        self._wrap(DinicMaxFlow, "solve", fixed("maxflow"))
        self._wrap(
            MRLCLinearProgram,
            "solve",
            fixed("lp.solve"),
            on_lp_solve,
            prepare=lambda args: len(args[0].cuts),
        )
        self._wrap(builders_module, "build_ira_tree", fixed("ira.build"))
        self._wrap(RegisteredBuilder, "build", lambda args: f"engine.{args[0].name}")
        self._wrap(portfolio_module, "race_builders", fixed("portfolio.race"), on_race)
        self._wrap(TreeServer, "submit", fixed("serve.submit"), on_submit)
        self._wrap(WorkerPool, "run_shard", fixed("serve.shard"))
        self._wrap(ResultCache, "get", fixed("serve.cache_get"))
        self._wrap(tcp_module, "decode_build_request", fixed("serve.decode"))
        self._wrap(tcp_module, "encode_response", fixed("serve.encode"))
        self._wrap(cache_module, "topology_fingerprint", fixed("serve.fingerprint"))
        return self

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics(
        self,
        *,
        ops: int,
        client_rtt_s: float = 0.0,
        build_requests: int = 0,
        server_stats: Optional[Dict[str, float]] = None,
    ) -> Dict[str, LayerMetric]:
        """Per-layer metrics for one traced phase of *ops* operations."""
        s, c, k = self.seconds, self.calls, self.counts

        def per(total: float, count: int) -> float:
            return total / count if count else 0.0

        sep_calls = c["separation"]
        highs_calls = c["lp.highs"]
        out: Dict[str, LayerMetric] = {
            "separation.s": (per(s["separation"], ops), "s/op", sep_calls),
            "separation.calls": (per(sep_calls, ops), "calls/op", ops),
            "separation.cuts": (per(k["separation.cuts"], ops), "cuts/op", sep_calls),
            "separation.yield": (
                per(k["separation.productive"], sep_calls), "frac", sep_calls
            ),
            "maxflow.probes": (per(c["maxflow"], ops), "probes/op", ops),
            "maxflow.s": (per(s["maxflow"], ops), "s/op", c["maxflow"]),
            "lp.solve_s": (per(s["lp.solve"], ops), "s/op", c["lp.solve"]),
            "lp.highs_calls": (per(highs_calls, ops), "calls/op", ops),
            "lp.highs_s": (per(s["lp.highs"], ops), "s/op", highs_calls),
            "lp.self_s": (
                per(s["lp.solve"] - s["lp.highs"] - s["separation"], ops),
                "s/op",
                c["lp.solve"],
            ),
            "lp.rows_per_call": (per(k["lp.rows"], highs_calls), "rows/call", highs_calls),
            "lp.a_ub_bytes": (
                per(k["lp.a_ub_bytes"], highs_calls), "B/call", highs_calls
            ),
            "lp.cuts_added": (per(k["lp.cuts_added"], ops), "cuts/op", c["lp.solve"]),
            "ira.build_s": (per(s["ira.build"], ops), "s/op", c["ira.build"]),
            "ira.self_s": (
                per(s["ira.build"] - s["lp.solve"], ops), "s/op", c["ira.build"]
            ),
            "ira.iterations": (per(c["lp.solve"], ops), "iters/op", c["ira.build"]),
        }
        for name in ENGINE_BUILDERS:
            span = f"engine.{name}"
            out[f"engine.build_s.{name}"] = (
                per(s[span], c[span]), "s/build", c[span]
            )
        races = c["portfolio.race"]
        out["engine.portfolio.race_s"] = (per(s["portfolio.race"], races), "s/race", races)
        out["engine.portfolio.overhead_s"] = (
            per(k["portfolio.overhead_s"], races), "s/race", races
        )
        stats = server_stats or {}
        misses = int(k["serve.miss_submits"])
        out.update(
            {
                "serve.transport_s": (
                    per(client_rtt_s - s["serve.submit"], build_requests),
                    "s/req",
                    build_requests,
                ),
                "serve.decode_s": (
                    per(s["serve.decode"], c["serve.decode"]), "s/req", c["serve.decode"]
                ),
                "serve.encode_s": (
                    per(s["serve.encode"], c["serve.encode"]), "s/req", c["serve.encode"]
                ),
                "serve.submit_s": (
                    per(s["serve.submit"], c["serve.submit"]), "s/req", c["serve.submit"]
                ),
                "serve.shard_s": (
                    per(s["serve.shard"], c["serve.shard"]), "s/shard", c["serve.shard"]
                ),
                "serve.queue_wait_s": (
                    per(k["serve.miss_submit_s"] - s["serve.shard"], misses),
                    "s/miss",
                    misses,
                ),
                "serve.cache_get_s": (
                    per(s["serve.cache_get"], c["serve.cache_get"]),
                    "s/call",
                    c["serve.cache_get"],
                ),
                "serve.fingerprint_s": (
                    per(s["serve.fingerprint"], c["serve.fingerprint"]),
                    "s/call",
                    c["serve.fingerprint"],
                ),
                "serve.hit_rate": (
                    float(stats.get("hit_rate", 0.0)), "frac", int(stats.get("requests", 0))
                ),
                "serve.batches": (
                    float(stats.get("batches", 0)), "count", int(stats.get("batches", 0))
                ),
                "serve.batch_mean": (
                    per(float(stats.get("batched", 0)), int(stats.get("batches", 0))),
                    "req/batch",
                    int(stats.get("batches", 0)),
                ),
                "serve.coalesced": (
                    float(stats.get("coalesced", 0)), "count", int(stats.get("requests", 0))
                ),
                "serve.rejected": (
                    float(stats.get("rejected", 0)), "count", int(stats.get("requests", 0))
                ),
            }
        )
        return out
