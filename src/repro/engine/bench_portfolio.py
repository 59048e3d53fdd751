"""Portfolio benchmark: one serial race against a cold and a warm parallel race.

``repro bench portfolio`` races :data:`~repro.engine.portfolio.DEFAULT_MEMBERS`
on ``random_graph(60, 0.3, seed=0)`` (``--ci``: 24 nodes) with LC half the
AAML lifetime: once serially, then twice in parallel on the shared pool of
:mod:`repro.engine.pool` (the first race forks it, the second reuses it).
Winner identity across the three races is asserted, so a speedup can never
be bought with a different winner.  The report appends to a
``BENCH_portfolio.json`` trajectory, which ``repro obs bench-diff`` gates
on the speedups (:data:`PORTFOLIO_BENCH`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.engine.pool import drop_shared_pool
from repro.engine.portfolio import DEFAULT_MEMBERS, race_builders, select_winner
from repro.engine.registry import build_tree
from repro.network.topology import random_graph
from repro.obs.benchdiff import BenchRecord, MetricSpec

__all__ = [
    "PORTFOLIO_BENCH",
    "PortfolioBenchReport",
    "run_portfolio_bench",
]


@dataclass(frozen=True)
class PortfolioBenchReport:
    """One measured portfolio race: serial vs parallel wall-clock.

    ``speedup`` (serial over parallel elapsed) is the machine-portable
    headline the bench-diff sentinel watches; identical winners between
    the two modes are *asserted*, not measured.  The cold parallel race
    (``parallel_s``) forks the shared pool; the warm one
    (``warm_parallel_s``, ``warm_speedup``) is a second race on it.
    """

    n_nodes: int
    members: Tuple[str, ...]
    winner: str
    feasible: bool
    serial_s: float
    parallel_s: float
    speedup: float
    warm_parallel_s: float
    warm_speedup: float
    serial_builds_per_s: float
    statuses: Dict[str, str] = field(default_factory=dict)
    timestamp: float = 0.0

    def to_doc(self) -> Dict[str, Any]:
        doc = {
            "n_nodes": self.n_nodes,
            "members": list(self.members),
            "winner": self.winner,
            "feasible": self.feasible,
            "serial_s": self.serial_s,
            "parallel_s": self.parallel_s,
            "speedup": self.speedup,
            "warm_parallel_s": self.warm_parallel_s,
            "warm_speedup": self.warm_speedup,
            "serial_builds_per_s": self.serial_builds_per_s,
            "statuses": dict(self.statuses),
            "timestamp": self.timestamp,
        }
        return doc

    def render(self) -> str:
        lines = [
            "portfolio bench",
            f"  n={self.n_nodes}, members={','.join(self.members)}",
            f"  serial   {self.serial_s:.3f}s "
            f"({self.serial_builds_per_s:.1f} builds/s)",
            f"  parallel {self.parallel_s:.3f}s  ({self.speedup:.2f}x, cold pool)",
            f"  parallel {self.warm_parallel_s:.3f}s  "
            f"({self.warm_speedup:.2f}x, warm pool)",
            f"  winner {self.winner} (feasible={self.feasible})",
        ]
        return "\n".join(lines)


def run_portfolio_bench(
    *,
    n_nodes: int = 60,
    link_probability: float = 0.3,
    members: Sequence[str] = DEFAULT_MEMBERS,
    lc_fraction: float = 0.5,
    seed: int = 0,
) -> PortfolioBenchReport:
    """Measure a serial race, then a cold and a warm parallel race.

    The cold race starts from no shared pool, so it pays the fork; the
    warm race reuses that pool.  The LC bound is ``lc_fraction`` of the
    instance's AAML lifetime (the repo's standard bound source).  Winner
    identity across the three races is asserted — the determinism
    contract — before any timing is reported.
    """
    network = random_graph(n_nodes, link_probability, seed=seed)
    lc = lc_fraction * build_tree("aaml", network).lifetime

    t0 = time.perf_counter()
    serial = race_builders(network, tuple(members), lc=lc, seed=seed)
    serial_s = time.perf_counter() - t0
    drop_shared_pool()
    parallel_s: List[float] = []
    serial_winner = select_winner(serial, lc=lc)
    for _ in range(2):
        t1 = time.perf_counter()
        parallel = race_builders(
            network, tuple(members), lc=lc, seed=seed, n_jobs=len(members)
        )
        parallel_s.append(time.perf_counter() - t1)
        parallel_winner = select_winner(parallel, lc=lc)
        if serial_winner.tree != parallel_winner.tree:
            raise AssertionError(
                "portfolio determinism violated: serial winner "
                f"{serial_winner.member} != parallel winner "
                f"{parallel_winner.member}"
            )
    cold_s, warm_s = parallel_s
    return PortfolioBenchReport(
        n_nodes=n_nodes,
        members=tuple(members),
        winner=serial_winner.member,
        feasible=serial_winner.feasible,
        serial_s=serial_s,
        parallel_s=cold_s,
        speedup=serial_s / max(cold_s, 1e-9),
        warm_parallel_s=warm_s,
        warm_speedup=serial_s / max(warm_s, 1e-9),
        serial_builds_per_s=len(members) / max(serial_s, 1e-9),
        statuses={o.member: o.status for o in serial},
        timestamp=time.time(),
    )


PORTFOLIO_BENCH = BenchRecord(
    name="portfolio",
    format="repro-bench-portfolio",
    version=1,
    metrics=(
        MetricSpec("speedup"),
        MetricSpec("warm_speedup"),
        MetricSpec("serial_builds_per_s"),
    ),
    workload=("n_nodes", "members"),
    run=run_portfolio_bench,
    ci_params={"n_nodes": 24},
)
