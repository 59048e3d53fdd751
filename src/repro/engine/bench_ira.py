"""IRA benchmark: end-to-end build time at scale and the work behind it.

``repro bench ira`` builds IRA on ``random_graph(n, p, seed=1)`` with
``LC`` half the AAML lifetime, at n = 120, 200 and 300.  Each build runs
under :func:`~repro.obs.instrument`, so next to its wall time the report
carries the counts that explain it: separation-oracle calls, Dinic root
probes, HiGHS calls and dual simplex iterations.  The n=120 tree's cost is
pinned (the CI separation smoke pins the same build), so a speedup cannot
be bought with a different tree.

The report appends to a ``BENCH_ira.json`` trajectory, which
``repro obs bench-diff`` gates on the per-size seconds
(:data:`IRA_BENCH`).  See ``docs/performance.md`` §6.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, Sequence, Tuple

from repro.core.ira import build_ira_tree
from repro.engine.registry import build_tree
from repro.network.topology import random_graph
from repro.obs import instrument
from repro.obs.benchdiff import BenchRecord, MetricSpec

__all__ = [
    "IRA_BENCH",
    "IraBenchReport",
    "IraBenchRow",
    "run_ira_bench",
]

#: ``(nodes, link probability)`` per benchmarked size.
IRA_SIZES: Tuple[Tuple[int, float], ...] = ((120, 0.15), (200, 0.1), (300, 0.07))
IRA_SEED = 1
#: ``LC`` as a fraction of the AAML tree's lifetime.
LC_FRACTION = 0.5
#: Pinned tree cost per size; the build must reproduce it.
PINNED_COSTS: Dict[int, float] = {120: 0.4064623716163171}


def row_key(nodes: int, field: str) -> str:
    """Run-doc key of one size's *field*: ``n120_seconds``."""
    return f"n{nodes}_{field}"


@dataclass(frozen=True)
class IraBenchRow:
    """One IRA build: its size, wall time, tree cost and work counts."""

    nodes: int
    edges: int
    seconds: float
    cost: float
    separation_calls: int
    root_probes: int
    lp_solves: int
    simplex_iterations: int


@dataclass(frozen=True)
class IraBenchReport:
    """One `repro bench ira` run: a row per size."""

    rows: Tuple[IraBenchRow, ...]
    timestamp: float

    def to_doc(self) -> Dict[str, Any]:
        """Flat run document: :func:`row_key` keys plus ``total_s``."""
        doc: Dict[str, Any] = {}
        for row in self.rows:
            for name, value in asdict(row).items():
                if name != "nodes":
                    doc[row_key(row.nodes, name)] = value
        doc["total_s"] = sum(row.seconds for row in self.rows)
        doc["timestamp"] = self.timestamp
        return doc

    def render(self) -> str:
        lines = ["ira bench (random_graph(n, p, seed=1), LC = 1/2 AAML lifetime)"]
        for row in self.rows:
            lines.append(
                f"  n={row.nodes:<4} m={row.edges:<5} {row.seconds:7.3f}s"
                f"  cost {row.cost:.6f}  separation {row.separation_calls} calls"
                f" / {row.root_probes} probes  HiGHS {row.lp_solves} calls"
                f" / {row.simplex_iterations} iterations"
            )
        return "\n".join(lines)


def run_ira_bench(
    sizes: Sequence[Tuple[int, float]] = IRA_SIZES,
) -> IraBenchReport:
    """Build IRA once per size and return the report.

    Raises:
        AssertionError: A pinned size built a tree of another cost, or a
            tree misses its lifetime bound.
    """
    rows = []
    for nodes, link_p in sizes:
        net = random_graph(nodes, link_p, seed=IRA_SEED)
        lc = LC_FRACTION * build_tree("aaml", net).lifetime
        with instrument() as session:
            start = time.perf_counter()
            result = build_ira_tree(net, lc)
            seconds = time.perf_counter() - start
        if not result.lifetime_satisfied:
            raise AssertionError(f"n={nodes}: IRA tree misses LC={lc}")
        cost = result.tree.cost()
        pinned = PINNED_COSTS.get(nodes)
        if pinned is not None and abs(cost - pinned) > 1e-9:
            raise AssertionError(f"n={nodes}: tree cost {cost!r} != pinned {pinned!r}")
        reg = session.registry
        rows.append(
            IraBenchRow(
                nodes=nodes,
                edges=net.n_edges,
                seconds=seconds,
                cost=cost,
                separation_calls=int(reg.counter_value("separation.calls")),
                root_probes=int(reg.counter_value("separation.root_probes")),
                lp_solves=int(reg.counter_value("lp.solves")),
                simplex_iterations=int(reg.counter_value("lp.simplex_iterations")),
            )
        )
    return IraBenchReport(rows=tuple(rows), timestamp=time.time())


IRA_BENCH = BenchRecord(
    name="ira",
    format="repro-bench-ira",
    version=1,
    metrics=tuple(
        MetricSpec(row_key(nodes, "seconds"), higher_is_better=False)
        for nodes, _ in IRA_SIZES
    ),
    # Each size's link count stands for its graph: random_graph(n, p, seed=1).
    workload=tuple(row_key(nodes, "edges") for nodes, _ in IRA_SIZES),
    run=run_ira_bench,
)
