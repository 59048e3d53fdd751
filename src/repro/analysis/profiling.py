"""Wall-clock profiling of the tree builders (scaling studies).

"No optimization without measuring": this module times the algorithms over
a size sweep so complexity regressions are visible and users can size their
deployments.  The paper claims polynomial termination for IRA and AAML;
:func:`scaling_study` shows the constants.

Fine-grained algorithm statistics (LP solves, cuts, messages) come from
:mod:`repro.obs` rather than wall clocks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.baselines.aaml import build_aaml_tree
from repro.baselines.mst import build_mst_tree
from repro.core.ira import build_ira_tree
from repro.network.topology import random_graph
from repro.utils.rng import stable_hash_seed
from repro.utils.tables import format_table

__all__ = ["ScalingRow", "ScalingStudy", "scaling_study"]


@dataclass(frozen=True)
class ScalingRow:
    """Timings for one network size.

    Attributes:
        n_nodes: Network size.
        n_edges: Link count of the instance.
        mst_s / aaml_s / ira_s: Wall-clock seconds per builder.
        ira_lp_solves: HiGHS invocations inside the IRA run.
    """

    n_nodes: int
    n_edges: int
    mst_s: float
    aaml_s: float
    ira_s: float
    ira_lp_solves: int


@dataclass(frozen=True)
class ScalingStudy:
    """Size sweep results."""

    rows: Tuple[ScalingRow, ...]

    def render(self) -> str:
        table_rows = [
            [
                r.n_nodes,
                r.n_edges,
                round(r.mst_s * 1000, 2),
                round(r.aaml_s * 1000, 2),
                round(r.ira_s * 1000, 2),
                r.ira_lp_solves,
            ]
            for r in self.rows
        ]
        return format_table(
            ["n", "edges", "MST ms", "AAML ms", "IRA ms", "LP solves"],
            table_rows,
            title="Scaling study (wall clock per builder)",
        )


def scaling_study(
    sizes: Sequence[int] = (8, 16, 24, 32),
    *,
    link_probability: float = 0.5,
    lc_divisor: float = 2.0,
    base_seed: int = 123,
) -> ScalingStudy:
    """Time MST / AAML / IRA across network sizes on matched instances."""
    if lc_divisor <= 0:
        raise ValueError(f"lc_divisor must be positive, got {lc_divisor}")
    rows: List[ScalingRow] = []
    for n in sizes:
        seed = stable_hash_seed("scaling", base_seed, n, link_probability)
        net = random_graph(n, link_probability, seed=seed)

        start = time.perf_counter()
        build_mst_tree(net)
        mst_s = time.perf_counter() - start

        start = time.perf_counter()
        aaml = build_aaml_tree(net)
        aaml_s = time.perf_counter() - start

        start = time.perf_counter()
        ira = build_ira_tree(net, aaml.lifetime / lc_divisor)
        ira_s = time.perf_counter() - start

        rows.append(
            ScalingRow(
                n_nodes=n,
                n_edges=net.n_edges,
                mst_s=mst_s,
                aaml_s=aaml_s,
                ira_s=ira_s,
                ira_lp_solves=ira.lp_solves,
            )
        )
    return ScalingStudy(rows=tuple(rows))
