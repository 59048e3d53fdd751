"""Shared low-level utilities used across the :mod:`repro` package.

The submodules here are dependency-free substrates:

* :mod:`repro.utils.rng` — deterministic random-number-generator plumbing.
* :mod:`repro.utils.unionfind` — disjoint-set forest used by tree builders.
* :mod:`repro.utils.maxflow` — Dinic maximum-flow / minimum-cut solver used
  by the subtour-elimination separation oracle.
* :mod:`repro.utils.validation` — argument checking helpers with consistent
  error messages.
* :mod:`repro.utils.tables` — plain-text table rendering for the experiment
  harness output.
"""

from repro.utils.ascii_chart import bar_chart, line_chart
from repro.utils.gomoryhu import GomoryHuTree, build_gomory_hu_tree
from repro.utils.maxflow import DinicMaxFlow, MaxFlowResult
from repro.utils.rng import (
    SeedLike,
    as_rng,
    reject_generators,
    spawn_rngs,
    stable_hash_seed,
)
from repro.utils.tables import format_table
from repro.utils.unionfind import UnionFind
from repro.utils.validation import (
    approx_eq,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "DinicMaxFlow",
    "GomoryHuTree",
    "MaxFlowResult",
    "SeedLike",
    "UnionFind",
    "approx_eq",
    "as_rng",
    "bar_chart",
    "line_chart",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "build_gomory_hu_tree",
    "format_table",
    "reject_generators",
    "spawn_rngs",
    "stable_hash_seed",
]
