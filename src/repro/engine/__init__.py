"""Engine layer: the incremental tree substrate and the builder registry.

Two pieces that every optimizer and every consumer share:

* :mod:`repro.engine.treestate` — :class:`TreeState`, a thawed copy of an
  :class:`~repro.core.tree.AggregationTree` with O(1) ``reparent`` moves
  and incrementally-maintained cost / reliability / lifetime, plus
  ``reparent_lifetime_delta`` for ranking a move without applying it,
  vectorized bulk scans for the greedy cost descents
  (``best_cost_reparent``), the lifetime ascent's per-node scan
  (``best_lifetime_reparent``, ``ascend_lifetime``), and ``freeze()`` back
  to the immutable tree.
* :mod:`repro.engine.registry` — the builder registry mapping
  canonical names (``"ira"``, ``"exact"``, ``"local_search"``, ``"mst"``,
  ``"spt"``, ``"random_tree"``, ``"aaml"``, ``"rasmalai"``,
  ``"delay_bounded"``, ``"bfs"``) to builder functions; experiments, the
  CLIs, and the distributed simulator resolve trees through
  :func:`build_tree` instead of importing ``build_*_tree`` directly.

``repro builders`` lists everything registered, with knobs.

:mod:`repro.engine.portfolio` builds on the registry: it races a
configurable member set — in parallel processes under a wall-clock budget —
and returns the best LC-feasible tree with per-member outcomes
(registered as the ``"portfolio"`` meta-builder).
"""

from repro.engine.portfolio import (
    DEFAULT_MEMBERS,
    MemberOutcome,
    PortfolioError,
    build_portfolio_tree,
    race_builders,
    select_winner,
)
from repro.engine.registry import (
    BuildResult,
    RegisteredBuilder,
    UnknownBuilderError,
    available_builders,
    build_tree,
    get_builder,
    register_builder,
    tree_builder,
)
from repro.engine.treestate import (
    LifetimeDelta,
    NO_GAIN,
    TreeState,
    lifetime_delta_better,
)

__all__ = [
    "BuildResult",
    "DEFAULT_MEMBERS",
    "LifetimeDelta",
    "MemberOutcome",
    "NO_GAIN",
    "PortfolioError",
    "RegisteredBuilder",
    "TreeState",
    "UnknownBuilderError",
    "available_builders",
    "build_portfolio_tree",
    "build_tree",
    "get_builder",
    "lifetime_delta_better",
    "race_builders",
    "register_builder",
    "select_winner",
    "tree_builder",
]
