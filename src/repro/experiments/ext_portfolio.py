"""Extension: portfolio tournament — which builder wins where?

The ``portfolio`` meta-builder (:mod:`repro.engine.portfolio`) races a
member set and keeps the best LC-feasible tree.  This experiment asks the
question that justifies carrying a portfolio at all: *does any single
member dominate?*  It sweeps instance size, lifetime-bound tightness, and
topology family (Bernoulli random graphs vs. unit-disk deployments with
log-normal shadowing), runs one deterministic race per trial, and tabulates
each member's win rate per cell.

If one member won every cell the portfolio would be dead weight — you
would just call that builder.  The default panel therefore races the
LC-*blind* specialists (the paper's MST reliability bound plus the four
related-work builders), where the crossover actually lives: the MST takes
the loose-bound cells outright, the lifetime-greedy CLMT takes the tight
ones, and the in-between cells split — precisely the regime where racing
pays.  (``local_search`` is deliberately not in this panel: being LC-aware
it wins essentially every cell, which is an argument for *it*, not a
tournament.)

Races here are serial and budget-free, so every trial is a pure function
of its seed; trial-level parallelism comes from
:func:`~repro.experiments.parallel.parallel_map` (``--jobs``) with
bitwise-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.engine.portfolio import race_builders, select_winner
from repro.engine.registry import build_tree
from repro.experiments.parallel import parallel_map
from repro.network.model import Network
from repro.network.topology import random_graph, unit_disk_graph
from repro.utils.ascii_chart import bar_chart
from repro.utils.rng import stable_hash_seed
from repro.utils.tables import format_table

__all__ = [
    "CellWinRates",
    "ExtPortfolioResult",
    "PORTFOLIO_TOURNAMENT_MEMBERS",
    "run_ext_portfolio",
]

#: Default tournament panel: the paper's MST reliability bound plus the
#: related-work lifetime/energy specialists — all LC-blind and
#: parameter-free, so the race needs no per-member tuning and the win-rate
#: table is a pure property of each algorithm's trade-off point.
PORTFOLIO_TOURNAMENT_MEMBERS: Tuple[str, ...] = (
    "mst",
    "min_energy",
    "clmt",
    "dlmt",
    "convergecast",
)

#: Sweep cells: (topology, n_nodes, lc_fraction).  Two topology families ×
#: two sizes × two bound tightnesses (0.4 of the max lifetime is loose,
#: 0.8 is tight — the crossover sits between them).
DEFAULT_CELLS: Tuple[Tuple[str, int, float], ...] = (
    ("random", 16, 0.4),
    ("random", 16, 0.8),
    ("random", 30, 0.4),
    ("random", 30, 0.8),
    ("disk", 16, 0.4),
    ("disk", 16, 0.8),
    ("disk", 30, 0.4),
    ("disk", 30, 0.8),
)


@dataclass(frozen=True)
class CellWinRates:
    """One sweep cell's tournament outcome.

    Attributes:
        topology: ``"random"`` (Bernoulli G(n, p)) or ``"disk"``
            (unit-disk deployment with log-normal shadowing).
        n_nodes: Instance size.
        lc_fraction: The LC bound as a fraction of the instance's AAML
            (max-lifetime) bottleneck — 0.4 is loose, 0.8 is tight.
        wins: Race wins per member over the cell's trials.
        feasible_fraction: Fraction of trials whose *winner* met LC.
    """

    topology: str
    n_nodes: int
    lc_fraction: float
    wins: Dict[str, int]
    feasible_fraction: float


@dataclass(frozen=True)
class ExtPortfolioResult:
    """Win-rate table of the portfolio tournament."""

    members: Tuple[str, ...]
    cells: Tuple[CellWinRates, ...]
    n_trials: int

    def overall_wins(self) -> Dict[str, int]:
        totals = {m: 0 for m in self.members}
        for cell in self.cells:
            for member, count in cell.wins.items():
                totals[member] += count
        return totals

    def render(self) -> str:
        header = ["topology", "n", "lc/L*"] + list(self.members) + ["feasible"]
        rows: List[List[object]] = []
        for cell in self.cells:
            rows.append(
                [cell.topology, cell.n_nodes, cell.lc_fraction]
                + [
                    f"{cell.wins.get(m, 0) / self.n_trials:.0%}"
                    for m in self.members
                ]
                + [f"{cell.feasible_fraction:.0%}"]
            )
        total = self.n_trials * len(self.cells)
        overall = self.overall_wins()
        rows.append(
            ["overall", "", ""]
            + [f"{overall[m] / total:.0%}" for m in self.members]
            + [""]
        )
        return format_table(
            header,
            rows,
            title=(
                "Extension — portfolio tournament: win rate per member, "
                f"{self.n_trials} trials/cell, LC = fraction of L_AAML"
            ),
        )

    def render_chart(self) -> str:
        """Bar chart of overall race wins per member."""
        overall = self.overall_wins()
        return bar_chart(
            list(self.members),
            [overall[m] for m in self.members],
            title="portfolio tournament — total race wins",
            value_fmt=".0f",
        )


def _make_network(topology: str, n_nodes: int, seed: int) -> Network:
    if topology == "random":
        return random_graph(n_nodes, 0.3, seed=seed)
    if topology == "disk":
        return unit_disk_graph(
            n_nodes, 50.0, 20.0, tx_power_dbm=-8.0, seed=seed, max_attempts=100
        )
    raise ValueError(f"unknown topology {topology!r}")


def _tournament_trial(
    members: Tuple[str, ...],
    cells: Tuple[Tuple[str, int, float], ...],
    trials_per_cell: int,
    base_seed: int,
    index: int,
) -> Tuple[int, str, bool]:
    """One race; module-level so :func:`parallel_map` can pickle it."""
    cell_index, trial = divmod(index, trials_per_cell)
    topology, n_nodes, lc_fraction = cells[cell_index]
    seed = stable_hash_seed(
        "ext-portfolio", base_seed, topology, n_nodes, lc_fraction, trial
    )
    network = _make_network(topology, n_nodes, seed)
    lc = lc_fraction * build_tree("aaml", network).lifetime
    outcomes = race_builders(network, members, lc=lc, seed=seed)
    winner = select_winner(outcomes, lc=lc)
    return (cell_index, winner.member, winner.feasible)


def run_ext_portfolio(
    *,
    n_trials: int = 10,
    members: Tuple[str, ...] = PORTFOLIO_TOURNAMENT_MEMBERS,
    cells: Tuple[Tuple[str, int, float], ...] = DEFAULT_CELLS,
    base_seed: int = 310,
    n_jobs: Optional[int] = None,
) -> ExtPortfolioResult:
    """Run the tournament: ``n_trials`` races per sweep cell.

    Args:
        n_trials: Races per (topology, n, lc_fraction) cell.
        members: Registry builder names racing in every trial (≥ 2).
        cells: The sweep grid; see :data:`DEFAULT_CELLS`.
        base_seed: Label mixed into every trial seed.
        n_jobs: Worker processes for the trial sweep (results identical).
    """
    if n_trials <= 0:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    if len(members) < 2:
        raise ValueError(f"a tournament needs >= 2 members, got {list(members)}")
    trial = partial(
        _tournament_trial, tuple(members), tuple(cells), n_trials, base_seed
    )
    rows = parallel_map(trial, n_trials * len(cells), n_jobs=n_jobs)

    wins: List[Dict[str, int]] = [{m: 0 for m in members} for _ in cells]
    feasible: List[int] = [0 for _ in cells]
    for cell_index, winner, winner_feasible in rows:
        wins[cell_index][winner] += 1
        feasible[cell_index] += int(winner_feasible)
    cell_results = tuple(
        CellWinRates(
            topology=topology,
            n_nodes=n_nodes,
            lc_fraction=lc_fraction,
            wins=wins[i],
            feasible_fraction=feasible[i] / n_trials,
        )
        for i, (topology, n_nodes, lc_fraction) in enumerate(cells)
    )
    return ExtPortfolioResult(
        members=tuple(members), cells=cell_results, n_trials=n_trials
    )
