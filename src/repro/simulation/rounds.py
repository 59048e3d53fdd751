"""Round-based data aggregation simulation with Bernoulli link losses.

Models the paper's data-collection regime (Section III-B): in each round
every node aggregates its children's packets with its own reading and sends
one packet to its parent; there are no retransmissions or ACKs, so a round
delivers *complete* data to the sink iff every link succeeds — which happens
with probability ``Q(T)``.

The simulator tracks, per round:

* which nodes' readings reached the sink (a lost packet drops the entire
  subtree's aggregate for that round);
* energy spent (Tx per send, Rx per packet received — receivers pay for
  reception even when the decode fails, matching radio behaviour);
* whether the round was *complete* (all readings arrived).

This is the measurement harness behind the reliability validations: the
empirical complete-round frequency must converge to ``Q(T)``.

**Vectorization (and its RNG contract).**  All per-round structures —
postorder transmit schedule, per-edge PRRs, depth levels — are hoisted into
``__init__`` once per tree; nothing per-round is rebuilt in Python.
``run_round`` draws all of a round's Bernoulli losses with one
``rng.random(n_edges)`` call and :meth:`estimate_reliability` batches whole
blocks of rounds as a ``rng.random((rounds, n_edges))`` matrix.  Both rely
on a pinned contract: ``numpy.random.Generator`` fills arrays in C order
from the same double stream as repeated scalar ``random()`` calls, and the
simulator orders edge columns exactly like the historical per-edge loop
(non-sink nodes in tree postorder) — so every outcome, loss tuple, energy
debit, and reliability estimate is **bitwise identical** to the sequential
implementation.  ``TestVectorizationParity`` in
``tests/test_simulation_rounds.py`` asserts this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.tree import AggregationTree
from repro.obs import OBS
from repro.utils.rng import SeedLike, as_rng

__all__ = ["RoundOutcome", "AggregationSimulator"]

#: Cap on the floats materialized per batched-draw block; blocks of rounds
#: are drawn sequentially (identical RNG stream) so huge estimates never
#: allocate a rounds × edges matrix beyond ~16 MB at a time.
_BATCH_DRAW_BUDGET = 2_000_000


@dataclass(frozen=True)
class RoundOutcome:
    """Result of one simulated aggregation round.

    Attributes:
        delivered: Node ids whose readings reached the sink.
        complete: Whether every node's reading arrived (the paper's
            success criterion behind ``Q(T)``).
        transmissions: Packets sent (one per non-sink node).
        losses: Tree links whose packet was lost this round.
        delivery_ratio: Fraction of readings that reached the sink.
    """

    delivered: frozenset
    complete: bool
    transmissions: int
    losses: tuple
    delivery_ratio: float


@dataclass
class EnergyLedger:
    """Per-node remaining energy, debited as rounds execute."""

    remaining: np.ndarray

    @classmethod
    def for_tree(cls, tree: AggregationTree) -> "EnergyLedger":
        return cls(remaining=tree.network.initial_energies)

    def alive(self) -> bool:
        return bool(np.all(self.remaining > 0))

    def first_dead(self) -> Optional[int]:
        dead = np.nonzero(self.remaining <= 0)[0]
        return int(dead[0]) if len(dead) else None


class AggregationSimulator:
    """Simulate no-ACK aggregation rounds over a fixed tree.

    Args:
        tree: The aggregation tree to exercise.
        seed: Randomness for per-link Bernoulli loss draws.
    """

    def __init__(self, tree: AggregationTree, *, seed: SeedLike = None) -> None:
        self.tree = tree
        self.rng = as_rng(seed)
        net = tree.network
        sink = tree.sink
        # Bottom-up schedule: children transmit before their parents.  One
        # RNG draw per entry of ``_order`` per round, in this exact order —
        # the stream contract every batched draw preserves.
        self._postorder = tree.postorder()
        order = [v for v in self._postorder if v != sink]
        parents = [tree.parent(v) for v in order]
        self._order = np.asarray(order, dtype=np.int64)
        self._order_parent = np.asarray(parents, dtype=np.int64)
        self._order_prr = np.asarray(
            [net.prr(v, p) for v, p in zip(order, parents)], dtype=np.float64
        )
        self._edge_keys = [
            (v, p) if v < p else (p, v) for v, p in zip(order, parents)
        ]
        # Depth levels (depth 1, 2, ...) for top-down delivery propagation:
        # a node's reading reaches the sink iff its own edge succeeded and
        # its parent's reading did.
        depth = np.zeros(tree.n, dtype=np.int64)
        for v in reversed(self._postorder):  # parents before children
            if v != sink:
                depth[v] = depth[tree.parent(v)] + 1
        self._levels: List[tuple] = []
        max_depth = int(depth.max()) if tree.n > 1 else 0
        for d in range(1, max_depth + 1):
            nodes = np.nonzero(depth == d)[0]
            self._levels.append((nodes, self._tree_parents_of(tree, nodes)))

    @staticmethod
    def _tree_parents_of(tree: AggregationTree, nodes: np.ndarray) -> np.ndarray:
        return np.asarray([tree.parent(int(v)) for v in nodes], dtype=np.int64)

    def _deliveries_mask(self, ok: np.ndarray) -> np.ndarray:
        """Per-node "reading reached the sink" from per-edge successes.

        *ok* is ``(..., n_edges)`` aligned with ``_order``; the result is
        ``(..., n)`` with the sink column always ``True``.
        """
        shape = ok.shape[:-1] + (self.tree.n,)
        reached = np.ones(shape, dtype=bool)
        reached[..., self._order] = ok
        for nodes, parents in self._levels:
            reached[..., nodes] &= reached[..., parents]
        return reached

    def run_round(
        self, ledger: Optional[EnergyLedger] = None
    ) -> RoundOutcome:
        """Execute one aggregation round.

        With a *ledger*, per-packet energy is debited (Tx for each sender,
        Rx at the parent for each child packet — whether or not it decoded).
        """
        tree = self.tree
        model = tree.network.energy_model
        n_edges = len(self._order)
        # One batched draw, consuming the identical stream the historical
        # per-edge scalar loop did.
        draws = self.rng.random(n_edges)
        ok = draws < self._order_prr

        if ledger is not None:
            # subtract.at applies per index occurrence, so a parent with k
            # children is debited k times.  In postorder a node hears all
            # of its children before it transmits, so the historical float
            # sequence at every node is (rx ... rx, tx) — debiting all rx
            # first reproduces it bitwise (equal-valued subtractions are
            # order-insensitive within the rx group).
            np.subtract.at(ledger.remaining, self._order_parent, model.rx)
            ledger.remaining[self._order] -= model.tx
            # Eq. 1 charges Tx to every node uniformly — the sink's upstream
            # report.  Keeping the debit here makes the measured lifetime
            # agree exactly with the closed form.
            ledger.remaining[tree.sink] -= model.tx

        losses = [self._edge_keys[i] for i in np.nonzero(~ok)[0]]
        delivered = frozenset(np.nonzero(self._deliveries_mask(ok))[0].tolist())
        complete = len(delivered) == tree.n
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("sim.rounds").inc()
            reg.counter(
                "sim.rounds_by_outcome",
                outcome="complete" if complete else "incomplete",
            ).inc()
            reg.counter("sim.transmissions").inc(n_edges)
            reg.counter("sim.deliveries").inc(len(delivered))
            reg.counter("sim.delivery_failures").inc(tree.n - len(delivered))
            reg.counter("sim.link_losses").inc(len(losses))
        return RoundOutcome(
            delivered=delivered,
            complete=complete,
            transmissions=n_edges,
            losses=tuple(losses),
            delivery_ratio=len(delivered) / tree.n,
        )

    def estimate_reliability(self, n_rounds: int) -> float:
        """Empirical complete-round frequency over *n_rounds* rounds.

        Converges to ``Q(T)`` — used by tests and the validation benches to
        check the closed form against behaviour.  Rounds are simulated as
        batched ``(block, n_edges)`` Bernoulli matrices; the estimate (and
        the RNG state afterwards) is bitwise identical to *n_rounds*
        sequential :meth:`run_round` calls.
        """
        if n_rounds <= 0:
            raise ValueError(f"n_rounds must be positive, got {n_rounds}")
        n_edges = len(self._order)
        # A single-node tree falls through naturally: empty draws consume
        # no randomness and every round is vacuously complete.
        block = max(1, _BATCH_DRAW_BUDGET // max(n_edges, 1))
        complete_rounds = 0
        done = 0
        enabled = OBS.enabled
        reg = OBS.registry if enabled else None
        while done < n_rounds:
            rounds = min(block, n_rounds - done)
            draws = self.rng.random((rounds, n_edges))
            ok = draws < self._order_prr
            complete_mask = ok.all(axis=1)
            n_complete = int(np.count_nonzero(complete_mask))
            complete_rounds += n_complete
            if enabled:
                delivered_total = int(
                    np.count_nonzero(self._deliveries_mask(ok))
                )
                n_cells = rounds * self.tree.n
                reg.counter("sim.rounds").inc(rounds)
                if n_complete:
                    reg.counter(
                        "sim.rounds_by_outcome", outcome="complete"
                    ).inc(n_complete)
                if rounds - n_complete:
                    reg.counter(
                        "sim.rounds_by_outcome", outcome="incomplete"
                    ).inc(rounds - n_complete)
                reg.counter("sim.transmissions").inc(rounds * n_edges)
                reg.counter("sim.deliveries").inc(delivered_total)
                reg.counter("sim.delivery_failures").inc(
                    n_cells - delivered_total
                )
                reg.counter("sim.link_losses").inc(
                    int(np.count_nonzero(~ok))
                )
            done += rounds
        return complete_rounds / n_rounds
