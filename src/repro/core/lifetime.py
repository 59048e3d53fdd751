"""Lifetime-constraint arithmetic shared by the LP and the IRA loop.

The key identity: in a spanning tree rooted at the sink, a non-sink node's
children count is its degree minus one (the parent edge), while the sink's
children count equals its degree.  So the lifetime constraint of Eq. 15,
``L(v) >= L'``, is the *fractional degree bound*

    x(delta(v)) <= B(v) + [v != sink],
    B(v) = (I(v)/L' - Tx) / Rx            (children bound)

which is what makes MRLC a minimum-cost bounded-degree spanning tree
instance.  This module computes those bounds, the inflated constraint ``L'``
of Algorithm 1 line 3, and feasibility predicates used when relaxing
constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable

import numpy as np

from repro.network.model import Network
from repro.utils.validation import check_positive

__all__ = [
    "LifetimeSpec",
    "inflated_bound",
    "children_bound",
    "degree_bound",
    "lifetime_with_children",
]


def inflated_bound(network: Network, lc: float) -> float:
    """Algorithm 1 line 3: ``L' = I_min * LC / (I_min - 2 * Rx * LC)``.

    The iterative relaxation may exceed a node's children bound by a small
    margin when its constraint is dropped; solving the LP against the
    slightly stricter ``L' > LC`` absorbs that margin so the returned tree
    still meets ``LC``.  Raises ``ValueError`` when the denominator is not
    positive — in that regime ``LC`` exceeds what any node with energy
    ``I_min`` could sustain even with the relaxation margin, and the
    instance must be declared infeasible.
    """
    check_positive(lc, "lc")
    i_min = network.min_initial_energy
    denom = i_min - 2.0 * network.energy_model.rx * lc
    if denom <= 0:
        raise ValueError(
            f"lifetime bound LC={lc} too large for minimum energy {i_min}: "
            "the inflated bound L' would be negative (instance infeasible)"
        )
    return i_min * lc / denom


def children_bound(network: Network, node: int, lifetime: float) -> float:
    """Max (fractional) children of *node* compatible with *lifetime* (Eq. 1 inverted)."""
    return network.energy_model.max_children_for_lifetime(
        network.initial_energy(node), lifetime
    )


def degree_bound(network: Network, node: int, lifetime: float) -> float:
    """Max (fractional) tree degree of *node* compatible with *lifetime*.

    Non-sink nodes get one extra unit of degree for their parent edge.
    """
    bound = children_bound(network, node, lifetime)
    if node != network.sink:
        bound += 1.0
    return bound


def lifetime_with_children(network: Network, node: int, n_children: int) -> float:
    """Eq. 1 lifetime of *node* if it had *n_children* children."""
    return network.energy_model.lifetime_rounds(
        network.initial_energy(node), n_children
    )


@dataclass(frozen=True)
class LifetimeSpec:
    """A resolved MRLC lifetime requirement for one network.

    Bundles the user-facing bound ``lc``, the inflated LP bound ``l_prime``,
    and per-node degree bounds under both, so the IRA loop and its tests
    share one consistent computation.

    Attributes:
        lc: The required network lifetime ``LC`` (aggregation rounds).
        l_prime: The inflated LP constraint ``L'`` from Algorithm 1 line 3.
    """

    lc: float
    l_prime: float

    @classmethod
    def resolve(cls, network: Network, lc: float) -> "LifetimeSpec":
        """Compute ``L'`` for *network* and *lc* (raises if infeasible)."""
        return cls(lc=lc, l_prime=inflated_bound(network, lc))

    @classmethod
    def uninflated(cls, network: Network, lc: float) -> "LifetimeSpec":
        """Spec with ``L' = LC`` (no inflation).

        The Algorithm 1 line-8 removal condition is checked against ``LC``
        regardless of ``L'``, so the output tree still meets ``LC``; only
        Theorem 2's progress guarantee loses its margin.  IRA's ``auto``
        inflation mode falls back to this when the paper's inflated bound is
        infeasible (which happens whenever ``2·Rx·LC`` is comparable to
        ``I_min`` — including the paper's own DFL setting of Fig. 7).
        """
        check_positive(lc, "lc")
        return cls(lc=lc, l_prime=lc)

    def lp_degree_bound(self, network: Network, node: int) -> float:
        """Degree bound enforced inside the LP (uses ``L'``)."""
        return degree_bound(network, node, self.l_prime)

    def lp_degree_bounds(
        self, network: Network, nodes: Iterable[int]
    ) -> Dict[int, float]:
        """:meth:`lp_degree_bound` of every node in *nodes*, in one numpy pass.

        The float operations of :func:`children_bound` and
        :func:`degree_bound`, elementwise and in the same order, so each
        value equals the scalar one bitwise.
        """
        check_positive(self.l_prime, "lifetime")
        nodes = list(nodes)
        model = network.energy_model
        bounds = (network.initial_energies[nodes] / self.l_prime - model.tx) / model.rx
        bounds[np.asarray(nodes, dtype=np.int64) != network.sink] += 1.0
        return dict(zip(nodes, bounds.tolist()))

    def satisfied_by_degree(self, network: Network, node: int, degree: int) -> bool:
        """Whether a final tree degree of *degree* keeps ``L(node) >= LC``.

        This is the Algorithm 1 line 8 test with the support's degree: if
        even adopting every incident support edge (degree - [non-sink] of
        them as children) keeps the node's lifetime at or above ``LC``, the
        node's constraint can be dropped.
        """
        n_children = degree - (0 if node == network.sink else 1)
        n_children = max(n_children, 0)
        return (
            lifetime_with_children(network, node, n_children)
            >= self.lc * (1.0 - 1e-12)
        )

    def satisfied_degree_caps(
        self, network: Network, nodes: Iterable[int]
    ) -> Dict[int, int]:
        """Per node, the largest degree :meth:`satisfied_by_degree` accepts.

        ``-1`` marks a node no degree satisfies.  Eq. 1's lifetime falls as
        children are added, and each float step of it is monotone, so the
        test holds for exactly the degrees up to the cap.  One numpy pass
        over every children count a simple graph allows (``0 .. n-1``),
        with the float operations of :meth:`satisfied_by_degree`, so a
        comparison with the cap decides exactly as the test does.
        """
        nodes = list(nodes)
        energies = network.initial_energies[nodes]
        children = np.arange(network.n, dtype=float)
        lifetimes = network.energy_model.lifetime_rounds_unchecked(
            energies[:, None], children[None, :]
        )
        # Satisfied children counts form a prefix; its length minus one is
        # the largest count, -1 when even no children fails.
        most = (lifetimes >= self.lc * (1.0 - 1e-12)).sum(axis=1) - 1
        return {
            v: int(c) + (0 if c < 0 or v == network.sink else 1)
            for v, c in zip(nodes, most.tolist())
        }

    def tree_feasible_degree(self, network: Network, node: int) -> int:
        """Largest integer tree degree of *node* that still meets ``LC``."""
        bound = degree_bound(network, node, self.lc)
        return max(int(math.floor(bound + 1e-9)), 0)

    def children_caps(self, network: Network) -> Dict[int, int]:
        """Per-node children caps that keep every ``L(v) >= LC``.

        :meth:`tree_feasible_degree` minus the parent link (the sink has
        none) — the hard constraint of the cap-respecting searches in
        :mod:`repro.core.local_search`.
        """
        return {
            v: max(
                self.tree_feasible_degree(network, v)
                - (0 if v == network.sink else 1),
                0,
            )
            for v in network.nodes
        }
