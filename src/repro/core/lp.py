"""The MRLC linear program ``LP(G, L', W)`` with lazy subtour constraints.

Section IV-C formulates MRLC as

    min  sum_e c_e x_e
    s.t. 0 <= x_e (<= 1)
         x(E(S)) <= |S| - 1      for all S ⊆ V      (subtour, lazy)
         x(E(V))  = |V| - 1                          (spanning)
         x(L(v)) >= L'           for all v in W      (lifetime)

The lifetime rows are linear degree bounds (see :mod:`repro.core.lifetime`):
``x(delta(v)) <= B(v) + [v != sink]``.  The exponential family of subtour
constraints is generated lazily by the min-cut separation oracle
(:mod:`repro.core.separation`) around scipy's HiGHS solver; the dual-simplex
method is used so the returned solution is an extreme point (a basic feasible
solution), which is what IRA's integrality argument (Lemma 1 / Lemma 4)
requires.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.core.errors import InfeasibleLifetimeError, LPSolverError
from repro.core.separation import find_violated_subtours
from repro.network.model import Network
from repro.obs import OBS
from repro.utils.rng import stable_hash_seed

__all__ = ["LPSolution", "MRLCLinearProgram", "solve_mrlc_lp"]

#: x values below this are treated as zero when pruning the support.
SUPPORT_EPS = 1e-7

#: Cutting-plane rounds before giving up (never reached on sane instances).
MAX_CUT_ROUNDS = 200

#: Magnitude of the deterministic cost perturbation (see _perturbed_cost).
PERTURBATION_SCALE = 2e-6

#: A degree row whose slack at x is at most this counts as tight.
TIGHT_SLACK = 1e-6

#: Violation a tightened or new degree row may show before x is infeasible.
FEASIBILITY_TOL = 1e-9


def _perturbed_cost(cost: float, u: int, v: int) -> float:
    """Edge cost plus a tiny deterministic, edge-unique perturbation.

    Estimated PRRs produce exact cost ties (beacon counts quantize them) and
    perfect links have cost exactly 0; with many ties the LP optimum is a
    huge face, HiGHS returns arbitrary vertices on it, and subtour cut
    generation can wander for exponentially many rounds.  A per-edge jitter
    of ~2e-6 — two orders above solver tolerances, three below real cost
    differences — makes the optimum essentially unique so the cutting-plane
    loop converges in a few rounds.  The jitter is a pure function of the
    endpoint labels, so it is stable across IRA iterations and re-runs; all
    *reported* tree costs use the true edge costs.
    """
    return cost + PERTURBATION_SCALE * _edge_jitter(u, v)


@lru_cache(maxsize=1 << 16)
def _edge_jitter(u: int, v: int) -> float:
    """The per-edge factor in ``[1, 2)``; memoised because IRA builds many
    :class:`MRLCLinearProgram` instances over the same edges (one per
    iteration that cannot reuse the previous optimum, per ``auto`` spec)."""
    return 1.0 + (stable_hash_seed("lp-perturb", u, v) % 4096) / 4096.0


@dataclass
class LPSolution:
    """An extreme-point solution of ``LP(G, L', W)``.

    Attributes:
        edges: Edge endpoint pairs, aligned with :attr:`x`.
        x: Optimal variable values (one per edge).
        objective: Optimal cost value.
        cuts: Subtour sets that were generated to reach feasibility.
        n_lp_solves: Number of HiGHS invocations in the cutting-plane loop
            (0 for a solution reused by :meth:`still_optimal_for`).
        degree_bounds: The lifetime rows ``node -> bound`` it is optimal under.
    """

    edges: List[Tuple[int, int]]
    x: np.ndarray
    objective: float
    cuts: List[FrozenSet[int]] = field(default_factory=list)
    n_lp_solves: int = 0
    degree_bounds: Dict[int, float] = field(default_factory=dict)

    def support(self, eps: float = SUPPORT_EPS) -> List[Tuple[int, int]]:
        """Edges with ``x_e > eps`` (the set ``E*`` of the paper)."""
        return [e for e, val in zip(self.edges, self.x) if val > eps]

    def _endpoints(self) -> np.ndarray:
        """Edge endpoints interleaved ``u0, v0, u1, v1, ...``."""
        return np.asarray(self.edges, dtype=np.int64).reshape(-1)

    def support_degrees(self, n: int, eps: float = SUPPORT_EPS) -> np.ndarray:
        """Per-node degree within the support ``E*``."""
        in_support = np.repeat(self.x > eps, 2)
        return np.bincount(self._endpoints()[in_support], minlength=n)

    def fractional_degrees(self, n: int) -> np.ndarray:
        """Per-node fractional degree ``x(delta(v))``.

        ``bincount`` walks the interleaved endpoints in edge order, so each
        node's sum is accumulated in the same order as an edge-by-edge loop.
        """
        weights = np.repeat(np.asarray(self.x, dtype=float), 2)
        return np.bincount(self._endpoints(), weights=weights, minlength=n)

    def still_optimal_for(
        self, edges: Sequence[Tuple[int, int]], degree_bounds: Dict[int, float]
    ) -> Optional["LPSolution"]:
        """This optimum restricted to *edges*, if it provably stays optimal.

        Assumes this solution came out of :meth:`MRLCLinearProgram.solve`, so
        ``x`` is optimal under :attr:`degree_bounds` and, having passed
        separation, satisfies every subtour constraint.  Over the program on
        *edges* with lifetime rows *degree_bounds*, the restriction of ``x``
        is still optimal when

        * every edge the new program drops had ``x_e <= SUPPORT_EPS`` and
          it adds no edge (Eq. 21: removing ``x_e = 0`` edges keeps ``C``);
        * ``x`` satisfies every lifetime row of the new program; and
        * every row tight at ``x`` (slack ``<= TIGHT_SLACK``) is still
          present with a bound no looser than before.

        Then every constraint active at ``x`` is still there, so ``x`` is a
        local and, by convexity, a global optimum; the perturbed costs
        (:func:`_perturbed_cost`) make it the unique one, so HiGHS would
        return this same vertex.  Returns ``None`` when any condition fails.
        """
        index = {e: i for i, e in enumerate(self.edges)}
        try:
            kept = [index[e] for e in edges]
        except KeyError:
            return None  # a new variable could lower the cost
        dropped = np.ones(len(self.edges), dtype=bool)
        dropped[kept] = False
        if np.any(self.x[dropped] > SUPPORT_EPS):
            return None
        reused = LPSolution(
            edges=list(edges),
            x=self.x[kept],
            objective=self.objective,
            cuts=list(self.cuts),
            degree_bounds=dict(degree_bounds),
        )
        size = 1 + max(chain(degree_bounds, self.degree_bounds), default=-1)
        degree = reused.fractional_degrees(size)
        for v, bound in degree_bounds.items():
            old = self.degree_bounds.get(v)
            loosened = old is not None and bound >= old  # x met the old row
            if not loosened and degree[v] > bound + FEASIBILITY_TOL:
                return None
        for v, old in self.degree_bounds.items():
            tight = old - degree[v] <= TIGHT_SLACK
            if tight and degree_bounds.get(v, math.inf) > old:
                return None
        return reused

    def is_integral(self, tol: float = 1e-6) -> bool:
        """Whether every variable is within *tol* of 0 or 1."""
        return bool(np.all((self.x < tol) | (self.x > 1.0 - tol)))


class MRLCLinearProgram:
    """Cutting-plane solver for ``LP(G, L', W)`` over a chosen edge set.

    Args:
        network: Provides edge costs and energies.
        edges: The active edge set (IRA shrinks it across iterations).
        degree_bounds: Mapping ``node -> max fractional degree``; only nodes
            present in the mapping are constrained (the set ``W``).
        initial_cuts: Subtour sets carried over from previous IRA iterations
            (they remain valid when edges are removed).
    """

    def __init__(
        self,
        network: Network,
        edges: Sequence[Tuple[int, int]],
        degree_bounds: Dict[int, float],
        *,
        initial_cuts: Sequence[FrozenSet[int]] = (),
    ) -> None:
        self.network = network
        self.edges = [tuple(e) for e in edges]
        self.degree_bounds = dict(degree_bounds)
        self.cuts: List[FrozenSet[int]] = list(dict.fromkeys(initial_cuts))
        self._costs = np.array(
            [_perturbed_cost(network.cost(u, v), u, v) for u, v in self.edges],
            dtype=float,
        )
        # Vectorized row assembly: incidence (node x edge) and endpoint
        # index arrays, built once per program instance.
        n_vars = len(self.edges)
        self._endpoint_u = np.array([e[0] for e in self.edges], dtype=np.int64)
        self._endpoint_v = np.array([e[1] for e in self.edges], dtype=np.int64)
        self._incidence = np.zeros((network.n, n_vars))
        if n_vars:
            self._incidence[self._endpoint_u, np.arange(n_vars)] = 1.0
            self._incidence[self._endpoint_v, np.arange(n_vars)] += 1.0

    def _build_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Assemble (A_ub, b_ub, A_eq, b_eq) for the current cut pool."""
        n_vars = len(self.edges)
        n = self.network.n

        rows_ub: List[np.ndarray] = []
        rhs_ub: List[float] = []

        # Lifetime rows: x(delta(v)) <= bound_v for v in W (incidence rows).
        for v, bound in sorted(self.degree_bounds.items()):
            rows_ub.append(self._incidence[v])
            rhs_ub.append(bound)

        # Generated subtour rows: x(E(S)) <= |S| - 1 — an edge is internal
        # to S iff both endpoint membership flags are set.
        if self.cuts:
            member = np.zeros(n, dtype=bool)
            for subset in self.cuts:
                member[:] = False
                member[list(subset)] = True
                internal = member[self._endpoint_u] & member[self._endpoint_v]
                rows_ub.append(internal.astype(float))
                rhs_ub.append(len(subset) - 1.0)

        a_ub = np.vstack(rows_ub) if rows_ub else np.zeros((0, n_vars))
        b_ub = np.array(rhs_ub)
        a_eq = np.ones((1, n_vars))
        b_eq = np.array([n - 1.0])
        return a_ub, b_ub, a_eq, b_eq

    def solve(self) -> LPSolution:
        """Run the cutting-plane loop to an extreme-point optimum.

        Raises:
            InfeasibleLifetimeError: The LP is infeasible — no fractional
                spanning tree meets the degree bounds on the active edges.
            LPSolverError: HiGHS failed for another reason, or the cut loop
                did not converge within :data:`MAX_CUT_ROUNDS`.
        """
        n_vars = len(self.edges)
        if n_vars == 0:
            if self.network.n == 1:
                return LPSolution(edges=[], x=np.zeros(0), objective=0.0)
            raise InfeasibleLifetimeError("no edges remain but n > 1")

        enabled = OBS.enabled
        initial_cut_count = len(self.cuts)
        loop_start = time.perf_counter() if enabled else 0.0

        n_solves = 0
        for _ in range(MAX_CUT_ROUNDS):
            a_ub, b_ub, a_eq, b_eq = self._build_rows()
            result = linprog(
                self._costs,
                A_ub=a_ub if len(b_ub) else None,
                b_ub=b_ub if len(b_ub) else None,
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=(0.0, 1.0),
                method="highs-ds",  # dual simplex -> basic (extreme-point) solution
            )
            n_solves += 1
            if result.status == 2:
                if enabled:
                    OBS.registry.counter("lp.solves").inc(n_solves)
                    OBS.registry.counter("lp.infeasible").inc()
                raise InfeasibleLifetimeError(
                    "LP(G, L', W) infeasible: no data aggregation tree can "
                    "meet the lifetime bound on the remaining edges"
                )
            if not result.success:
                raise LPSolverError(f"HiGHS failed: {result.message}")

            x = np.asarray(result.x, dtype=float)
            violated = find_violated_subtours(self.network.n, self.edges, x)
            if not violated:
                if enabled:
                    reg = OBS.registry
                    reg.counter("lp.solves").inc(n_solves)
                    reg.counter("lp.cut_rounds").inc(n_solves - 1)
                    reg.counter("lp.cuts_added").inc(
                        len(self.cuts) - initial_cut_count
                    )
                    reg.histogram("lp.solve_seconds").observe(
                        time.perf_counter() - loop_start
                    )
                    OBS.tracer.event(
                        "lp.solve",
                        n_vars=n_vars,
                        n_constrained=len(self.degree_bounds),
                        n_solves=n_solves,
                        cuts_total=len(self.cuts),
                        cuts_added=len(self.cuts) - initial_cut_count,
                        objective=float(result.fun),
                    )
                return LPSolution(
                    edges=list(self.edges),
                    x=x,
                    objective=float(result.fun),
                    cuts=list(self.cuts),
                    n_lp_solves=n_solves,
                    degree_bounds=dict(self.degree_bounds),
                )
            before = len(self.cuts)
            for subset in violated:
                if subset not in self.cuts:
                    self.cuts.append(subset)
            if len(self.cuts) == before:
                raise LPSolverError(
                    "separation oracle repeated an existing cut; "
                    "numerical tolerance mismatch"
                )
        raise LPSolverError(
            f"cutting-plane loop did not converge in {MAX_CUT_ROUNDS} rounds"
        )


def solve_mrlc_lp(
    network: Network,
    degree_bounds: Dict[int, float],
    *,
    edges: Optional[Sequence[Tuple[int, int]]] = None,
    initial_cuts: Sequence[FrozenSet[int]] = (),
) -> LPSolution:
    """One-shot convenience wrapper around :class:`MRLCLinearProgram`."""
    if edges is None:
        edges = [e.key for e in network.edges()]
    program = MRLCLinearProgram(
        network, edges, degree_bounds, initial_cuts=initial_cuts
    )
    return program.solve()
