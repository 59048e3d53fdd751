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
(:mod:`repro.core.separation`).

Each :class:`MRLCLinearProgram` owns one HiGHS model, built through the
binding scipy bundles (``scipy.optimize._highspy._core._Highs``) on its first
:meth:`~MRLCLinearProgram.solve`: one column per edge, the spanning row, then
the lifetime rows and carried cuts.  Every cutting-plane round appends only
its new cuts and re-runs dual simplex from the previous basis
(:func:`linprog`).  Rows travel as a plain :class:`RowBlock` of the three
CSR arrays ``addRows`` takes, not a ``scipy.sparse`` matrix it would only
unpack again.  A model's first solve starts from a greedy crash basis
when that basis is provably optimal (:func:`_greedy_basis`): by Lemma 1 the
first program's optimum is often just the ``n - 1`` cheapest edges, and
HiGHS, handed a valid basis, skips presolve and confirms it in zero
iterations.  Otherwise the first solve runs presolve, which switched off
leaves the trees unchanged but costs about 10% more dual simplex
iterations; every warm re-solve skips it.  IRA keeps one program for a whole
attempt: between its iterations :meth:`~MRLCLinearProgram.restrict`
deletes the ``x_e = 0`` columns (line 6) and the dropped lifetime rows
(line 8) in place, keeps every cut row, and the next solve starts warm
from what is left of the basis.  Dual simplex returns an extreme point (a
basic feasible solution), which is what IRA's integrality argument
(Lemma 1 / Lemma 4) requires.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize._highspy._core import (
    HighsBasis,
    HighsBasisStatus,
    HighsModelStatus,
    _Highs,
)

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

#: Distinct jitter factors an edge can draw (see _edge_jitter).
JITTER_LEVELS = 4096

#: Smallest nonzero gap between two edges' perturbations.
JITTER_QUANTUM = PERTURBATION_SCALE / JITTER_LEVELS

#: HiGHS's dual feasibility tolerance.  It must sit below JITTER_QUANTUM, or
#: the solver may stop on a vertex that is worse by a few jitter steps (its
#: 1e-7 default is 200 quanta); HiGHS accepts nothing under 1e-10.
DUAL_FEASIBILITY_TOL = JITTER_QUANTUM / 4

#: Model statuses that mean the program has no feasible point (x is boxed
#: in [0, 1], so "unbounded or infeasible" is infeasible).
_INFEASIBLE = (HighsModelStatus.kInfeasible, HighsModelStatus.kUnboundedOrInfeasible)

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
    of ~2e-6, three orders below real cost differences, makes the optimum
    unique so the cutting-plane loop converges in a few rounds.  Its
    magnitude is an order above HiGHS's default tolerances, but the gaps
    between two edges' jitters are multiples of :data:`JITTER_QUANTUM`
    (~4.9e-10), far below them; the model therefore runs with
    :data:`DUAL_FEASIBILITY_TOL`.  The jitter is a pure function of the
    endpoint labels, so it is stable across IRA iterations and re-runs; all
    *reported* tree costs use the true edge costs.
    """
    return cost + PERTURBATION_SCALE * _edge_jitter(u, v)


@lru_cache(maxsize=1 << 16)
def _edge_jitter(u: int, v: int) -> float:
    """The per-edge factor in ``[1, 2)``; memoised because IRA builds an
    :class:`MRLCLinearProgram` over the same edges once per ``auto`` attempt,
    and again on every later build over the same network."""
    return 1.0 + (stable_hash_seed("lp-perturb", u, v) % JITTER_LEVELS) / JITTER_LEVELS


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


class HighsRound(NamedTuple):
    """What one :func:`linprog` call read back from the model."""

    status: HighsModelStatus
    x: Optional[np.ndarray]  # None unless status is kOptimal
    objective: float
    simplex_iterations: int


def _new_model(costs: np.ndarray, n: int) -> _Highs:
    """A HiGHS model over one ``[0, 1]`` column per edge, with the spanning
    row ``x(E(V)) = n - 1`` and no other rows yet."""
    model = _Highs()
    model.setOptionValue("output_flag", False)
    model.setOptionValue("solver", "simplex")
    model.setOptionValue("simplex_strategy", 1)  # dual -> basic (extreme point)
    model.setOptionValue("dual_feasibility_tolerance", DUAL_FEASIBILITY_TOL)
    m = len(costs)
    model.addCols(
        m, costs, np.zeros(m), np.ones(m), 0,
        np.zeros(m, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0),
    )
    spanning = np.array([n - 1.0])
    model.addRows(
        1, spanning, spanning, m,
        np.zeros(1, dtype=np.int32), np.arange(m, dtype=np.int32), np.ones(m),
    )
    return model


class RowBlock(NamedTuple):
    """Rows to append to a model, in compressed sparse row form.

    The same three arrays a ``scipy.sparse.csr_array`` stores (``indptr``
    and ``indices`` as ``int32``, ``data`` as ``float64``), without the
    sparse-matrix object HiGHS would only unpack again.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)


def linprog(
    model: _Highs,
    *,
    A_ub: RowBlock,
    b_ub: np.ndarray,
    basis: Optional[HighsBasis] = None,
) -> HighsRound:
    """Append the rows ``A_ub x <= b_ub`` to *model* and re-solve it.

    HiGHS extends the previous basis with the new rows' slacks, so every
    call after the first runs dual simplex warm.  A *basis* over every
    column and row, the new ones included, replaces it before the solve
    (:func:`_greedy_basis`).  This is the only place HiGHS solves anything.
    perfbench's ``lp.highs`` layer wraps this module attribute by name and
    reads its ``A_ub`` keyword, so keep both.
    """
    n_rows = len(b_ub)
    if n_rows:
        model.addRows(
            n_rows, np.full(n_rows, -np.inf), b_ub, A_ub.nnz,
            A_ub.indptr[:-1], A_ub.indices, A_ub.data,
        )
    if basis is not None:
        model.setBasis(basis)
    model.run()
    status = model.getModelStatus()
    info = model.getInfo()
    if status != HighsModelStatus.kOptimal:
        return HighsRound(status, None, math.nan, info.simplex_iteration_count)
    x = np.array(model.getSolution().col_value, dtype=float)
    return HighsRound(
        status, x, info.objective_function_value, info.simplex_iteration_count
    )


#: HiGHS basis statuses indexed by the integer codes :func:`_greedy_basis`
#: fills in: 0 at the lower bound, 1 basic, 2 at the upper bound.
_BASIS_STATUS = np.array(
    [HighsBasisStatus.kLower, HighsBasisStatus.kBasic, HighsBasisStatus.kUpper],
    dtype=object,
)


def _greedy_basis(
    costs: np.ndarray, n: int, rows: RowBlock, rhs: np.ndarray
) -> Optional[HighsBasis]:
    """An optimal starting basis for a new model's first solve, or ``None``.

    The model holds the ``[0, 1]`` columns, the spanning row and the first
    block ``rows x <= rhs`` (lifetime rows and carried cuts).  Order the
    columns by cost: the ``n - 2`` cheapest sit at their upper bound, the
    ``(n - 1)``-th is basic, every other column sits at its lower bound,
    the spanning row is nonbasic and every other row is basic.  The
    spanning row's dual is then the basic column's cost, so every reduced
    cost has the sign its bound needs: the basis is dual feasible by the
    cost order.  Its primal point is the greedy 0/1 point, the ``n - 1``
    cheapest edges.  When that point meets every row of the block (within
    :data:`FEASIBILITY_TOL`), the basis is optimal, and when the
    ``(n - 1)``-th and ``n``-th cheapest costs differ strictly the optimum
    is unique: HiGHS returns the vertex a cold solve would, with zero
    iterations and no presolve.  ``None`` when any of this fails, or when
    fewer than ``n - 1`` columns exist.
    """
    m = len(costs)
    if m < n - 1:
        return None
    order = np.argsort(costs, kind="stable")
    if m > n - 1 and not costs[order[n - 2]] < costs[order[n - 1]]:
        return None  # a tie at the boundary: the optimum may not be unique
    greedy = np.zeros(m)
    greedy[order[: n - 1]] = 1.0
    # Row activities at the greedy point: differences of a prefix sum.
    prefix = np.concatenate(([0.0], np.cumsum(greedy[rows.indices])))
    activity = prefix[rows.indptr[1:]] - prefix[rows.indptr[:-1]]
    if np.any(activity > rhs + FEASIBILITY_TOL):
        return None
    codes = np.zeros(m, dtype=np.intp)
    codes[order[: n - 2]] = 2
    codes[order[n - 2]] = 1
    basis = HighsBasis()
    basis.col_status = _BASIS_STATUS[codes].tolist()
    basis.row_status = [HighsBasisStatus.kLower] + [HighsBasisStatus.kBasic] * len(rhs)
    return basis


def _row_block(columns: List[np.ndarray], n_cols: int) -> RowBlock:
    """A 0/1 row block whose row ``i`` has ones at ``columns[i]``."""
    indptr = np.zeros(len(columns) + 1, dtype=np.int32)
    np.cumsum([len(c) for c in columns], out=indptr[1:])
    indices = (
        np.concatenate(columns).astype(np.int32)
        if columns
        else np.zeros(0, dtype=np.int32)
    )
    return RowBlock(indptr, indices, np.ones(len(indices)), (len(columns), n_cols))


class MRLCLinearProgram:
    """Cutting-plane solver for ``LP(G, L', W)`` over a chosen edge set.

    Args:
        network: Provides edge costs and energies.
        edges: The active edge set (IRA shrinks it across iterations with
            :meth:`restrict`).
        degree_bounds: Mapping ``node -> max fractional degree``; only nodes
            present in the mapping are constrained (the set ``W``).
        initial_cuts: Subtour sets carried over from an earlier program
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
        self._endpoint_u = np.array([e[0] for e in self.edges], dtype=np.int64)
        self._endpoint_v = np.array([e[1] for e in self.edges], dtype=np.int64)
        #: The HiGHS model, built by the first solve.
        self._model: Optional[_Highs] = None
        #: Nodes whose lifetime rows sit in the model, in row order (rows
        #: ``1 .. len``, right after the spanning row).
        self._row_nodes: List[int] = []

    def restrict(
        self, edges: Sequence[Tuple[int, int]], degree_bounds: Dict[int, float]
    ) -> None:
        """Narrow the program to *edges* and the lifetime rows *degree_bounds*.

        *edges* must be a subsequence of :attr:`edges` and *degree_bounds* may
        only name nodes already bounded, as between two IRA iterations (lines
        6 and 8 only delete).  A built model is edited in place: the dropped
        columns and lifetime rows are deleted, a changed bound is reset, and
        every cut row stays.  The program is then the one a fresh
        ``MRLCLinearProgram(network, edges, degree_bounds,
        initial_cuts=self.cuts)`` would build, row for row, and the next
        :meth:`solve` re-runs HiGHS from the surviving basis.

        Raises:
            ValueError: *edges* adds an edge or reorders them, or
                *degree_bounds* bounds a node the program does not.
        """
        index = {e: i for i, e in enumerate(self.edges)}
        try:
            kept = np.array([index[tuple(e)] for e in edges], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"restrict cannot add edge {exc.args[0]}") from None
        if np.any(np.diff(kept) <= 0):
            raise ValueError("restrict must keep the program's edge order")
        unknown = degree_bounds.keys() - self.degree_bounds.keys()
        if unknown:
            raise ValueError(f"restrict cannot bound new nodes {sorted(unknown)}")
        if self._model is not None:
            dropped = np.ones(len(self.edges), dtype=bool)
            dropped[kept] = False
            if dropped.any():
                cols = np.flatnonzero(dropped).astype(np.int32)
                self._model.deleteCols(len(cols), cols)
            rows = [1 + i for i, v in enumerate(self._row_nodes) if v not in degree_bounds]
            if rows:
                self._model.deleteRows(len(rows), np.array(rows, dtype=np.int32))
            self._row_nodes = [v for v in self._row_nodes if v in degree_bounds]
            for row, v in enumerate(self._row_nodes, start=1):
                if degree_bounds[v] != self.degree_bounds[v]:
                    self._model.changeRowBounds(row, -np.inf, degree_bounds[v])
        self.edges = [self.edges[i] for i in kept]
        self.degree_bounds = dict(degree_bounds)
        self._costs = self._costs[kept]
        self._endpoint_u = self._endpoint_u[kept]
        self._endpoint_v = self._endpoint_v[kept]

    def _degree_columns(self) -> List[np.ndarray]:
        """Edge indices of ``delta(v)`` for each lifetime row's node, in row order."""
        endpoints = np.column_stack((self._endpoint_u, self._endpoint_v)).reshape(-1)
        order = np.argsort(endpoints, kind="stable")
        starts = np.searchsorted(endpoints[order], np.arange(self.network.n + 1))
        incident = order // 2  # ascending edge index within each node
        return [incident[starts[v] : starts[v + 1]] for v in self._row_nodes]

    def _cut_columns(self, cuts: Sequence[FrozenSet[int]]) -> List[np.ndarray]:
        """Edge indices of ``E(S)`` for each cut ``S``: both endpoints in S."""
        member = np.zeros(self.network.n, dtype=bool)
        columns = []
        for subset in cuts:
            member[:] = False
            member[list(subset)] = True
            columns.append(
                np.flatnonzero(member[self._endpoint_u] & member[self._endpoint_v])
            )
        return columns

    def _first_block(self) -> Tuple[RowBlock, np.ndarray]:
        """A new model's rows after the spanning row: the lifetime rows
        ``x(delta(v)) <= bound_v`` in :attr:`_row_nodes` order (set here),
        then the carried subtour rows ``x(E(S)) <= |S| - 1``."""
        self._row_nodes = sorted(self.degree_bounds)
        rows = _row_block(
            self._degree_columns() + self._cut_columns(self.cuts), len(self.edges)
        )
        rhs = np.array(
            [self.degree_bounds[v] for v in self._row_nodes]
            + [len(subset) - 1.0 for subset in self.cuts]
        )
        return rows, rhs

    def solve(self) -> LPSolution:
        """Run the cutting-plane loop to an extreme-point optimum.

        The first call builds the HiGHS model with the lifetime rows and the
        carried cuts, and starts its first round from the greedy crash basis
        when that basis is optimal (:func:`_greedy_basis`).  A later call,
        typically after :meth:`restrict`, finds every row already in place
        and re-runs HiGHS warm on the edited model.  Within a call, each
        round after the first appends only the new cuts and re-solves from
        the previous basis.

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

        if self._model is None:
            self._model = _new_model(self._costs, self.network.n)
            rows, rhs = self._first_block()
            basis = _greedy_basis(self._costs, self.network.n, rows, rhs)
        else:
            rows, rhs, basis = _row_block([], n_vars), np.zeros(0), None
        model = self._model
        n_solves = 0
        iterations = 0
        try:
            for _ in range(MAX_CUT_ROUNDS):
                result = linprog(model, A_ub=rows, b_ub=rhs, basis=basis)
                basis = None
                n_solves += 1
                iterations += result.simplex_iterations
                if result.status in _INFEASIBLE:
                    if enabled:
                        OBS.registry.counter("lp.infeasible").inc()
                    raise InfeasibleLifetimeError(
                        "LP(G, L', W) infeasible: no data aggregation tree can "
                        "meet the lifetime bound on the remaining edges"
                    )
                if result.x is None:
                    raise LPSolverError(
                        f"HiGHS failed: {model.modelStatusToString(result.status)}"
                    )

                x = result.x
                violated = find_violated_subtours(self.network.n, self.edges, x)
                if not violated:
                    if enabled:
                        reg = OBS.registry
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
                            simplex_iterations=iterations,
                            cuts_total=len(self.cuts),
                            cuts_added=len(self.cuts) - initial_cut_count,
                            objective=result.objective,
                        )
                    return LPSolution(
                        edges=list(self.edges),
                        x=x,
                        objective=result.objective,
                        cuts=list(self.cuts),
                        n_lp_solves=n_solves,
                        degree_bounds=dict(self.degree_bounds),
                    )
                new_cuts = [s for s in dict.fromkeys(violated) if s not in self.cuts]
                if not new_cuts:
                    raise LPSolverError(
                        "separation oracle repeated an existing cut; "
                        "numerical tolerance mismatch"
                    )
                self.cuts.extend(new_cuts)
                rows = _row_block(self._cut_columns(new_cuts), n_vars)
                rhs = np.array([len(subset) - 1.0 for subset in new_cuts])
            raise LPSolverError(
                f"cutting-plane loop did not converge in {MAX_CUT_ROUNDS} rounds"
            )
        finally:
            # Every exit, the error ones included, records its HiGHS work.
            if enabled:
                OBS.registry.counter("lp.solves").inc(n_solves)
                OBS.registry.counter("lp.simplex_iterations").inc(iterations)


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
