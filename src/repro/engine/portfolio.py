"""Algorithm portfolio: race registry builders under a wall-clock budget.

ROADMAP item 3.  The library now carries many tree builders with very
different cost/lifetime trade-offs (the paper's IRA, the related-work
baselines, the heuristics); which one wins depends on the instance.  The
portfolio meta-builder turns that open set into an *anytime solver*: run a
configurable member set — in parallel across processes when a budget is in
play — collect whatever finished inside the budget, and return the best
LC-feasible tree.

Guarantees the tests pin:

* **Failure isolation** — a member that raises is recorded as
  ``status="error"`` with the builder's name in the message; a member that
  is still running when the budget expires is recorded as
  ``status="timeout"``.  Neither costs the race the other members'
  results: the outcome list (and therefore the winner) is identical to
  racing the surviving members alone.
* **Deterministic selection** — the winner is a pure function of the
  member *outcomes*, never of their completion order: LC-feasible members
  are ranked by (cost, member order), infeasible fallbacks by
  (-lifetime, cost, member order).  With no timeouts the serial and
  parallel races therefore pick bitwise-identical winners.
* **Pickle-clean parallelism** — members cross the process boundary as
  registry *names* plus JSON-able params through
  :mod:`repro.engine.pool`'s one remote-build path, and results come back
  as plain parent maps re-bound to the caller's network, so winner
  metrics are bitwise identical to an in-process build.  A live
  ``numpy.random.Generator`` in member params is rejected before submit.
* **One shared pool** — parallel races lease :mod:`repro.engine.pool`'s
  shared process pool (sweeps lease the same one), so a race pays no fork
  or reap.  A race that times out kills the pool's workers, so no member
  outlives its race.

Per-member seeds are derived with :func:`repro.utils.rng.stable_hash_seed`
from the portfolio seed and the member *name*, so they do not depend on
member order or execution schedule.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.errors import MRLCError
from repro.core.tree import AggregationTree
from repro.engine.pool import (
    Built,
    attempt_build,
    bind_row,
    kill_pool,
    lease,
    remote_build,
)
from repro.network.model import Network
from repro.obs import OBS
from repro.utils.rng import reject_generators

__all__ = [
    "DEFAULT_MEMBERS",
    "MemberOutcome",
    "PortfolioError",
    "build_portfolio_tree",
    "race_builders",
    "select_winner",
]

#: Default member set: the paper's LP-free heuristic plus the related-work
#: lifetime/energy specialists.  IRA is deliberately not in the default —
#: it needs an LP solver warm-up that dwarfs tiny-budget races; add it
#: explicitly for quality-first runs.
DEFAULT_MEMBERS: Tuple[str, ...] = (
    "local_search",
    "clmt",
    "dlmt",
    "convergecast",
    "min_energy",
)

#: Outcome statuses a member can end a race with.
MEMBER_STATUSES = ("ok", "error", "timeout", "skipped", "crashed")


class PortfolioError(MRLCError):
    """No portfolio member produced a tree (all errored/timed out)."""


@dataclass(frozen=True)
class MemberOutcome:
    """One member's result in a race.

    Attributes:
        member: Registry name of the builder.
        order: Position in the caller's member sequence (the deterministic
            tie-breaker).
        status: One of :data:`MEMBER_STATUSES`.  ``crashed`` means the
            worker process died (its exception surfaced outside the
            builder wrapper); ``skipped`` means the serial race's budget
            was exhausted before this member started.
        elapsed_s: Wall-clock build time (0 for skipped members).
        tree: The built tree re-bound to the caller's network (``None``
            unless ``status == "ok"``).
        error: ``"ExcType: message"`` for error/crashed members.
        cost / reliability / lifetime: The tree's aggregation metrics.
        feasible: Whether the tree meets the race's LC bound (always
            ``True`` when no bound was given).
    """

    member: str
    order: int
    status: str
    elapsed_s: float = 0.0
    tree: Optional[AggregationTree] = None
    error: Optional[str] = None
    cost: Optional[float] = None
    reliability: Optional[float] = None
    lifetime: Optional[float] = None
    feasible: bool = False

    def to_meta(self) -> Dict[str, Any]:
        """JSON-able summary for ``BuildResult.meta`` and wire responses."""
        return {
            "status": self.status,
            "elapsed_s": self.elapsed_s,
            "cost": self.cost,
            "reliability": self.reliability,
            "lifetime": self.lifetime,
            "feasible": self.feasible,
            "error": self.error,
        }


def member_configs(
    members: Sequence[str],
    *,
    lc: Optional[float] = None,
    seed: Optional[int] = None,
    member_params: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> List[Dict[str, Any]]:
    """Resolve per-member config dicts (and fail fast on unknown members).

    ``lc`` and ``seed`` are merged into each member's params iff the
    builder declares the knob (the same sugar the serving layer applies to
    :class:`~repro.serve.request.BuildRequest`); explicit entries in
    ``member_params[name]`` always win.  Seeds are derived per member name
    so they are independent of member order and execution schedule.
    """
    from repro.engine.registry import get_builder
    from repro.utils.rng import stable_hash_seed

    if not members:
        raise ValueError("portfolio needs at least one member builder")
    if len(set(members)) != len(members):
        raise ValueError(f"duplicate member names in {list(members)}")
    overrides = dict(member_params or {})
    unknown = sorted(set(overrides) - set(members))
    if unknown:
        raise ValueError(
            f"member_params for non-members: {unknown}; racing {list(members)}"
        )
    configs: List[Dict[str, Any]] = []
    for name in members:
        builder = get_builder(name)
        params: Dict[str, Any] = dict(overrides.get(name, {}))
        if lc is not None and "lc" in builder.knobs and "lc" not in params:
            params["lc"] = lc
        if seed is not None and "seed" in builder.knobs and "seed" not in params:
            params["seed"] = stable_hash_seed("portfolio", seed, name)
        configs.append(params)
    return configs


def _outcome(
    member: str, order: int, built: Built, lc: Optional[float]
) -> MemberOutcome:
    result, error, elapsed = built
    if result is None:
        return MemberOutcome(
            member=member, order=order, status="error", elapsed_s=elapsed, error=error
        )
    tree = result.tree
    return MemberOutcome(
        member=member,
        order=order,
        status="ok",
        elapsed_s=elapsed,
        tree=tree,
        cost=tree.cost(),
        reliability=tree.reliability(),
        lifetime=tree.lifetime(),
        feasible=lc is None or tree.meets_lifetime(lc),
    )


def race_builders(
    network: Network,
    members: Sequence[str] = DEFAULT_MEMBERS,
    *,
    lc: Optional[float] = None,
    budget_s: Optional[float] = None,
    seed: Optional[int] = None,
    member_params: Optional[Mapping[str, Mapping[str, Any]]] = None,
    parallel: Optional[bool] = None,
    n_jobs: Optional[int] = None,
) -> List[MemberOutcome]:
    """Race *members* on *network*; outcomes come back in member order.

    Args:
        network: The instance every member builds on.
        members: Registry builder names (unique; resolved up-front).
        lc: Lifetime bound feasibility is judged against; merged into the
            params of members that declare an ``lc`` knob.
        budget_s: Wall-clock budget.  In a parallel race, members still
            running at the deadline are recorded as ``timeout`` and, on
            the shared pool, every worker is killed; in a serial race the
            budget is checked between members and the remainder is
            ``skipped``.
        seed: Portfolio seed; member seeds derive from it by name.
        member_params: Per-member config overrides, keyed by member name.
        parallel: Force the execution mode.  Default (``None``): parallel
            iff a budget or an explicit ``n_jobs`` asks for it — a budget
            is only enforceable mid-build across processes.
        n_jobs: Worker process count for the parallel race.  Default: one
            per member — anything less lets a hanging member starve the
            queued ones, which breaks the isolation guarantee.

    Raises:
        UnknownBuilderError: A member name is not registered.
        ValueError: Duplicate members, bad budget, bad ``n_jobs``, or a
            ``numpy.random.Generator`` in a parallel member's params.
    """
    configs = member_configs(
        members, lc=lc, seed=seed, member_params=member_params
    )
    if budget_s is not None and budget_s <= 0:
        raise ValueError(f"budget_s must be positive, got {budget_s}")
    if n_jobs is not None and n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if parallel is None:
        parallel = budget_s is not None or n_jobs is not None

    config_of = dict(zip(members, configs))
    deadline = None if budget_s is None else time.perf_counter() + budget_s
    built: Dict[str, Built] = {}
    crashed: Dict[str, str] = {}
    timed_out: Set[str] = set()

    if not parallel:
        for name, params in config_of.items():
            if deadline is None or time.perf_counter() < deadline:
                built[name] = attempt_build(network, name, params)
    else:
        for name, params in config_of.items():
            reject_generators(params, f"member {name!r}")
        workers = n_jobs if n_jobs is not None else len(members)
        with lease(max(1, min(workers, len(members)))) as pool:
            futures = {
                pool.submit(remote_build, network, name, params): name
                for name, params in config_of.items()
            }
            pending = set(futures)
            while pending:
                remaining = (
                    None if deadline is None else deadline - time.perf_counter()
                )
                if remaining is not None and remaining <= 0:
                    break
                done, pending = wait(
                    pending, timeout=remaining, return_when=FIRST_COMPLETED
                )
                for fut in done:
                    name = futures[fut]
                    exc = fut.exception()
                    if exc is not None:
                        # The builder wrapper never raises; this is the
                        # worker process itself dying (BrokenProcessPool,
                        # unpicklable payloads, ...).
                        crashed[name] = f"{type(exc).__name__}: {exc}"
                    else:
                        built[name] = bind_row(
                            network, name, config_of[name], fut.result()
                        )
            timed_out = {futures[fut] for fut in pending}
            for fut in pending:
                fut.cancel()
            if pending:
                # A hung member must not outlive its race: kill every
                # worker; the next race forks a fresh pool.
                kill_pool(pool)

    outcomes: List[MemberOutcome] = []
    for order, name in enumerate(members):
        if name in built:
            outcome = _outcome(name, order, built[name], lc)
        elif name in crashed:
            outcome = MemberOutcome(
                member=name, order=order, status="crashed", error=crashed[name]
            )
        else:
            status = "timeout" if name in timed_out else "skipped"
            outcome = MemberOutcome(member=name, order=order, status=status)
        outcomes.append(outcome)

    if OBS.enabled:
        reg = OBS.registry
        reg.counter("portfolio.races").inc()
        for outcome in outcomes:
            reg.counter(
                "portfolio.members", member=outcome.member, status=outcome.status
            ).inc()
            if outcome.status in ("ok", "error"):
                reg.histogram(
                    "portfolio.member_seconds", member=outcome.member
                ).observe(outcome.elapsed_s)
    return outcomes


def select_winner(
    outcomes: Sequence[MemberOutcome], *, lc: Optional[float] = None
) -> MemberOutcome:
    """Deterministically pick the race winner from *outcomes*.

    LC-feasible members are ranked by (cost, member order) — the paper's
    objective: maximize reliability subject to the lifetime bound.  If no
    member is feasible the closest one wins (max lifetime, then cost,
    then order) so the portfolio still returns its best effort; callers
    can see ``feasible=False`` on the outcome.

    Raises:
        PortfolioError: No member has ``status == "ok"``.
    """
    ok = [o for o in outcomes if o.status == "ok"]
    if not ok:
        summary = ", ".join(
            f"{o.member}={o.status}" + (f" ({o.error})" if o.error else "")
            for o in outcomes
        )
        raise PortfolioError(f"no portfolio member produced a tree: {summary}")
    feasible = [o for o in ok if o.feasible]
    if feasible:
        return min(feasible, key=lambda o: (o.cost, o.order))
    if lc is not None:
        # Closest-to-feasible fallback: longest lifetime first.
        return min(ok, key=lambda o: (-(o.lifetime or 0.0), o.cost, o.order))
    return min(ok, key=lambda o: (o.cost, o.order))


def build_portfolio_tree(
    network: Network,
    *,
    lc: Optional[float] = None,
    members: Optional[Sequence[str]] = None,
    budget_s: Optional[float] = None,
    seed: Optional[int] = None,
    member_params: Optional[Mapping[str, Mapping[str, Any]]] = None,
    parallel: Optional[bool] = None,
    n_jobs: Optional[int] = None,
) -> Tuple[AggregationTree, Dict[str, Any]]:
    """Race a member set and return ``(winning tree, portfolio meta)``.

    This is the function behind the registered ``portfolio`` builder; see
    :func:`race_builders` for the racing semantics and
    :func:`select_winner` for the deterministic ranking.  The returned
    meta maps cleanly to JSON: winner name, feasibility, budget, and a
    per-member ``{status, elapsed_s, cost, reliability, lifetime,
    feasible, error}`` table.
    """
    member_list = tuple(members if members is not None else DEFAULT_MEMBERS)
    outcomes = race_builders(
        network,
        member_list,
        lc=lc,
        budget_s=budget_s,
        seed=seed,
        member_params=member_params,
        parallel=parallel,
        n_jobs=n_jobs,
    )
    winner = select_winner(outcomes, lc=lc)
    if OBS.enabled:
        OBS.registry.counter("portfolio.wins", member=winner.member).inc()
    meta: Dict[str, Any] = {
        "winner": winner.member,
        "feasible": winner.feasible,
        "lc": lc,
        "budget_s": budget_s,
        "members": {o.member: o.to_meta() for o in outcomes},
    }
    assert winner.tree is not None  # status == "ok" implies a bound tree
    return winner.tree, meta
