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
  registry *names* plus JSON-able params (the same discipline as
  :func:`repro.experiments.parallel.parallel_build`), and results come
  back as plain parent maps that are re-bound to the caller's network, so
  winner metrics are bitwise identical to an in-process build.  A live
  ``numpy.random.Generator`` in member params is rejected before submit.
* **One shared pool** — parallel races run on one lazily created,
  module-level process pool that outlives the race, so a race pays no
  fork or reap.  The pool is recreated when the worker count, the builder
  registry (workers look members up by name), or the process (a forked
  child never drives its parent's pool) changed, or when it broke.  A
  race that times out kills the pool's workers and drops the pool, so no
  member outlives its race.  A borrowed executor (e.g.
  ``WorkerPool.executor``) is still honoured and never shut down.

Per-member seeds are derived with :func:`repro.utils.rng.stable_hash_seed`
from the portfolio seed and the member *name*, so they do not depend on
member order or execution schedule.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from multiprocessing.util import Finalize
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import repro.engine.registry as registry_module
from repro.core.errors import MRLCError
from repro.core.tree import AggregationTree
from repro.network.model import Network
from repro.obs import OBS
from repro.utils.rng import reject_generators

__all__ = [
    "DEFAULT_MEMBERS",
    "MemberOutcome",
    "PortfolioBenchReport",
    "PortfolioError",
    "build_portfolio_tree",
    "race_builders",
    "run_portfolio_bench",
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


def _race_one(
    network: Network, member: str, params: Dict[str, Any]
) -> Tuple[str, Optional[Dict[int, int]], float, Optional[str]]:
    """Build one member; wire-friendly ``(member, parents, elapsed, error)``.

    Runs inside worker processes, so it must stay module-level picklable
    and must never raise for a builder failure — the error string is the
    isolation boundary.
    """
    from repro.engine.registry import build_tree

    start = time.perf_counter()
    try:
        result = build_tree(member, network, **params)
        return (member, dict(result.tree.parents), result.elapsed_s, None)
    except Exception as exc:  # noqa: BLE001 — isolated per member
        detail = f"{type(exc).__name__}: {exc}"
        return (member, None, time.perf_counter() - start, detail)


def _bind_outcome(
    network: Network,
    member: str,
    order: int,
    row: Tuple[str, Optional[Dict[int, int]], float, Optional[str]],
    lc: Optional[float],
) -> MemberOutcome:
    _, parents, elapsed, error = row
    if parents is None:
        return MemberOutcome(
            member=member, order=order, status="error", elapsed_s=elapsed, error=error
        )
    tree = AggregationTree(network, parents)
    lifetime = tree.lifetime()
    return MemberOutcome(
        member=member,
        order=order,
        status="ok",
        elapsed_s=elapsed,
        tree=tree,
        cost=tree.cost(),
        reliability=tree.reliability(),
        lifetime=lifetime,
        feasible=lc is None or tree.meets_lifetime(lc),
    )


@dataclass(frozen=True)
class _SharedPool:
    """The module-level race pool and what its workers were forked with."""

    executor: ProcessPoolExecutor
    workers: int
    #: The registry at creation (builders compare by identity; holding
    #: them keeps their identities from being reused by replacements).
    registry: Dict[str, Any]
    pid: int


_SHARED: Optional[_SharedPool] = None
#: Held by the one race using the shared pool; a concurrent race (from
#: another thread) races on a private pool instead.
_SHARED_LOCK = threading.Lock()
#: The process that registered the exit hook for its shared pool.
_EXIT_HOOK_PID: Optional[int] = None
#: Pools inherited across ``fork()``.  They are never used or collected:
#: collecting one would signal the parent's pool through a shared pipe.
_INHERITED: List[_SharedPool] = []


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate *pool*'s worker processes, reap them, and shut it down."""
    processes = list((pool._processes or {}).values())
    for proc in processes:
        proc.terminate()
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        proc.join()


def _own_shared() -> Optional[_SharedPool]:
    """The shared pool if this process created it (an inherited one is parked)."""
    shared = _SHARED
    if shared is not None and shared.pid != os.getpid():
        _INHERITED.append(shared)
        return None
    return shared


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The shared race pool, recreated when it no longer fits this race."""
    global _SHARED, _EXIT_HOOK_PID
    registry = dict(registry_module._REGISTRY)
    shared = _own_shared()
    if shared is not None and (
        shared.workers != workers
        or shared.executor._broken
        or shared.executor._shutdown_thread
        or shared.registry != registry
    ):
        _kill_pool(shared.executor)
        shared = None
    if shared is None:
        shared = _SharedPool(
            ProcessPoolExecutor(max_workers=workers), workers, registry, os.getpid()
        )
        _SHARED = shared
        if _EXIT_HOOK_PID != shared.pid:
            # multiprocessing runs this at interpreter exit, and also where
            # atexit never runs: a worker process's exit, which would
            # otherwise wait forever on this pool's idle workers.
            _EXIT_HOOK_PID = shared.pid
            Finalize(None, _drop_shared_pool, exitpriority=0)
    return shared.executor


def _drop_shared_pool() -> None:
    """Kill the shared pool's workers; the next parallel race forks anew.

    Call it only while no race runs (at exit, or between bench races).
    """
    global _SHARED
    shared, _SHARED = _own_shared(), None
    if shared is not None:
        _kill_pool(shared.executor)


@contextmanager
def _race_pool(workers: int) -> Iterator[ProcessPoolExecutor]:
    """Lend the shared pool for one race; kill it if the race raises.

    While another thread races on the shared pool, lend a private pool
    instead, killed after the race, so no race kills another's members.
    """
    if not _SHARED_LOCK.acquire(blocking=False):
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            yield pool
        finally:
            _kill_pool(pool)
        return
    try:
        pool = _shared_pool(workers)
        try:
            yield pool
        except BaseException:
            _kill_pool(pool)
            raise
    finally:
        _SHARED_LOCK.release()


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
    executor: Optional[Executor] = None,
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
            iff a budget or an explicit ``n_jobs``/``executor`` asks for
            it — a budget is only enforceable mid-build across processes.
        n_jobs: Worker process count for the parallel race.  Default: one
            per member — anything less lets a hanging member starve the
            queued ones, which breaks the isolation guarantee.
        executor: Borrowed process pool (e.g. ``WorkerPool.executor``)
            used instead of the shared pool; not shut down on return, and
            a timed-out member's worker is left running.  Note a *thread*
            pool cannot isolate a hanging member — pass a process pool
            when budgets matter.

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
        parallel = (
            budget_s is not None or n_jobs is not None or executor is not None
        )

    deadline = None if budget_s is None else time.perf_counter() + budget_s
    rows: Dict[str, Tuple[str, Optional[Dict[int, int]], float, Optional[str]]] = {}
    crashed: Dict[str, str] = {}
    timed_out: List[str] = []
    skipped: List[str] = []

    if not parallel:
        for name, params in zip(members, configs):
            if deadline is not None and time.perf_counter() >= deadline:
                skipped.append(name)
                continue
            rows[name] = _race_one(network, name, params)
    else:
        for name, params in zip(members, configs):
            reject_generators(params, f"member {name!r}")
        workers = n_jobs if n_jobs is not None else len(members)
        lease = (
            _race_pool(max(1, min(workers, len(members))))
            if executor is None
            else nullcontext(executor)
        )
        with lease as pool:
            futures = {
                pool.submit(_race_one, network, name, params): name
                for name, params in zip(members, configs)
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
                        rows[name] = fut.result()
            timed_out = sorted(
                futures[fut] for fut in pending if futures[fut] not in crashed
            )
            for fut in pending:
                fut.cancel()
            if pending and executor is None:
                # A hung member must not outlive its race: kill every
                # worker; the next race forks a fresh pool.
                _kill_pool(pool)

    outcomes: List[MemberOutcome] = []
    for order, name in enumerate(members):
        if name in rows:
            outcomes.append(_bind_outcome(network, name, order, rows[name], lc))
        elif name in crashed:
            outcomes.append(
                MemberOutcome(
                    member=name, order=order, status="crashed", error=crashed[name]
                )
            )
        elif name in timed_out:
            outcomes.append(MemberOutcome(member=name, order=order, status="timeout"))
        else:
            outcomes.append(MemberOutcome(member=name, order=order, status="skipped"))

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
    executor: Optional[Executor] = None,
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
        executor=executor,
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


# ----------------------------------------------------------------------
# Benchmark trajectory (BENCH_portfolio.json, `repro bench-portfolio`)
# ----------------------------------------------------------------------

BENCH_PORTFOLIO_FORMAT = "repro-bench-portfolio"
BENCH_PORTFOLIO_VERSION = 1


@dataclass(frozen=True)
class PortfolioBenchReport:
    """One measured portfolio race: serial vs parallel wall-clock.

    ``speedup`` (serial over parallel elapsed) is the machine-portable
    headline the bench-diff sentinel watches; identical winners between
    the two modes are *asserted*, not measured.  The cold parallel race
    (``parallel_s``) forks the shared pool; the warm one
    (``warm_parallel_s``, ``warm_speedup``) is a second race on it.
    """

    n_nodes: int
    members: Tuple[str, ...]
    winner: str
    feasible: bool
    serial_s: float
    parallel_s: float
    speedup: float
    warm_parallel_s: float
    warm_speedup: float
    serial_builds_per_s: float
    statuses: Dict[str, str] = field(default_factory=dict)
    timestamp: float = 0.0

    def to_doc(self) -> Dict[str, Any]:
        doc = {
            "n_nodes": self.n_nodes,
            "members": list(self.members),
            "winner": self.winner,
            "feasible": self.feasible,
            "serial_s": self.serial_s,
            "parallel_s": self.parallel_s,
            "speedup": self.speedup,
            "warm_parallel_s": self.warm_parallel_s,
            "warm_speedup": self.warm_speedup,
            "serial_builds_per_s": self.serial_builds_per_s,
            "statuses": dict(self.statuses),
            "timestamp": self.timestamp,
        }
        return doc

    def render(self) -> str:
        lines = [
            "portfolio bench",
            f"  n={self.n_nodes}, members={','.join(self.members)}",
            f"  serial   {self.serial_s:.3f}s "
            f"({self.serial_builds_per_s:.1f} builds/s)",
            f"  parallel {self.parallel_s:.3f}s  ({self.speedup:.2f}x, cold pool)",
            f"  parallel {self.warm_parallel_s:.3f}s  "
            f"({self.warm_speedup:.2f}x, warm pool)",
            f"  winner {self.winner} (feasible={self.feasible})",
        ]
        return "\n".join(lines)


def run_portfolio_bench(
    *,
    n_nodes: int = 60,
    link_probability: float = 0.3,
    members: Sequence[str] = DEFAULT_MEMBERS,
    lc_fraction: float = 0.5,
    seed: int = 0,
    n_jobs: Optional[int] = None,
) -> PortfolioBenchReport:
    """Measure a serial race, then a cold and a warm parallel race.

    The cold race starts from no shared pool, so it pays the fork; the
    warm race reuses that pool.  The LC bound is ``lc_fraction`` of the
    instance's AAML lifetime (the repo's standard bound source).  Winner
    identity across the three races is asserted — the determinism
    contract — before any timing is reported.
    """
    from repro.engine.registry import build_tree
    from repro.network.topology import random_graph

    network = random_graph(n_nodes, link_probability, seed=seed)
    lc = lc_fraction * build_tree("aaml", network).lifetime

    t0 = time.perf_counter()
    serial = race_builders(
        network, tuple(members), lc=lc, seed=seed, parallel=False
    )
    serial_s = time.perf_counter() - t0
    _drop_shared_pool()
    parallel_s: List[float] = []
    serial_winner = select_winner(serial, lc=lc)
    for _ in range(2):
        t1 = time.perf_counter()
        parallel = race_builders(
            network, tuple(members), lc=lc, seed=seed, parallel=True, n_jobs=n_jobs
        )
        parallel_s.append(time.perf_counter() - t1)
        parallel_winner = select_winner(parallel, lc=lc)
        if serial_winner.tree != parallel_winner.tree:
            raise AssertionError(
                "portfolio determinism violated: serial winner "
                f"{serial_winner.member} != parallel winner "
                f"{parallel_winner.member}"
            )
    cold_s, warm_s = parallel_s
    return PortfolioBenchReport(
        n_nodes=n_nodes,
        members=tuple(members),
        winner=serial_winner.member,
        feasible=serial_winner.feasible,
        serial_s=serial_s,
        parallel_s=cold_s,
        speedup=serial_s / max(cold_s, 1e-9),
        warm_parallel_s=warm_s,
        warm_speedup=serial_s / max(warm_s, 1e-9),
        serial_builds_per_s=len(members) / max(serial_s, 1e-9),
        statuses={o.member: o.status for o in serial},
        timestamp=time.time(),
    )
