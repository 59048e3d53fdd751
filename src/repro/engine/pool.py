"""The process boundary: one shared worker pool and one remote-build path.

* **One pool.**  Portfolio races (:func:`repro.engine.portfolio.race_builders`)
  and experiment sweeps (:func:`repro.experiments.parallel.parallel_map`)
  :func:`lease` one lazily created, module-level process pool that
  outlives each call, so neither pays a fork or reap per call.  It is
  recreated when the worker count, the builder registry (workers look
  builders up by name), or the process (a forked child never drives its
  parent's pool) changed, or when it broke.  A caller that raises, and a
  race that times out (:func:`kill_pool`), kill its workers: no worker
  outlives its run.
* **One remote build.**  :func:`attempt_build` is the only place a
  builder's exception is caught and turned into ``"ExcType: message"``.
  In a worker, :func:`remote_build` ships the result back as a parent map
  (:data:`BuildRow`), and :func:`bind_row` re-binds it to the caller's
  ``Network``: the same parents over the same links give the identical
  tree.

The serving layer's ``WorkerPool("process")`` keeps its own
server-lifetime executor (a timed-out race kills this pool's workers;
a server's in-flight shards must not die with them), but its shards
build through the same :func:`remote_build` / :func:`bind_row` pair.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.util import Finalize
from typing import Any, Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

import repro.engine.registry as registry_module
from repro.core.tree import AggregationTree
from repro.engine.registry import BuildResult, build_tree
from repro.network.model import Network

__all__ = [
    "BuildRow",
    "Built",
    "attempt_build",
    "bind_row",
    "default_workers",
    "drop_shared_pool",
    "kill_pool",
    "lease",
    "remote_build",
]


def default_workers() -> int:
    """Worker count: physical parallelism minus one, at least 1."""
    return max((os.cpu_count() or 2) - 1, 1)


# ----------------------------------------------------------------------
# One build, local or remote
# ----------------------------------------------------------------------


class Built(NamedTuple):
    """One build attempt: a result, or the builder's error string."""

    result: Optional[BuildResult]
    #: ``"ExcType: message"`` when the builder raised, else ``None``.
    error: Optional[str]
    elapsed_s: float


#: A build as it crosses back from a worker: ``(parents, meta, error,
#: elapsed_s)``; ``parents`` is ``None`` when the builder raised.
BuildRow = Tuple[Optional[Dict[int, int]], Dict[str, Any], Optional[str], float]


def attempt_build(network: Network, builder: str, params: Mapping[str, Any]) -> Built:
    """Build *builder* on *network*; a builder failure is returned, not raised."""
    start = time.perf_counter()
    try:
        result = build_tree(builder, network, **params)
    except Exception as exc:  # noqa: BLE001 — reported per build, not fatal
        return Built(None, f"{type(exc).__name__}: {exc}", time.perf_counter() - start)
    return Built(result, None, result.elapsed_s)


def remote_build(network: Network, builder: str, params: Mapping[str, Any]) -> BuildRow:
    """:func:`attempt_build` in a worker, shipped back as a picklable row."""
    result, error, elapsed = attempt_build(network, builder, params)
    if result is None:
        return (None, {}, error, elapsed)
    return (dict(result.tree.parents), dict(result.meta), None, elapsed)


def bind_row(
    network: Network, builder: str, params: Mapping[str, Any], row: BuildRow
) -> Built:
    """Re-bind a worker's :data:`BuildRow` to the caller's *network*."""
    parents, meta, error, elapsed = row
    if parents is None:
        return Built(None, error, elapsed)
    result = BuildResult(
        builder=builder,
        tree=AggregationTree(network, parents),
        params=dict(params),
        meta=meta,
        elapsed_s=elapsed,
    )
    return Built(result, None, elapsed)


# ----------------------------------------------------------------------
# The shared pool
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _SharedPool:
    """The module-level pool and what its workers were forked with."""

    executor: ProcessPoolExecutor
    workers: int
    #: The registry at creation (builders compare by identity; holding
    #: them keeps their identities from being reused by replacements).
    registry: Dict[str, Any]
    pid: int


_SHARED: Optional[_SharedPool] = None
#: Held by the one caller using the shared pool; a concurrent caller
#: (from another thread) runs on a private pool instead.
_SHARED_LOCK = threading.Lock()
#: The process that registered the exit hook for its shared pool.
_EXIT_HOOK_PID: Optional[int] = None
#: Pools inherited across ``fork()``.  They are never used or collected:
#: collecting one would signal the parent's pool through a shared pipe.
_INHERITED: List[_SharedPool] = []


def kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate *pool*'s worker processes, reap them, and shut it down.

    Returns once every killed process reports an exit code, so
    ``multiprocessing.active_children()`` no longer lists it.  The pool's
    manager thread may reap a process first; the ``join`` that loses that
    ``waitpid`` race returns before the winner has stored the exit code.
    """
    processes = list((pool._processes or {}).values())
    for proc in processes:
        proc.terminate()
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        proc.join()
        while proc.exitcode is None:
            time.sleep(0.001)


def _own_shared() -> Optional[_SharedPool]:
    """The shared pool if this process created it (an inherited one is parked)."""
    shared = _SHARED
    if shared is not None and shared.pid != os.getpid():
        _INHERITED.append(shared)
        return None
    return shared


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, recreated when it no longer fits this caller."""
    global _SHARED, _EXIT_HOOK_PID
    registry = dict(registry_module._REGISTRY)
    shared = _own_shared()
    if shared is not None and (
        shared.workers != workers
        or shared.executor._broken
        or shared.executor._shutdown_thread
        or shared.registry != registry
    ):
        kill_pool(shared.executor)
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
            Finalize(None, drop_shared_pool, exitpriority=0)
    return shared.executor


def drop_shared_pool() -> None:
    """Kill the shared pool's workers; the next lease forks anew.

    Call it only while no lease is held (at exit, or between bench races).
    """
    global _SHARED
    shared, _SHARED = _own_shared(), None
    if shared is not None:
        kill_pool(shared.executor)


@contextmanager
def lease(workers: int) -> Iterator[ProcessPoolExecutor]:
    """Lend the shared pool for one race or sweep; kill it if the caller raises.

    While another thread holds the shared pool, lend a private pool
    instead, killed afterwards, so no caller kills another's workers.
    """
    if not _SHARED_LOCK.acquire(blocking=False):
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            yield pool
        finally:
            kill_pool(pool)
        return
    try:
        pool = _shared_pool(workers)
        try:
            yield pool
        except BaseException:
            kill_pool(pool)
            raise
    finally:
        _SHARED_LOCK.release()
