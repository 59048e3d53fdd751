"""Parallel execution of embarrassingly-parallel experiment sweeps.

The random-graph experiments (Figs. 8–10) run hundreds of independent
trials; each trial's seed is already a pure function of its semantic labels
(:func:`repro.utils.rng.stable_hash_seed`), so trials can be distributed
across processes with **bitwise-identical** results to the serial loop —
the property the tests pin.

Design notes (per the scientific-Python guidance this project follows):

* processes, not threads — the LP solver and the local searches are
  CPU-bound Python;
* chunked map — each worker gets a contiguous block of trial indices to
  amortise process start-up and pickling;
* the pool is only engaged when the caller asks for it — an explicit
  ``n_jobs > 1`` is always honoured (it used to be silently demoted to the
  serial path below a size threshold); :data:`MIN_ITEMS_FOR_POOL` remains
  the published guidance for callers deciding whether a sweep is big
  enough to be worth forking for;
* long-running callers can pass a pre-created ``executor`` — the serving
  layer (:mod:`repro.serve`) dispatches many small batches and must not
  pay fork+import per batch, so both entry points accept an existing
  :class:`concurrent.futures.Executor` and leave its lifecycle to the
  owner (no ``shutdown`` on exit).
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.utils.rng import reject_generators

__all__ = [
    "ParallelBuildError",
    "default_workers",
    "parallel_build",
    "parallel_map",
]

T = TypeVar("T")


class ParallelBuildError(RuntimeError):
    """A sweep trial's builder failed; names the builder and trial index.

    Raised by :func:`parallel_build` in place of the builder's own
    exception, which — surfacing from a worker process deep in a pool map —
    otherwise says nothing about *which* of the hundreds of trials died or
    what builder/config it was running.  The original exception stays
    available as ``__cause__``.

    The ``(builder, index, detail)`` args round-trip through pickle, so the
    error crosses the process boundary intact.
    """

    def __init__(self, builder: str, index: int, detail: str):
        super().__init__(builder, index, detail)
        self.builder = builder
        self.index = index
        self.detail = detail

    def __str__(self) -> str:
        return (
            f"builder {self.builder!r} failed on trial {self.index}: "
            f"{self.detail}"
        )

#: Advisory pool threshold: below this many items the fork+import cost
#: typically dwarfs the work, so callers picking a worker count themselves
#: should prefer ``n_jobs=None`` (serial).  :func:`parallel_map` no longer
#: applies it to an *explicit* ``n_jobs > 1`` — the caller knows their
#: per-item cost better than a global constant does.
MIN_ITEMS_FOR_POOL = 8


def default_workers() -> int:
    """Worker count: physical parallelism minus one, at least 1."""
    return max((os.cpu_count() or 2) - 1, 1)


def _run_block(args: Tuple[Callable[[int], T], Sequence[int]]) -> List[T]:
    func, indices = args
    return [func(i) for i in indices]


def _build_indexed(
    builder: str,
    network_factory: Callable[[int], Any],
    config: Dict[str, Any],
    index: int,
):
    from repro.engine import build_tree

    try:
        return build_tree(builder, network_factory(index), **config)
    except Exception as exc:
        raise ParallelBuildError(
            builder, index, f"{type(exc).__name__}: {exc}"
        ) from exc


def parallel_build(
    builder: str,
    network_factory: Callable[[int], Any],
    n_trials: int,
    *,
    config: Optional[Dict[str, Any]] = None,
    n_jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> List[Any]:
    """Run one registry builder over ``n_trials`` independent networks.

    The builder is addressed by its registry *name* (a plain string, so the
    work items pickle cheaply) and is resolved once up-front to fail fast on
    typos.  ``network_factory(i)`` must build trial *i*'s network from the
    index alone (derive seeds from ``i``), which makes the sweep
    schedule-independent exactly like :func:`parallel_map`.

    ``executor`` reuses a caller-owned worker pool (see
    :func:`parallel_map`) instead of spawning one per call.  On that pool
    path a live ``numpy.random.Generator`` in *config* or in
    *network_factory*'s closure raises ``ValueError``.

    Returns the :class:`repro.engine.BuildResult` list in trial order.
    """
    from functools import partial

    from repro.engine import get_builder

    get_builder(builder)  # fail fast on unknown names before forking
    func = partial(_build_indexed, builder, network_factory, dict(config or {}))
    return parallel_map(
        func, n_trials, n_jobs=n_jobs, chunk_size=chunk_size, executor=executor
    )


def parallel_map(
    func: Callable[[int], T],
    n_items: int,
    *,
    n_jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> List[T]:
    """Evaluate ``[func(0), ..., func(n_items - 1)]``, possibly in parallel.

    Args:
        func: Index -> result; must be picklable (a module-level function or
            functools.partial of one) and must derive all randomness from
            the index, so results are order- and schedule-independent.  On
            the pool path a live ``numpy.random.Generator`` in *func* (its
            partial arguments, closure or defaults) raises ``ValueError``.
        n_items: Number of items.
        n_jobs: Process count; ``None`` or ``1`` runs serially (``None``
            stays serial to keep the default path dependency-free;
            pass ``default_workers()`` to use all cores).  An explicit
            ``n_jobs > 1`` always engages the pool — the
            :data:`MIN_ITEMS_FOR_POOL` heuristic only applies when the
            caller left the decision to this function.  (It used to apply
            unconditionally, silently running serially for small sweeps the
            caller explicitly asked to parallelise — e.g. few trials that
            are each expensive.)
        chunk_size: Items per worker task (default: balanced blocks).
        executor: Pre-created worker pool to submit blocks to.  The pool is
            *borrowed*: it is not shut down on return, so a long-running
            caller (the tree server, a sweep loop) pays process start-up
            once and reuses the same workers across many calls.  With an
            executor, ``n_jobs`` only sizes the chunking (default
            :func:`default_workers`); the executor's own worker count
            bounds actual parallelism.

    Returns results in index order, identical to the serial evaluation.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be non-negative, got {n_items}")
    if n_items == 0:
        return []
    if n_jobs is not None and n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if chunk_size is not None and chunk_size < 1:
        # Without this, chunk_size=0 used to escape as an opaque
        # "range() arg 3 must not be zero" from the block splitter.
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")

    if executor is None and (n_jobs is None or n_jobs == 1):
        return [func(i) for i in range(n_items)]
    reject_generators(func, "parallel_map")

    workers = min(n_jobs if n_jobs is not None else default_workers(), n_items)
    if chunk_size is None:
        chunk_size = max(1, (n_items + workers - 1) // workers)
    blocks = [
        list(range(start, min(start + chunk_size, n_items)))
        for start in range(0, n_items, chunk_size)
    ]
    tasks = [(func, block) for block in blocks]
    results: List[T] = []
    if executor is not None:
        for block_result in executor.map(_run_block, tasks):
            results.extend(block_result)
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for block_result in pool.map(_run_block, tasks):
            results.extend(block_result)
    return results
