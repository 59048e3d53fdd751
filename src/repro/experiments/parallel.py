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
  ``n_jobs > 1`` is always honoured; :data:`MIN_ITEMS_FOR_POOL` is the
  published guidance for callers deciding whether a sweep is big enough
  to be worth forking for;
* one pool — a sweep leases :mod:`repro.engine.pool`'s shared worker pool,
  the one portfolio races use, so back-to-back sweeps (``mrlc all
  --jobs N``) fork their workers once.

A sweep of registry builds is ``parallel_map(partial(f, ...), n)`` with a
module-level ``f(..., index)`` that calls
:func:`repro.engine.build_tree` on trial *index*'s network.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.engine.pool import default_workers, lease
from repro.utils.rng import reject_generators

__all__ = [
    "default_workers",
    "parallel_map",
]

T = TypeVar("T")

#: Advisory pool threshold: below this many items the fork+import cost
#: typically dwarfs the work, so callers picking a worker count themselves
#: should prefer ``n_jobs=None`` (serial).  :func:`parallel_map` never
#: applies it to an explicit ``n_jobs > 1``.
MIN_ITEMS_FOR_POOL = 8


def _run_block(args: Tuple[Callable[[int], T], Sequence[int]]) -> List[T]:
    func, indices = args
    return [func(i) for i in indices]


def parallel_map(
    func: Callable[[int], T],
    n_items: int,
    *,
    n_jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[T]:
    """Evaluate ``[func(0), ..., func(n_items - 1)]``, possibly in parallel.

    Args:
        func: Index -> result; must be picklable (a module-level function or
            functools.partial of one) and must derive all randomness from
            the index, so results are order- and schedule-independent.  On
            the pool path a live ``numpy.random.Generator`` in *func* (its
            partial arguments, closure or defaults) raises ``ValueError``.
        n_items: Number of items.
        n_jobs: Process count; ``None`` or ``1`` runs serially (pass
            ``default_workers()`` to use all cores).  An explicit
            ``n_jobs > 1`` always engages the pool, however few the items.
            The pool is the shared one (:func:`repro.engine.pool.lease`),
            sized ``min(n_jobs, n_items)``; it outlives the call.
        chunk_size: Items per worker task (default: balanced blocks).

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

    if n_jobs is None or n_jobs == 1:
        return [func(i) for i in range(n_items)]
    reject_generators(func, "parallel_map")

    workers = min(n_jobs, n_items)
    if chunk_size is None:
        chunk_size = max(1, (n_items + workers - 1) // workers)
    tasks = [
        (func, range(start, min(start + chunk_size, n_items)))
        for start in range(0, n_items, chunk_size)
    ]
    results: List[T] = []
    with lease(workers) as pool:
        for block_result in pool.map(_run_block, tasks):
            results.extend(block_result)
    return results
