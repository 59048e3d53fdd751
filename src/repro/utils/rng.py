"""Deterministic random-number-generator plumbing.

Every stochastic entry point in the library accepts a ``seed`` argument that
may be ``None``, an integer, or an already-constructed
:class:`numpy.random.Generator`.  Centralising the coercion here keeps the
behaviour uniform: experiments are reproducible when given an integer seed and
independent streams can be derived for sub-components without correlated
draws.

This is the only module allowed to construct generators directly; everywhere
else, ``repro lint`` (rule REP101) bans bare ``random``/``np.random`` usage.
:func:`reject_generators` guards every process boundary: a live generator
pickled into a worker forks its stream.
"""

from __future__ import annotations

import functools
import types
from typing import Any, List, Mapping, Set, Union

import numpy as np

SeedLike = Union[None, int, np.integer, np.random.Generator, np.random.SeedSequence]

__all__ = [
    "SeedLike",
    "as_rng",
    "reject_generators",
    "spawn_rngs",
    "stable_hash_seed",
]

#: Exclusive upper bound for seed material drawn when deriving child streams.
_SEED_BOUND = 2**63 - 1


def _check_seed_int(seed: Union[int, np.integer]) -> int:
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return int(seed)


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    ``None`` yields a freshly-seeded generator, an ``int`` or
    :class:`numpy.random.SeedSequence` yields a deterministic generator, and
    an existing generator is passed through unchanged (so callers can share a
    stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(_check_seed_int(seed))
    raise TypeError(
        "seed must be None, an int, a numpy Generator, or a SeedSequence; "
        f"got {type(seed).__name__}"
    )


class _SpawnedGenerator(np.random.Generator):
    """A child stream from :func:`spawn_rngs`, derived to be handed off.

    It draws exactly what ``np.random.default_rng`` on the same seed
    material draws; the type only tells :func:`reject_generators` that no
    caller stream is forked by sending it to a worker.
    """


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Derive *count* statistically independent generators from *seed*.

    Used by experiment sweeps that run many trials in a loop: each trial gets
    its own stream so that changing the number of trials does not perturb the
    draws of earlier trials.  The streams may cross a process boundary
    (:func:`reject_generators` lets them through).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children by drawing fresh seed material from the stream.
        return [
            _SpawnedGenerator(np.random.PCG64(int(seed.integers(0, _SEED_BOUND))))
            for _ in range(count)
        ]
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    elif seed is None:
        seq = np.random.SeedSequence()
    elif isinstance(seed, (int, np.integer)):
        # Validate here for the same clear message as as_rng, instead of
        # numpy's opaque "entropy must be a non-negative integer" error.
        seq = np.random.SeedSequence(_check_seed_int(seed))
    else:
        raise TypeError(
            "seed must be None, an int, a numpy Generator, or a SeedSequence; "
            f"got {type(seed).__name__}"
        )
    return [_SpawnedGenerator(np.random.PCG64(child)) for child in seq.spawn(count)]


def reject_generators(value: object, where: str) -> None:
    """Raise ``ValueError`` if a live ``numpy.random.Generator`` is in *value*.

    Called wherever work is handed to another thread or process.  A pickled
    generator forks its stream: the worker draws from a copy while the
    caller's state stays put, so two places draw the same numbers and the
    result depends on where the work ran.  Integer seeds and
    :func:`spawn_rngs` streams pass.

    The search looks inside mappings (values), lists, tuples, sets,
    ``functools.partial`` objects (function, args, keywords) and plain
    functions (closure cells and defaults), each object once, so a closure
    that refers to itself terminates.  *where* names the boundary in the
    error message.
    """
    stack: List[Any] = [value]
    seen: Set[int] = set()
    while stack:
        item = stack.pop()
        if isinstance(item, np.random.Generator):
            if isinstance(item, _SpawnedGenerator):
                continue
            raise ValueError(
                f"{where}: a numpy.random.Generator cannot cross the process "
                "boundary; pass an integer seed or a spawn_rngs() stream instead"
            )
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, Mapping):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif isinstance(item, functools.partial):
            stack.append(item.func)
            stack.extend(item.args)
            stack.extend(item.keywords.values())
        elif isinstance(item, types.FunctionType):
            for cell in item.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a cell not yet bound
                    continue
            stack.extend(item.__defaults__ or ())
            stack.extend((item.__kwdefaults__ or {}).values())


def stable_hash_seed(*parts: Union[int, str]) -> int:
    """Map a tuple of labels to a stable 63-bit seed.

    Lets experiments key their randomness on semantic identifiers (figure id,
    trial index, parameter value) instead of positional order, so adding a new
    sweep point never changes the seeds of existing points.
    """
    acc = 1469598103934665603  # FNV-1a 64-bit offset basis
    for part in parts:
        data = str(part).encode("utf-8") + b"\x1f"
        for byte in data:
            acc ^= byte
            acc = (acc * 1099511628211) % (1 << 64)
    return acc % (1 << 63)
