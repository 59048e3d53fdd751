"""Stock lint rules — importing this package registers all of them.

==========  ========  =====================================================
Rule        Severity  Invariant
==========  ========  =====================================================
``REP101``  error     randomness flows through ``repro.utils.rng``
``REP102``  error     obs calls in hot-path code sit behind ``OBS.enabled``
``REP103``  warning   no ``==``/``!=`` on cost/reliability/lifetime floats
``REP104``  error     builder registry: registered, unique, right signature
``REP105``  error     ``AggregationTree`` is never mutated after creation
``REP106``  error     ``__all__`` is truthful; re-exports resolve
``REP107``  error     durations use ``perf_counter``, never ``time.time()``
``REP108``  error     async functions never reach blocking calls
``REP109``  error     no read-modify-write of shared attrs across an await
``REP110``  error     no live ``Generator`` crosses a process boundary
``REP112``  error     no frozen-tree mutation through call aliases
==========  ========  =====================================================

REP101–REP103, REP105 and REP107 read only the file they visit;
REP108–REP110, REP112 and the cross-file halves of REP104/REP106 read module
summaries, the call graph, and the effect analysis
(:mod:`repro.lint.graph`, :mod:`repro.lint.effects`).

(``REP000`` is the driver's pseudo-rule for unparsable files.)
"""

from repro.lint.rules import (
    aliasing,
    asyncsafe,
    boundary,
    builders,
    exports,
    floats,
    frozen,
    obs,
    rng,
    timing,
)

__all__ = [
    "aliasing",
    "asyncsafe",
    "boundary",
    "builders",
    "exports",
    "floats",
    "frozen",
    "obs",
    "rng",
    "timing",
]
