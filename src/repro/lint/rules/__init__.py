"""Stock lint rules — importing this package registers all of them.

==========  =====================================================
Rule        Invariant
==========  =====================================================
``REP101``  randomness flows through ``repro.utils.rng``
``REP102``  obs calls in hot-path code sit behind ``OBS.enabled``
``REP104``  builder registry: registered, unique, right signature
``REP105``  ``AggregationTree`` is never mutated after creation
``REP108``  async functions never reach blocking calls
``REP109``  no read-modify-write of shared attrs across an await
``REP110``  no live ``Generator`` crosses a process boundary
``REP112``  no frozen-tree mutation through call aliases
==========  =====================================================

REP101, REP102 and REP105 read only the file they visit; REP104,
REP108–REP110 and REP112 read module summaries, the call graph, and the
effect analysis (:mod:`repro.lint.graph`, :mod:`repro.lint.effects`).

(``REP000`` is the driver's pseudo-rule for unparsable files.)
"""

from repro.lint.rules import (
    aliasing,
    asyncsafe,
    boundary,
    builders,
    frozen,
    obs,
    rng,
)

__all__ = [
    "aliasing",
    "asyncsafe",
    "boundary",
    "builders",
    "frozen",
    "obs",
    "rng",
]
