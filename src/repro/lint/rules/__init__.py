"""Stock lint rules — importing this package registers all of them.

==========  =====================================================
Rule        Invariant
==========  =====================================================
``REP101``  randomness flows through ``repro.utils.rng``
``REP102``  obs calls in hot-path code sit behind ``OBS.enabled``
``REP104``  builder registry: registered, unique, right signature
``REP108``  async functions never reach blocking calls
``REP109``  no read-modify-write of shared attrs across an await
``REP110``  no live ``Generator`` crosses a process boundary
==========  =====================================================

REP101 and REP102 read only the file they visit; REP104 and REP108–REP110
read module summaries, the call graph, and the effect analysis
(:mod:`repro.lint.graph`, :mod:`repro.lint.effects`).

``AggregationTree`` immutability needs no rule: the type itself refuses
attribute writes and its parent array and children are read-only.

(``REP000`` is the driver's pseudo-rule for unparsable files.)
"""

from repro.lint.rules import (
    asyncsafe,
    boundary,
    builders,
    obs,
    rng,
)

__all__ = [
    "asyncsafe",
    "boundary",
    "builders",
    "obs",
    "rng",
]
