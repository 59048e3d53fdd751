"""Stock lint rules — importing this package registers all of them.

==========  =====================================================
Rule        Invariant
==========  =====================================================
``REP101``  randomness flows through ``repro.utils.rng``
``REP102``  obs calls in hot-path code sit behind ``OBS.enabled``
``REP109``  no read-modify-write of shared attrs across an await
==========  =====================================================

Each rule reads only the file it visits.  The retired cross-file rules
are runtime checks now: REP104 in ``repro.engine.registry`` (builder
signatures, at registration), REP108 in the test suite's event-loop stall
guard (``tests/conftest.py``), REP110 in
``repro.utils.rng.reject_generators`` at every process boundary.

(``REP000`` is the driver's pseudo-rule for unparsable files.)
"""

from repro.lint.rules import asyncsafe, obs, rng

__all__ = ["asyncsafe", "obs", "rng"]
