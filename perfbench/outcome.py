"""What a workload run hands back to the driver in ``run.py``."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench.speed import SpeedTrack

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3


@dataclass
class Phase:
    """One timed phase: per-op latencies and raw outputs, certified later.

    ``latencies`` and ``wall_s`` are raw seconds; :meth:`scaled_latencies`
    divides each latency by the host slowdown ``speed`` recorded along the
    phase (see :mod:`perfbench.speed`).
    """

    latencies: List[float] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)
    outputs: List[Tuple[Any, Any]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    speed: SpeedTrack = field(default_factory=SpeedTrack)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def scaled_latencies(self, statistic=np.mean) -> np.ndarray:
        return self.speed.scale(self.starts, self.latencies, statistic)


@dataclass
class Outcome:
    """Everything a run measured and every failure it found.

    ``phase`` is the phase the reported metrics describe: the timed phase
    of an untraced run, the traced half of a traced run.  ``baseline`` is a
    traced run's untraced half, kept to measure the tracing overhead.
    """

    setup_s: List[float]
    gen_s_per_input: float
    phase: Phase = field(default_factory=Phase)
    baseline: Optional[Phase] = None
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    reliabilities: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    #: Calls the tracer caught per span (wiring checks in ``run.py``).
    span_calls: Dict[str, int] = field(default_factory=dict)
    #: Share of the traced phase's time inside the named layers.
    attributed_frac: float = 0.0

    def record_peak_rss(self) -> None:
        """Process high-water mark so far (``ru_maxrss`` is KiB on Linux)."""
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
