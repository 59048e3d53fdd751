"""Host-speed probe: scale measured times to a reference host speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
within seconds (another tenant's load, frequency changes): the same IRA
input timed twice in one process can differ by 30%.  A fixed pure-Python
loop, timed between ops (IRA) or every :data:`INTERVAL_S` on the event
loop (serve), tracks that drift.  Each op's time is divided by the host's
slowdown at that moment, ``probe duration / REFERENCE_S``, so the reported
numbers read as milliseconds on a host running the probe in
:data:`REFERENCE_S`.  The probe touches no program code.  Probes taken
while the program itself loads the host (serve's cache misses, which may
fork worker processes) are dropped, so a change to the program moves the
scaled times as it moves the raw ones.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

#: Iterations of the probe loop (about 1.5 ms of interpreter work).
ITERATIONS = 20_000

#: Probe duration that defines slowdown 1.0.
REFERENCE_S = 0.00145

#: Probe period while serve traffic runs (each probe stalls the loop).
INTERVAL_S = 0.25

#: Probes around an op that estimate the slowdown it ran under.
WINDOW = 8


def _probe() -> Tuple[float, float]:
    start = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return start, time.perf_counter() - start


class SpeedTrack:
    """Probe samples ``(start, duration)`` taken along one timed phase."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def sample(self) -> None:
        self.samples.append(_probe())

    def scale(self, starts: List[float], durations: List[float], statistic=np.mean) -> np.ndarray:
        """*durations* of ops begun at *starts*, divided by the slowdown then.

        An op's slowdown is *statistic* (the mean or the median) over the
        :data:`WINDOW` probes nearest its start.
        """
        probe_starts = np.array([start for start, _ in self.samples])
        slowdown = np.array([d for _, d in self.samples]) / REFERENCE_S
        width = min(WINDOW, len(slowdown))
        first = np.searchsorted(probe_starts, starts) - width // 2
        first = first.clip(0, len(slowdown) - width)
        windows = slowdown[first[:, None] + np.arange(width)]
        return np.asarray(durations) / statistic(windows, axis=1)

    def drop(self, intervals: List[Tuple[float, float]]) -> None:
        """Leave out probes that start inside any ``(start, end)`` interval,
        unless that would leave none."""
        keep = [
            (t, d) for t, d in self.samples if not any(a <= t < b for a, b in intervals)
        ]
        if keep:
            self.samples = keep

    def busy(self, start: float, end: float) -> float:
        """Seconds spent probing between *start* and *end*."""
        return sum(d for t, d in self.samples if start <= t < end)

    def mean_slowdown(self) -> float:
        """Mean slowdown over every probe taken."""
        return sum(d for _, d in self.samples) / len(self.samples) / REFERENCE_S


class ScaledTimer:
    """Context manager timing a block, scaled by probes around it.

    ``with ScaledTimer() as timer: ...`` leaves the scaled seconds in
    ``timer.seconds``.
    """

    PROBES = 4

    def __enter__(self) -> "ScaledTimer":
        self.track = SpeedTrack()
        for _ in range(self.PROBES):
            self.track.sample()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self.start
        for _ in range(self.PROBES):
            self.track.sample()
        self.seconds = elapsed / self.track.mean_slowdown()
