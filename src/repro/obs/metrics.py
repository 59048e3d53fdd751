"""Process-local metrics: counters, gauges, and histograms with labels.

The registry is the numeric half of the instrumentation layer (the tracer in
:mod:`repro.obs.trace` is the structured half).  Algorithms report *what they
did* — LP solves, separation cuts, protocol messages — as named metrics;
experiments snapshot the registry and attach it to their saved artifacts so
the paper's internal-statistics claims (IRA's polynomial iteration count, the
protocol's O(n) message complexity) are measurable, not just asserted.

Hot paths guard every report behind ``OBS.enabled`` (see
:mod:`repro.obs.runtime`), so with the default :class:`NullRegistry` backend
the per-call cost is one attribute load and a branch.  The null metric
objects below are belt-and-braces for unguarded call sites: every method is
a no-op.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "metric_key",
    "nearest_rank",
]

LabelItems = Tuple[Tuple[str, str], ...]


def metric_key(name: str, labels: Dict[str, Any]) -> str:
    """Canonical flat name, Prometheus-style: ``name{k=v,...}``.

    Labels are sorted so the key is independent of call-site ordering; a
    label-free metric is just its name.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def nearest_rank(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of non-empty *values* (``0 <= p <= 100``)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


class Counter:
    """Monotonically increasing count (events, messages, iterations)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        self.value += amount


class Gauge:
    """A value that can move both ways (active set sizes, cumulative totals)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Distribution of observations (solve times, per-round messages).

    Raw observations are kept (runs are experiment-sized, not server-sized),
    so any percentile can be computed exactly after the fact.
    """

    __slots__ = ("name", "labels", "values")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return float(sum(self.values))

    def percentile(self, p: float) -> float:
        """Exact percentile by the nearest-rank method (``0 <= p <= 100``)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.values:
            raise ValueError(f"histogram {self.name!r} has no observations")
        return nearest_rank(self.values, p)

    def summary(self) -> Dict[str, float]:
        """count / sum / min / p50 / p90 / p99 / max — the scannable digest.

        ``p99`` is the tail-latency signal serving SLOs are written
        against; p50/p90 alone hide the stragglers that break them.
        """
        if not self.values:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": min(self.values),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": max(self.values),
        }


class MetricsRegistry:
    """Process-local registry of labelled counters, gauges, and histograms.

    Metrics are created on first touch and identified by (name, labels);
    repeated calls with the same identity return the same object, so hot
    paths may cache the handle or re-resolve it each time.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}

    @staticmethod
    def _label_items(labels: Dict[str, Any]) -> LabelItems:
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, self._label_items(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(name, key[1])
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, self._label_items(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge(name, key[1])
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = (name, self._label_items(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(name, key[1])
        return metric

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def gauges(self) -> Iterator[Gauge]:
        return iter(self._gauges.values())

    def histograms(self) -> Iterator[Histogram]:
        return iter(self._histograms.values())

    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of a counter, 0 if it was never touched."""
        key = (name, self._label_items(labels))
        metric = self._counters.get(key)
        return metric.value if metric is not None else 0

    def total(self, name: str) -> float:
        """Sum of a counter across all of its label combinations."""
        return sum(c.value for c in self._counters.values() if c.name == name)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-compatible dump: flat keys -> values / histogram summaries."""

        def flat(metric) -> str:
            return metric_key(metric.name, dict(metric.labels))

        return {
            "counters": {flat(c): c.value for c in self._counters.values()},
            "gauges": {flat(g): g.value for g in self._gauges.values()},
            "histograms": {
                flat(h): h.summary() for h in self._histograms.values()
            },
        }

    def render(self) -> str:
        """Aligned tables of everything recorded (counters first)."""
        from repro.utils.tables import format_table

        sections: List[str] = []
        snap = self.snapshot()
        if snap["counters"]:
            rows = sorted(snap["counters"].items())
            sections.append(
                format_table(["counter", "value"], rows, title="Counters")
            )
        if snap["gauges"]:
            rows = sorted(snap["gauges"].items())
            sections.append(format_table(["gauge", "value"], rows, title="Gauges"))
        if snap["histograms"]:
            rows = [
                [
                    key,
                    s.get("count", 0),
                    s.get("p50", float("nan")),
                    s.get("p90", float("nan")),
                    s.get("p99", float("nan")),
                    s.get("max", float("nan")),
                ]
                for key, s in sorted(snap["histograms"].items())
            ]
            sections.append(
                format_table(
                    ["histogram", "count", "p50", "p90", "p99", "max"],
                    rows,
                    title="Histograms",
                )
            )
        if not sections:
            return "(no metrics recorded)"
        return "\n\n".join(sections)


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:  # noqa: ARG002 - deliberate no-op
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The disabled backend: hands out shared no-op metrics, records nothing.

    Hot paths normally never reach it (they check ``OBS.enabled`` first);
    unguarded code paying one dict-free method call is the worst case.
    """

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._null_counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._null_histogram


#: Shared null backend installed while instrumentation is off.
NULL_REGISTRY = NullRegistry()
