"""Metrics export: Prometheus text and JSON snapshots.

PR 2's registry was built for one-shot experiment runs: record, finish,
snapshot.  A long-running server needs the other direction — *live*
export a scraper or dashboard can poll.  :func:`render_prometheus`
renders a :class:`~repro.obs.metrics.MetricsRegistry` in the Prometheus
text exposition format (``# TYPE`` headers, sanitized names, label sets,
quantile series for histograms), so any standard scraper ingests the
server's metrics.  The JSON form is the registry's own
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` (full histogram
summaries), the shape the ``metrics`` TCP op and ``repro obs top`` consume.

:func:`parse_prometheus` is the minimal inverse (sample lines back into
``{name{labels}: value}``); CI's export smoke uses it to assert the text
actually parses, and tests use it to round-trip.

The export is a point-in-time view: the server keeps no history of it.
``repro obs top`` (:mod:`repro.obs.top`) keeps a bounded history of its
own from the replies it polls.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "escape_label_value",
    "parse_prometheus",
    "parse_prometheus_labels",
    "prometheus_name",
    "render_prometheus",
    "unescape_label_value",
]

#: Histogram quantiles exported as Prometheus summary series.
_QUANTILES = ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"))

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
#: Label text is runs of unquoted chars plus escape-aware quoted strings,
#: so values containing ``}`` or ``\"`` do not truncate the match.
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{(?P<labels>(?:[^"{}]|"(?:[^"\\]|\\.)*")*)\})?'
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_PAIR = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)
_UNESCAPE = re.compile(r"\\(.)")


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, newline.

    Escaping the newline is what keeps the text format line-parseable —
    a raw ``\\n`` inside a label would otherwise split one sample across
    two unparseable lines.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def unescape_label_value(value: str) -> str:
    """Inverse of :func:`escape_label_value` (unknown escapes pass through)."""

    def replace(match: "re.Match[str]") -> str:
        char = match.group(1)
        return "\n" if char == "n" else char

    return _UNESCAPE.sub(replace, value)


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """Sanitize a dotted metric name into a Prometheus metric name.

    ``serve.build_seconds`` → ``repro_serve_build_seconds``: dots become
    underscores, every other illegal character is dropped, and the repo
    prefix namespaces the family.
    """
    flat = _NAME_OK.sub("_", name.replace(".", "_"))
    return f"{prefix}_{flat}" if prefix else flat


def _label_str(labels: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{escape_label_value(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    """Prometheus sample value: repr keeps floats exact, ints stay ints."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry, prefix: str = "repro") -> str:
    """The registry in Prometheus text exposition format.

    Counters export as ``counter``, gauges as ``gauge``, histograms as
    ``summary`` families — ``{quantile="0.5|0.9|0.99"}`` series plus the
    conventional ``_count`` and ``_sum`` children.  Families are sorted by
    name so successive scrapes diff cleanly.
    """
    lines: List[str] = []
    families: Dict[str, List[str]] = {}

    def family(name: str, kind: str) -> List[str]:
        if name not in families:
            families[name] = [f"# TYPE {name} {kind}"]
        return families[name]

    for counter in registry.counters():
        name = prometheus_name(counter.name, prefix)
        family(name, "counter").append(
            f"{name}{_label_str(counter.labels)} {_fmt(counter.value)}"
        )
    for gauge in registry.gauges():
        name = prometheus_name(gauge.name, prefix)
        family(name, "gauge").append(
            f"{name}{_label_str(gauge.labels)} {_fmt(gauge.value)}"
        )
    for hist in registry.histograms():
        name = prometheus_name(hist.name, prefix)
        rows = family(name, "summary")
        for q, _ in _QUANTILES:
            value = hist.percentile(100 * q) if hist.count else 0.0
            quantile_label = f'quantile="{q}"'
            rows.append(
                f"{name}{_label_str(hist.labels, quantile_label)} {_fmt(value)}"
            )
        rows.append(f"{name}_count{_label_str(hist.labels)} {hist.count}")
        rows.append(f"{name}_sum{_label_str(hist.labels)} {_fmt(hist.sum)}")

    for name in sorted(families):
        lines.extend(families[name])
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{name{labels}: value}``.

    Comment/``# TYPE`` lines are skipped; any other non-empty line that is
    not a valid sample raises ``ValueError`` — this is the "the export
    actually parses" assertion CI's smoke runs.
    """
    samples: Dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno} is not a Prometheus sample: {raw!r}")
        labels = match.group("labels")
        key = match.group("name")
        if labels:
            pairs = _LABEL_PAIR.findall(labels)
            rebuilt = ",".join(f'{k}="{v}"' for k, v in pairs)
            if rebuilt != labels:
                raise ValueError(f"line {lineno} has malformed labels: {raw!r}")
            key += "{" + labels + "}"
        samples[key] = float(match.group("value"))
    return samples


def parse_prometheus_labels(label_text: str) -> Dict[str, str]:
    """Label text (as it appears between ``{}``) → unescaped key/value map."""
    return {
        key: unescape_label_value(value)
        for key, value in _LABEL_PAIR.findall(label_text)
    }
