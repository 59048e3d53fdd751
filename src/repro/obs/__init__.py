"""repro.obs — the unified instrumentation layer.

Three cooperating pieces, all process-local and dependency-free:

* **Metrics** (:mod:`repro.obs.metrics`) — a registry of labelled counters,
  gauges, and histograms that the algorithm layers report into: IRA
  iterations and dropped constraints, LP solves and separation cuts,
  local-search moves, protocol messages/bytes/rounds, simulator deliveries.
* **Traces** (:mod:`repro.obs.trace`) — JSONL events/spans with monotonic
  timestamps and request-scoped span contexts (:mod:`repro.obs.spanctx`),
  for "what happened in what order and how long did it take" — per
  request, even across process boundaries.
* **Manifests** (:mod:`repro.obs.manifest`) — seed, params, git revision,
  and tool versions, so every run is reproducible and diffable.
* **Export** (:mod:`repro.obs.export`) — Prometheus-text / JSON renderers
  over the registry plus bounded time-series rings, feeding the serve
  layer's ``metrics`` op and the ``repro obs top`` dashboard.
* **SLOs** (:mod:`repro.obs.slo`) — declared latency/error budgets with
  burn-rate accounting, surfaced by the server's ``stats`` op.
* **Bench sentinel** (:mod:`repro.obs.benchdiff`) — the ``repro obs
  bench-diff`` regression gate over ``BENCH_*.json`` trajectories.

Everything hangs off the :data:`OBS` switchboard (:mod:`repro.obs.runtime`).
Instrumentation is **off by default**: hot paths guard each report behind
``if OBS.enabled``, so the disabled cost is one attribute load and a branch.
Enable it with :func:`instrument`::

    from repro.obs import instrument

    with instrument(seed=1, params={"n": 50}) as session:
        result = build_ira_tree(net, lc)
    print(session.registry.render())          # metrics tables
    session.tracer.write_jsonl("trace.jsonl") # structured trace
    session.manifest.write("manifest.json")   # reproducibility record

or from the command line: ``repro obs build ira --nodes 50 --seed 1``
(see :mod:`repro.obs.cli` and ``docs/observability.md``).
"""

from repro.obs.export import (
    TimeSeriesRing,
    parse_prometheus,
    prometheus_name,
    render_json,
    render_prometheus,
)
from repro.obs.manifest import RunManifest, collect_manifest, git_revision
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    metric_key,
)
from repro.obs.runtime import OBS, ObsSession, instrument, is_enabled
from repro.obs.slo import SLO, SLOTracker, SLOWindow
from repro.obs.spanctx import SpanContext, activate_span, current_span
from repro.obs.trace import NULL_TRACER, NullTracer, TraceEvent, Tracer, read_jsonl

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "OBS",
    "ObsSession",
    "RunManifest",
    "SLO",
    "SLOTracker",
    "SLOWindow",
    "SpanContext",
    "TimeSeriesRing",
    "TraceEvent",
    "Tracer",
    "activate_span",
    "collect_manifest",
    "current_span",
    "git_revision",
    "instrument",
    "is_enabled",
    "metric_key",
    "parse_prometheus",
    "prometheus_name",
    "read_jsonl",
    "render_json",
    "render_prometheus",
]
