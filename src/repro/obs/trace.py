"""Structured run traces: JSONL events and spans with monotonic timestamps.

The tracer is the narrative half of the instrumentation layer: where the
metrics registry answers "how many", the trace answers "in what order and
how long".  Every record is one JSON object per line so traces stream, diff,
and grep well:

``{"t": 0.00123, "name": "lp.solve", "kind": "event", "fields": {...}}``

* ``t`` — seconds since the tracer was created, from
  :func:`time.perf_counter` (monotonic; immune to wall-clock steps);
* ``name`` — dotted event name (``layer.what``), e.g. ``ira.iteration``;
* ``kind`` — ``"event"`` for points, ``"span"`` for timed regions;
* ``dur`` — span duration in seconds (spans only);
* ``fields`` — free-form JSON payload (numbers, strings, bools);
* ``trace`` / ``span`` / ``parent`` — span-context ids
  (:mod:`repro.obs.spanctx`): every span belongs to a trace, knows its own
  id, and points at its parent span, so a request's spans reassemble into
  a tree even when they interleave across asyncio tasks or arrive from
  another process.

The wall-clock epoch of ``t == 0`` is recorded once in the header line
(``kind == "trace_start"``) so traces can be correlated across processes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.obs.spanctx import SpanContext, activate_span, current_span

__all__ = ["TraceEvent", "Tracer", "NullTracer", "NULL_TRACER", "json_safe", "read_jsonl"]

_JSON_SCALARS = (str, int, float, bool)


def json_safe(value: Any) -> Any:
    """Coerce *value* to plain JSON types for ``json.dumps``.

    Numpy scalars and arrays become Python scalars and lists via
    ``.tolist()``, tuples and sets become lists, dict keys become strings,
    and anything else its ``str``.
    """
    if value is None or type(value) in _JSON_SCALARS:
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    try:  # numpy scalars and arrays, without importing numpy here
        return value.tolist()
    except AttributeError:
        return value if isinstance(value, _JSON_SCALARS) else str(value)


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    Attributes:
        name: Dotted event name (``layer.what``).
        kind: ``"event"``, ``"span"``, or ``"trace_start"``.
        t: Monotonic seconds since the tracer's epoch.
        dur: Span duration in seconds (``None`` for point events).
        fields: Free-form payload.
        trace_id: Trace the record belongs to (``None`` outside any trace).
        span_id: The span's own id (spans only).
        parent_id: Enclosing span's id (``None`` at a trace root).
    """

    name: str
    kind: str
    t: float
    dur: Optional[float] = None
    fields: Dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None

    def to_doc(self) -> Dict[str, Any]:
        """The record as a JSON-ready dict (one JSONL line, unserialized)."""
        doc: Dict[str, Any] = {"t": round(self.t, 9), "name": self.name, "kind": self.kind}
        if self.dur is not None:
            doc["dur"] = round(self.dur, 9)
        if self.trace_id is not None:
            doc["trace"] = self.trace_id
        if self.span_id is not None:
            doc["span"] = self.span_id
        if self.parent_id is not None:
            doc["parent"] = self.parent_id
        if self.fields:
            doc["fields"] = {k: json_safe(v) for k, v in self.fields.items()}
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True)


class Tracer:
    """Collects :class:`TraceEvent` records against a monotonic epoch."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.started_utc = datetime.now(timezone.utc).isoformat()
        self.events: List[TraceEvent] = [
            TraceEvent(
                name="trace",
                kind="trace_start",
                t=0.0,
                fields={"started_utc": self.started_utc},
            )
        ]

    def now(self) -> float:
        """Seconds since this tracer's epoch."""
        return time.perf_counter() - self._t0

    def event(self, name: str, **fields: Any) -> None:
        """Record a point event at the current monotonic time.

        When an ambient span is active (see :mod:`repro.obs.spanctx`), the
        event is stamped with its trace id and parented on it.
        """
        ambient = current_span()
        self.events.append(
            TraceEvent(
                name=name,
                kind="event",
                t=self.now(),
                fields=fields,
                trace_id=ambient.trace_id if ambient is not None else None,
                parent_id=ambient.span_id if ambient is not None else None,
            )
        )

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent: Optional[SpanContext] = None,
        **fields: Any,
    ) -> Iterator[Dict[str, Any]]:
        """Record a timed region; yields the mutable fields dict.

        The span's entry time and duration are recorded even when the body
        raises (the exception type is added as an ``error`` field), so
        traces of failed runs stay complete.

        Span identity: a child context of *parent* when given, else of the
        ambient span (so nested ``span()`` blocks parent naturally, even
        across interleaved asyncio tasks), else a fresh root trace.  The
        span is the ambient context for the duration of the body.
        """
        base = parent if parent is not None else current_span()
        context = base.child() if base is not None else SpanContext.root()
        start = self.now()
        payload = dict(fields)
        try:
            with activate_span(context):
                yield payload
        except BaseException as exc:
            payload.setdefault("error", type(exc).__name__)
            raise
        finally:
            self.events.append(
                TraceEvent(
                    name=name,
                    kind="span",
                    t=start,
                    dur=self.now() - start,
                    fields=payload,
                    trace_id=context.trace_id,
                    span_id=context.span_id,
                    parent_id=context.parent_id,
                )
            )

    def to_jsonl(self) -> str:
        """The full trace as JSON-lines text (trailing newline included)."""
        return "\n".join(e.to_json() for e in self.events) + "\n"

    def write_jsonl(self, path: Union[str, Path]) -> None:
        """Write the trace to *path* as JSONL."""
        Path(path).write_text(self.to_jsonl())


class NullTracer(Tracer):
    """Disabled tracer: records nothing, spans are pass-throughs.

    It keeps the clock (:meth:`now`), so code that stamps records it
    stores elsewhere (the serve layer's trace buffer) runs under it.
    """

    def __init__(self) -> None:  # no header event
        self._t0 = time.perf_counter()
        self.started_utc = ""
        self.events = []

    def event(self, name: str, **fields: Any) -> None:
        pass

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent: Optional[SpanContext] = None,
        **fields: Any,
    ) -> Iterator[Dict[str, Any]]:
        yield {}

    def to_jsonl(self) -> str:
        return ""


#: Shared null tracer installed while instrumentation is off.
NULL_TRACER = NullTracer()


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file back into a list of record dicts.

    Raises ``ValueError`` if any non-empty line is not a JSON object with
    the mandatory ``t`` / ``name`` / ``kind`` keys.
    """
    records: List[Dict[str, Any]] = []
    for i, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        doc = json.loads(line)
        if not isinstance(doc, dict) or not {"t", "name", "kind"} <= doc.keys():
            raise ValueError(f"line {i} is not a trace record: {line[:80]!r}")
        records.append(doc)
    return records
