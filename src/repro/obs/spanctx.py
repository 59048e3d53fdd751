"""Serializable span contexts: request-scoped trace identity that travels.

The tracer (:mod:`repro.obs.trace`) records *what happened here*; a
:class:`SpanContext` says *on whose behalf*.  A context is three ids:

* ``trace_id`` — one per request, minted where the request enters the
  system (e.g. :meth:`repro.serve.server.TreeServer.submit`) and shared by
  every span the request causes, wherever it runs;
* ``span_id`` — one per span, unique within the process fleet;
* ``parent_id`` — the ``span_id`` of the enclosing span (``None`` for the
  request's root span).

Contexts are plain string triples, so they serialize to dicts
(:meth:`SpanContext.to_dict`) and survive pickling across the serve
layer's process workers — a worker's build span carries the submitting
request's ``trace_id`` and re-attaches to its trace when the shard result
returns (the server keeps it in its
:class:`~repro.serve.server.TraceBuffer`).

The *ambient* context is tracked in a :class:`contextvars.ContextVar`, so
interleaved asyncio tasks each see their own current span and nested
spans parent correctly without any explicit plumbing.  Nothing here is on
a hot path: contexts are only minted and consulted inside ``OBS.enabled``
guards or inside the tracer itself, which only runs when instrumented.

Ids are *not* derived from the seeded RNG plumbing on purpose: they are
operational identity, not simulation randomness, and must stay unique
across processes that share a seed.  Each process mints ids as
``<8-hex-char process prefix>-<counter>`` with the prefix drawn from
:func:`os.urandom` once at import.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

__all__ = [
    "SpanContext",
    "current_span",
    "activate_span",
    "new_span_id",
    "new_trace_id",
]

#: Per-process uniqueness prefix; two workers minting the same counter
#: value still produce distinct ids.
_PROCESS_PREFIX = os.urandom(4).hex()

_SPAN_COUNTER = itertools.count(1)
_TRACE_COUNTER = itertools.count(1)


def new_trace_id() -> str:
    """Mint a process-unique trace id (``t<prefix>-<n>``)."""
    return f"t{_PROCESS_PREFIX}-{next(_TRACE_COUNTER):06x}"


def new_span_id() -> str:
    """Mint a process-unique span id (``s<prefix>-<n>``)."""
    return f"s{_PROCESS_PREFIX}-{next(_SPAN_COUNTER):06x}"


@dataclass(frozen=True)
class SpanContext:
    """Identity of one span inside one trace.

    Attributes:
        trace_id: Request-scoped id shared by every span of the trace.
        span_id: This span's own id.
        parent_id: ``span_id`` of the enclosing span, ``None`` at the root.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    @classmethod
    def root(cls) -> "SpanContext":
        """A fresh root context: new trace, new span, no parent."""
        return cls(trace_id=new_trace_id(), span_id=new_span_id())

    def child(self) -> "SpanContext":
        """A child context in the same trace, parented on this span."""
        return SpanContext(
            trace_id=self.trace_id,
            span_id=new_span_id(),
            parent_id=self.span_id,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Wire/pickle form; inverse of :meth:`from_dict`."""
        doc: Dict[str, Any] = {"trace": self.trace_id, "span": self.span_id}
        if self.parent_id is not None:
            doc["parent"] = self.parent_id
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "SpanContext":
        """Rebuild a context shipped via :meth:`to_dict`.

        Raises ``ValueError`` when the mandatory ids are missing, so a
        corrupted wire document fails loudly instead of mis-parenting.
        """
        trace_id = doc.get("trace")
        span_id = doc.get("span")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            raise ValueError(f"not a span-context document: {doc!r}")
        parent = doc.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise ValueError(f"bad parent id in span context: {parent!r}")
        return cls(trace_id=trace_id, span_id=span_id, parent_id=parent)


#: Ambient span of the current task (asyncio-task-local via contextvars).
_CURRENT_SPAN: ContextVar[Optional[SpanContext]] = ContextVar(
    "repro_obs_current_span", default=None
)


def current_span() -> Optional[SpanContext]:
    """The ambient span context of the calling task, if any."""
    return _CURRENT_SPAN.get()


@contextmanager
def activate_span(context: Optional[SpanContext]) -> Iterator[Optional[SpanContext]]:
    """Make *context* the ambient span for the duration of the block.

    Used by the tracer around span bodies and by the serve layer when
    re-entering a request's context (e.g. inside a worker executing a
    shipped :class:`SpanContext`).  ``None`` deactivates tracking.
    """
    token = _CURRENT_SPAN.set(context)
    try:
        yield context
    finally:
        _CURRENT_SPAN.reset(token)
