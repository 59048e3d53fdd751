"""Tests for repro.obs.spanctx — span identity under concurrency.

The load-bearing property: spans from *interleaved* asyncio tasks must
parent onto their own task's enclosing span (contextvars isolation), and
the resulting JSONL must round-trip through ``read_jsonl`` with trace /
span / parent ids that reassemble each request's tree exactly.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.spanctx import (
    SpanContext,
    activate_span,
    current_span,
    new_span_id,
    new_trace_id,
)
from repro.obs import instrument
from repro.obs.trace import Tracer, read_jsonl
from repro.serve import TreeServer


class TestIds:
    def test_ids_are_unique_and_typed(self):
        traces = {new_trace_id() for _ in range(100)}
        spans = {new_span_id() for _ in range(100)}
        assert len(traces) == 100 and len(spans) == 100
        assert all(t.startswith("t") for t in traces)
        assert all(s.startswith("s") for s in spans)


class TestSpanContext:
    def test_root_has_no_parent(self):
        ctx = SpanContext.root()
        assert ctx.parent_id is None
        assert ctx.trace_id and ctx.span_id

    def test_child_shares_trace_and_parents_on_span(self):
        root = SpanContext.root()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_dict_round_trip(self):
        ctx = SpanContext.root().child()
        assert SpanContext.from_dict(ctx.to_dict()) == ctx

    def test_root_dict_omits_parent(self):
        doc = SpanContext.root().to_dict()
        assert set(doc) == {"trace", "span"}

    @pytest.mark.parametrize(
        "doc",
        [{}, {"trace": "t1"}, {"trace": 3, "span": "s"}, {"trace": "t", "span": "s", "parent": 7}],
    )
    def test_bad_documents_rejected(self, doc):
        with pytest.raises(ValueError):
            SpanContext.from_dict(doc)


class TestAmbient:
    def test_default_is_none(self):
        assert current_span() is None

    def test_activate_and_restore(self):
        ctx = SpanContext.root()
        with activate_span(ctx):
            assert current_span() is ctx
            inner = ctx.child()
            with activate_span(inner):
                assert current_span() is inner
            assert current_span() is ctx
        assert current_span() is None


class TestConcurrentSpanIntegrity:
    """Interleaved asyncio tasks must never cross-parent their spans."""

    @pytest.fixture()
    def trace_records(self, tmp_path):
        tracer = Tracer()

        async def worker(name: str, pause: float):
            with tracer.span(f"{name}.outer", task=name):
                outer = current_span()
                await asyncio.sleep(pause)
                with tracer.span(f"{name}.inner"):
                    inner = current_span()
                    await asyncio.sleep(2 * pause)
                tracer.event(f"{name}.done")
            return outer, inner

        async def main():
            return await asyncio.gather(
                worker("a", 0.001), worker("b", 0.002), worker("c", 0.003)
            )

        contexts = dict(zip("abc", asyncio.run(main())))
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        return contexts, read_jsonl(path)

    def test_tasks_get_distinct_traces(self, trace_records):
        contexts, _ = trace_records
        trace_ids = {outer.trace_id for outer, _ in contexts.values()}
        assert len(trace_ids) == 3

    def test_inner_parents_on_own_tasks_outer(self, trace_records):
        contexts, _ = trace_records
        for outer, inner in contexts.values():
            assert inner.trace_id == outer.trace_id
            assert inner.parent_id == outer.span_id

    def test_jsonl_round_trip_preserves_ids(self, trace_records):
        contexts, records = trace_records
        spans = {r["name"]: r for r in records if r["kind"] == "span"}
        for name, (outer, inner) in contexts.items():
            outer_doc = spans[f"{name}.outer"]
            inner_doc = spans[f"{name}.inner"]
            assert outer_doc["trace"] == outer.trace_id
            assert outer_doc["span"] == outer.span_id
            assert "parent" not in outer_doc
            assert inner_doc["trace"] == outer.trace_id
            assert inner_doc["parent"] == outer.span_id
            assert inner_doc["span"] == inner.span_id

    def test_events_parent_on_ambient_span(self, trace_records):
        contexts, records = trace_records
        events = {r["name"]: r for r in records if r["kind"] == "event"}
        for name, (outer, _) in contexts.items():
            done = events[f"{name}.done"]
            assert done["trace"] == outer.trace_id
            assert done["parent"] == outer.span_id

    def test_durations_nest(self, trace_records):
        contexts, records = trace_records
        spans = {r["name"]: r for r in records if r["kind"] == "span"}
        pauses = {"a": 0.001, "b": 0.002, "c": 0.003}
        for name in contexts:
            outer, inner = spans[f"{name}.outer"], spans[f"{name}.inner"]
            assert inner["dur"] >= 2 * pauses[name] * 0.5
            assert outer["dur"] >= inner["dur"]
            assert outer["t"] <= inner["t"]


class TestCrossProcessReattach:
    """The server keeps a span measured elsewhere under its shipped ids."""

    def test_server_span_keeps_shipped_context(self):
        server = TreeServer()
        root = SpanContext.root()
        # Simulate the worker side: rebuild from the wire doc, mint a child.
        shipped = SpanContext.from_dict(root.to_dict())
        child = shipped.child()
        with instrument():
            server._record_span("serve.build", 0.25, child, builder="mst")
        (doc,) = server.trace_spans(root.trace_id)
        assert doc["trace"] == root.trace_id
        assert doc["parent"] == root.span_id
        assert doc["span"] == child.span_id
        assert doc["dur"] == 0.25
        assert doc["fields"] == {"builder": "mst"}

    def test_server_span_time_clamped_at_epoch(self):
        server = TreeServer()
        context = SpanContext.root()
        with instrument():
            server._record_span("x", 1e9, context)
        (doc,) = server.trace_spans(context.trace_id)
        assert doc["t"] == 0.0
