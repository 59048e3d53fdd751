"""Tests for repro.obs.export — exposition formats."""

from __future__ import annotations

import json

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import (
    escape_label_value,
    parse_prometheus,
    parse_prometheus_labels,
    prometheus_name,
    render_prometheus,
    unescape_label_value,
)
from repro.obs.metrics import MetricsRegistry


def populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("serve.requests", op="build").inc(7)
    reg.counter("serve.requests", op="stats").inc(2)
    reg.gauge("serve.queue_depth").set(3)
    hist = reg.histogram("serve.build_seconds", builder="mst")
    for v in (0.1, 0.2, 0.3, 0.4, 0.5):
        hist.observe(v)
    return reg


class TestPrometheusName:
    def test_dots_become_underscores_with_prefix(self):
        assert prometheus_name("serve.build_seconds") == "repro_serve_build_seconds"

    def test_illegal_chars_dropped(self):
        assert prometheus_name("a b-c", prefix="") == "a_b_c"

    def test_no_prefix(self):
        assert prometheus_name("x.y", prefix="") == "x_y"


class TestRenderPrometheus:
    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_type_headers_present(self):
        text = render_prometheus(populated_registry())
        assert "# TYPE repro_serve_requests counter" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "# TYPE repro_serve_build_seconds summary" in text

    def test_counter_labels_and_values(self):
        samples = parse_prometheus(render_prometheus(populated_registry()))
        assert samples['repro_serve_requests{op="build"}'] == 7
        assert samples['repro_serve_requests{op="stats"}'] == 2
        assert samples["repro_serve_queue_depth"] == 3

    def test_histogram_exports_quantiles_count_sum(self):
        samples = parse_prometheus(render_prometheus(populated_registry()))
        assert samples['repro_serve_build_seconds{builder="mst",quantile="0.5"}'] == 0.3
        assert samples['repro_serve_build_seconds{builder="mst",quantile="0.99"}'] == 0.5
        assert samples['repro_serve_build_seconds_count{builder="mst"}'] == 5
        assert samples['repro_serve_build_seconds_sum{builder="mst"}'] == pytest.approx(1.5)

    def test_empty_histogram_exports_zero_quantiles(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        samples = parse_prometheus(render_prometheus(reg))
        assert samples['repro_h{quantile="0.5"}'] == 0.0
        assert samples["repro_h_count"] == 0

    def test_families_sorted_for_stable_diffs(self):
        text = render_prometheus(populated_registry())
        type_lines = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert type_lines == sorted(type_lines)


class TestParsePrometheus:
    def test_skips_comments_and_blanks(self):
        assert parse_prometheus("# HELP x\n\nx 1\n") == {"x": 1.0}

    @pytest.mark.parametrize("bad", ["not a sample line at all !", 'x{k="v} 1'])
    def test_malformed_line_raises(self, bad):
        with pytest.raises(ValueError, match="line 1"):
            parse_prometheus(bad)

    def test_round_trips_own_rendering(self):
        text = render_prometheus(populated_registry())
        samples = parse_prometheus(text)
        assert len(samples) == len(
            [l for l in text.splitlines() if not l.startswith("#")]
        )


class TestJsonSnapshot:
    def test_registry_snapshot_is_json_safe(self):
        doc = populated_registry().snapshot()
        json.dumps(doc)  # must not raise
        hist = doc["histograms"]["serve.build_seconds{builder=mst}"]
        assert hist["count"] == 5 and "p99" in hist


class TestLabelEscaping:
    """Round-trip properties over hostile label values and empty histograms."""

    label_values = st.text(
        alphabet=st.sampled_from(list('abc"\\\n {}=,')), max_size=12
    )

    def test_escape_unescape_identity_on_examples(self):
        for value in ('', 'plain', 'has "quotes"', 'line\nbreak', 'back\\slash',
                      '}{, =', '\\n literal', 'trailing\\'):
            assert unescape_label_value(escape_label_value(value)) == value

    @given(value=label_values)
    @settings(max_examples=200, deadline=None)
    def test_escape_unescape_identity(self, value):
        assert unescape_label_value(escape_label_value(value)) == value

    @given(op=label_values, shard=label_values)
    @settings(max_examples=100, deadline=None)
    def test_counter_labels_round_trip(self, op, shard):
        reg = MetricsRegistry()
        reg.counter("serve.requests", op=op, shard=shard).inc(5)
        samples = parse_prometheus(render_prometheus(reg))
        assert len(samples) == 1
        (key, value), = samples.items()
        assert value == 5
        label_text = key[key.index("{") + 1 : -1]
        assert parse_prometheus_labels(label_text) == {"op": op, "shard": shard}

    @given(builder=label_values, observations=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        max_size=8,
    ))
    @settings(max_examples=100, deadline=None)
    def test_histogram_round_trip_including_zero_observations(
        self, builder, observations
    ):
        reg = MetricsRegistry()
        hist = reg.histogram("serve.build_seconds", builder=builder)
        for v in observations:
            hist.observe(v)
        samples = parse_prometheus(render_prometheus(reg))
        # quantile series + _count + _sum, all parseable even when empty.
        count_key = next(k for k in samples if "_count" in k)
        assert samples[count_key] == len(observations)
        if not observations:
            quantile_keys = [k for k in samples if "quantile" in k]
            assert len(quantile_keys) == 3
            assert all(samples[k] == 0.0 for k in quantile_keys)
        for key in samples:
            if "{" not in key:
                continue
            labels = parse_prometheus_labels(key[key.index("{") + 1 : -1])
            assert labels["builder"] == builder

    def test_raw_newline_in_label_stays_single_line(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests", op='multi\nline "x"\\').inc(1)
        text = render_prometheus(reg)
        sample_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(sample_lines) == 1
        parse_prometheus(text)  # must not raise
