"""Instrumentation hooks across the algorithm layers.

These tests enable a scoped instrumentation session, run the real builders /
simulators, and check that the counters they report are consistent with the
results the public API returns — the metrics must be *measurements*, not
decorations.  The protocol section also pins the paper's Section VI claim
that one distributed update costs O(n) messages, using the new counters.
"""

import pytest

from repro.baselines.aaml import build_aaml_tree
from repro.core.ira import build_ira_tree
from repro.distributed.simulator import ChurnSimulation
from repro.network import random_graph
from repro.obs import OBS, MetricsRegistry, Tracer, instrument, is_enabled
from repro.simulation.rounds import AggregationSimulator


class TestInstrumentScoping:
    def test_disabled_by_default(self):
        assert not is_enabled()

    def test_enabled_inside_restored_after(self):
        with instrument() as session:
            assert is_enabled()
            assert OBS.registry is session.registry
        assert not is_enabled()

    def test_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with instrument():
                raise RuntimeError
        assert not is_enabled()

    def test_sessions_nest(self):
        with instrument() as outer:
            with instrument() as inner:
                assert OBS.registry is inner.registry
            assert OBS.registry is outer.registry
        assert not is_enabled()

    def test_caller_supplied_backends_accumulate(self):
        reg = MetricsRegistry()
        tracer = Tracer()
        for _ in range(2):
            with instrument(registry=reg, tracer=tracer):
                OBS.registry.counter("block").inc()
                OBS.tracer.event("block")
        assert reg.counter_value("block") == 2
        assert sum(e.name == "block" for e in tracer.events) == 2

    def test_manifest_records_seed_and_params(self):
        with instrument(seed=9, params={"nodes": 10}) as session:
            pass
        assert session.manifest.seed == 9
        assert session.manifest.params == {"nodes": 10}

    def test_session_write_produces_three_artifacts(self, tmp_path):
        with instrument(seed=1) as session:
            OBS.registry.counter("c").inc()
            OBS.tracer.event("e")
        paths = session.write(tmp_path / "out")
        for key in ("trace", "manifest", "metrics"):
            assert paths[key].exists(), key
        from repro.obs import RunManifest, read_jsonl

        records = read_jsonl(paths["trace"])
        assert records[0]["kind"] == "trace_start"
        assert any(r["name"] == "e" for r in records)
        assert RunManifest.load(paths["manifest"]).seed == 1


class TestIraCounters:
    @pytest.fixture(scope="class")
    def run(self):
        net = random_graph(12, 0.6, seed=5)
        with instrument() as session:
            lc = build_aaml_tree(net).lifetime / 2.0
            result = build_ira_tree(net, lc)
        return result, session.registry, session.tracer

    def test_counters_match_result(self, run):
        result, reg, _ = run
        assert reg.total("ira.iterations") >= result.iterations >= 1
        assert reg.total("ira.lp_solves") >= result.lp_solves >= 1

    def test_lp_layer_consistent_with_ira(self, run):
        result, reg, _ = run
        # Every IRA LP solve goes through core.lp; both inflation attempts
        # are included in the registry totals.
        assert reg.total("lp.solves") >= result.lp_solves
        assert reg.total("separation.calls") >= 1

    def test_simplex_iterations_counted_per_solve(self, run):
        _, reg, tracer = run
        per_solve = [
            e.fields["simplex_iterations"] for e in tracer.events if e.name == "lp.solve"
        ]
        assert per_solve and all(n >= 0 for n in per_solve)
        # Infeasible programs add to the counter but emit no lp.solve event.
        assert reg.total("lp.simplex_iterations") >= sum(per_solve) >= 1

    def test_trace_has_iteration_events(self, run):
        _, _, tracer = run
        names = [e.name for e in tracer.events]
        assert "ira.start" in names
        assert "ira.iteration" in names
        assert "ira.done" in names
        assert any(e.name == "lp.solve" for e in tracer.events)

    def test_local_search_moves_reported(self, run):
        _, reg, _ = run
        accepted = reg.total("local_search.moves_accepted")
        evaluated = reg.total("local_search.moves_evaluated")
        assert evaluated >= accepted >= 1

    def test_nothing_recorded_when_disabled(self):
        net = random_graph(10, 0.6, seed=6)
        lc = build_aaml_tree(net).lifetime / 2.0
        build_ira_tree(net, lc)  # no session active
        assert not is_enabled()
        assert OBS.registry.counter_value("ira.iterations") == 0


class TestSimulationCounters:
    def test_round_counters_match_outcomes(self):
        net = random_graph(8, 0.7, seed=2)
        tree = build_aaml_tree(net).tree
        n_rounds = 40
        with instrument() as session:
            sim = AggregationSimulator(tree, seed=3)
            reliability = sim.estimate_reliability(n_rounds)
        reg = session.registry
        assert reg.counter_value("sim.rounds") == n_rounds
        complete = reg.counter_value("sim.rounds_by_outcome", outcome="complete")
        incomplete = reg.counter_value(
            "sim.rounds_by_outcome", outcome="incomplete"
        )
        assert complete + incomplete == n_rounds
        assert complete == round(reliability * n_rounds)
        # Every round sends exactly one packet per non-sink node.
        assert reg.counter_value("sim.transmissions") == n_rounds * (tree.n - 1)
        assert (
            reg.counter_value("sim.deliveries")
            + reg.counter_value("sim.delivery_failures")
            == n_rounds * tree.n
        )


class TestProtocolCounters:
    """The distributed protocol's message accounting, per Section VI."""

    @pytest.fixture(scope="class")
    def churn(self):
        net = random_graph(14, 0.6, seed=8)
        lc = build_aaml_tree(net).lifetime / 1.5
        initial = build_ira_tree(net, lc)
        with instrument() as session:
            sim = ChurnSimulation(
                net,
                initial.tree,
                lc,
                recompute_centralized=False,
                seed=4,
            )
            records = sim.run(25)
        return net, records, session.registry, session.tracer

    def test_message_counters_match_records(self, churn):
        _, records, reg, _ = churn
        parent_changes = reg.counter_value(
            "protocol.messages", type="parent_change"
        )
        assert parent_changes == sum(r.messages for r in records)
        assert reg.counter_value("churn.rounds") == len(records)
        assert reg.gauge("churn.cumulative_messages").value == records[
            -1
        ].cumulative_messages

    def test_per_update_messages_within_linear_bound(self, churn):
        """Section VI: one update floods over the tree — at most n messages.

        This is the analytical O(n) bound the paper's Fig. 13 relies on; the
        new histogram measures it directly.
        """
        net, records, reg, _ = churn
        hist = reg.histogram("protocol.messages_per_update")
        assert hist.count == reg.counter_value("protocol.parent_changes")
        assert hist.count == records[-1].cumulative_updates
        if hist.count:
            assert max(hist.values) <= net.n
            assert min(hist.values) >= 1

    def test_trace_events_match_update_count(self, churn):
        _, records, reg, tracer = churn
        changes = [e for e in tracer.events if e.name == "protocol.parent_change"]
        assert len(changes) == records[-1].cumulative_updates
        for ev in changes:
            assert 1 <= ev.fields["messages"] <= 14
            assert ev.fields["bytes"] > 0

    def test_setup_broadcast_bounded_by_n(self):
        net = random_graph(12, 0.7, seed=9)
        tree = build_aaml_tree(net).tree
        from repro.distributed.protocol import DistributedProtocol

        with instrument() as session:
            proto = DistributedProtocol(net, tree, lc=0.0)
        reg = session.registry
        announced = reg.counter_value(
            "protocol.messages", type="code_announcement"
        )
        assert announced == proto.setup_messages
        assert 1 <= announced <= net.n


class TestRunInstrumented:
    def test_forwards_arguments_and_returns_session(self):
        from repro.experiments.common import run_instrumented

        def fake_experiment(a, *, seed=None, scale=1):
            OBS.registry.counter("fake.calls").inc()
            return (a * scale, seed)

        result, session = run_instrumented(fake_experiment, 3, seed=7, scale=2)
        assert result == (6, 7)
        assert session.registry.counter_value("fake.calls") == 1
        # The experiment's own seed kwarg doubles as the manifest seed.
        assert session.manifest.seed == 7
        assert session.manifest.params == {"seed": 7, "scale": 2}
        assert not is_enabled()

    def test_explicit_obs_params_win(self):
        from repro.experiments.common import run_instrumented

        _, session = run_instrumented(
            lambda: None, obs_seed=1, obs_params={"tag": "x"}
        )
        assert session.manifest.seed == 1
        assert session.manifest.params == {"tag": "x"}

    def test_metrics_snapshot_none_when_disabled(self):
        from repro.experiments.common import metrics_snapshot

        assert metrics_snapshot() is None
        with instrument():
            OBS.registry.counter("c").inc()
            snap = metrics_snapshot()
        assert snap is not None and snap["counters"] == {"c": 1}
