"""Regression pins: the canonical numbers documented in EXPERIMENTS.md.

These tests freeze the exact headline values of the canonical (seeded)
instances.  If an intentional change moves them, update EXPERIMENTS.md and
these pins together — that is the point: documented numbers and code cannot
drift apart silently.
"""

import hashlib
import zlib

import numpy as np
import pytest

from repro.baselines.aaml import build_aaml_tree
from repro.baselines.mst import build_mst_tree
from repro.core.ira import build_ira_tree
from repro.core.tree import PAPER_COST_SCALE, AggregationTree
from repro.engine import build_tree
from repro.network import random_graph


class TestFig7CanonicalNumbers:
    """The Fig. 7 table in EXPERIMENTS.md, to one decimal."""

    @pytest.fixture(scope="class")
    def parts(self, dfl, dfl_aaml):
        aaml_tree = AggregationTree(dfl, dfl_aaml.tree.parents)
        mst = build_mst_tree(dfl)
        return dfl, dfl_aaml, aaml_tree, mst

    def test_aaml_pin(self, parts):
        _, _, aaml_tree, _ = parts
        assert aaml_tree.cost() * PAPER_COST_SCALE == pytest.approx(554.6, abs=0.1)
        assert aaml_tree.reliability() == pytest.approx(0.6809, abs=1e-3)

    def test_mst_pin(self, parts):
        *_, mst = parts
        assert mst.cost() * PAPER_COST_SCALE == pytest.approx(60.7, abs=0.1)
        assert mst.reliability() == pytest.approx(0.9588, abs=1e-3)

    def test_ira_strict_pin(self, parts):
        dfl, dfl_aaml, _, _ = parts
        result = build_ira_tree(dfl, dfl_aaml.lifetime)
        assert result.tree.cost() * PAPER_COST_SCALE == pytest.approx(
            88.4, abs=0.5
        )
        assert result.tree.reliability() == pytest.approx(0.9406, abs=2e-3)

    def test_ira_relaxed_reaches_mst(self, parts):
        dfl, dfl_aaml, _, mst = parts
        result = build_ira_tree(dfl, dfl_aaml.lifetime / 2.5)
        assert result.tree.cost() == pytest.approx(mst.cost(), abs=1e-9)

    def test_l_aaml_pin(self, parts):
        _, dfl_aaml, _, _ = parts
        # 3000 J at one child: 3000 / 2.8e-4 rounds.
        assert dfl_aaml.lifetime == pytest.approx(3000.0 / 2.8e-4, rel=1e-9)


class TestHeadlineClaims:
    def test_reliability_improvement_at_same_lifetime(self, dfl, dfl_aaml):
        """EXPERIMENTS.md reports +38% (paper: +24%)."""
        aaml_tree = AggregationTree(dfl, dfl_aaml.tree.parents)
        ira = build_ira_tree(dfl, dfl_aaml.lifetime)
        gain = ira.tree.reliability() / aaml_tree.reliability() - 1.0
        assert gain == pytest.approx(0.38, abs=0.02)

    def test_ira_cost_fraction_of_aaml(self, dfl, dfl_aaml):
        aaml_tree = AggregationTree(dfl, dfl_aaml.tree.parents)
        ira = build_ira_tree(dfl, dfl_aaml.lifetime)
        fraction = ira.tree.cost() / aaml_tree.cost()
        assert fraction < 0.2  # paper: 18%; ours ~16%


#: IRA input families: (n, p, per-node energy range or None for 3000 J,
#: LC rule, input count).  ``aaml`` sets LC to the AAML tree's lifetime (LC
#: binds; the Fig. 8/9 protocol), ``half-bfs`` to half the BFS tree's
#: lifetime (LC is loose; the LP is the Subtour LP).
IRA_FAMILIES = {
    "g22-aaml": (22, 0.3, (1500.0, 5000.0), "aaml", 60),
    "g25-half-bfs": (25, 0.6, None, "half-bfs", 60),
    "g40-aaml": (40, 0.15, (1500.0, 5000.0), "aaml", 20),
}

#: SHA-256 over every input's sorted parent map and ``repr`` of its tree
#: cost.  Cut generation may change freely (which sets the separation
#: oracle reports, how many rounds the LP takes); the trees may not.
IRA_TREE_DIGESTS = {
    "g22-aaml": "e95f85cbc367e5750af56c8fb81e8117a84302dbf348da08c151a24d8f4326d7",
    "g25-half-bfs": "16ecca06f5d02595c9d2cc07a50c3321ceb410b42d9fd6788d08bac66f7740c8",
    "g40-aaml": "77fd4f8553f5b4f52a289201784c95daeab3b51f5aecb41535fa780a6687fb58",
}


def ira_family_inputs(name):
    """The seeded (network, LC) inputs of one :data:`IRA_FAMILIES` entry."""
    n, p, energy_range, lc_rule, count = IRA_FAMILIES[name]
    for i in range(count):
        rng = np.random.default_rng([zlib.crc32(name.encode()), i])
        energy = rng.uniform(*energy_range, size=n) if energy_range else 3000.0
        net = random_graph(n, p, initial_energy=energy, seed=rng)
        if lc_rule == "aaml":
            lc = build_tree("aaml", net).lifetime
        else:
            lc = 0.5 * build_tree("bfs", net).lifetime
        yield net, lc


@pytest.mark.parametrize("name", sorted(IRA_FAMILIES))
def test_ira_trees_are_pinned(name):
    """IRA's trees and costs on seeded inputs match their recorded digest."""
    digest = hashlib.sha256()
    for net, lc in ira_family_inputs(name):
        tree = build_ira_tree(net, lc).tree
        digest.update(f"{sorted(tree.parents.items())} {tree.cost()!r}\n".encode())
    assert digest.hexdigest() == IRA_TREE_DIGESTS[name]
