"""Builder-output pins: every registered builder's tree on seeded networks.

``tests/data/builder_trees.json`` records the parent map each builder
returns on three seeded G(n, p) networks for n = 16, 30 and 120.  Any
change to the tree engine or a builder's move order that alters a single
parent pointer fails here.  Regenerate (only for an intended tree change)
with::

    PYTHONPATH=src python tests/test_builder_pins.py --write

A churn run (IRA rebuilt centrally every round under drifting PRRs) is
pinned by digest alongside.
"""

from __future__ import annotations

import hashlib
import json
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.engine import available_builders, build_tree
from repro.network import random_graph

PINS_PATH = Path(__file__).parent / "data" / "builder_trees.json"

#: ``n -> link probability``: G(16, 0.4), G(30, 8/30), G(120, 8/120).
SIZES = {16: 0.4, 30: 8 / 30, 120: 8 / 120}
SEEDS = (0, 1, 2)

#: The exact MILP is pinned below n = 120 only (exponential time).
SMALL_ONLY = {"exact": (16, 30)}


def pin_network(n: int, seed: int):
    """Seed 0 has uniform 3000 J batteries (many lifetime ties); the others
    draw per-node energies from [1500, 5000] J."""
    rng = np.random.default_rng([zlib.crc32(b"builder-pins"), n, seed])
    energy = 3000.0 if seed == 0 else rng.uniform(1500.0, 5000.0, size=n)
    return random_graph(n, SIZES[n], initial_energy=energy, seed=rng)


def pin_config(builder: str, net) -> dict:
    """The knobs each builder is pinned with on *net*."""
    if builder in ("ira", "exact"):
        return {"lc": build_tree("aaml", net).lifetime}
    if builder == "local_search":
        return {"lc": 0.8 * build_tree("aaml", net).lifetime}
    if builder == "delay_bounded":
        bfs = build_tree("bfs", net).tree
        return {"max_depth": max(bfs.depth(v) for v in range(net.n)) + 1}
    if builder in ("rasmalai", "random_tree"):
        return {"seed": 7}
    if builder == "portfolio":
        # No budget_s: a serial, deterministic race.
        return {"lc": 0.5 * build_tree("bfs", net).lifetime, "seed": 3}
    return {}


def pin_cases():
    """``{"builder/n<n>/s<seed>": (builder, n, seed)}`` for every pinned tree."""
    return {
        f"{builder}/n{n}/s{seed}": (builder, n, seed)
        for builder in available_builders()
        for n in SMALL_ONLY.get(builder, tuple(SIZES))
        for seed in SEEDS
    }


def build_pinned(builder: str, n: int, seed: int):
    net = pin_network(n, seed)
    tree = build_tree(builder, net, **pin_config(builder, net)).tree
    return [-1 if v == net.sink else tree.parent(v) for v in range(n)]


def _load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))["trees"]


@pytest.mark.parametrize("key", sorted(pin_cases()))
def test_builder_tree_is_pinned(key):
    assert build_pinned(*pin_cases()[key]) == _load_pins()[key]


def test_every_registered_builder_is_pinned():
    assert set(pin_cases()) == set(_load_pins())


#: SHA-256 over the ``repr`` of every record of :func:`churn_records`.
CHURN_DIGEST = "be39811f198661e2a21087fbddc4f794082910623f40aa0a235b253ea8280c84"


def churn_records():
    from repro.distributed.simulator import ChurnSimulation

    net = random_graph(18, 0.45, prr_low=0.6, prr_high=0.95, seed=5)
    lc = build_tree("aaml", net).lifetime
    tree = build_tree("ira", net, lc=lc).tree
    sim = ChurnSimulation(
        net,
        tree,
        lc,
        cost_delta=0.2,
        improve_probability=0.3,
        improve_delta=0.2,
        seed=21,
    )
    return sim.run(25)


def test_churn_records_are_pinned():
    records = churn_records()
    text = "".join(f"{record!r}\n" for record in records)
    assert hashlib.sha256(text.encode()).hexdigest() == CHURN_DIGEST


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_builder_pins.py --write")
    trees = {key: build_pinned(*case) for key, case in pin_cases().items()}
    PINS_PATH.parent.mkdir(exist_ok=True)
    PINS_PATH.write_text(
        json.dumps({"trees": trees}, indent=None, separators=(",", ":"))
        .replace('],"', '],\n"')
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(trees)} pinned trees to {PINS_PATH}")
