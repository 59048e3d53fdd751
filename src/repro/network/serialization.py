"""JSON (de)serialization for networks and trees.

Deployments snapshot their estimated link state so experiments are
re-runnable; this module round-trips :class:`~repro.network.model.Network`
and :class:`~repro.core.tree.AggregationTree` through plain JSON documents
(schema below) so instances can be archived next to experiment results.

Network schema (version 1)::

    {
      "format": "repro-network",
      "version": 1,
      "n": 16,
      "energy_model": {"tx": 1.6e-4, "rx": 1.2e-4},
      "initial_energy": [3000.0, ...],
      "positions": [[x, y], ...] | null,
      "links": [[u, v, prr], ...]
    }

Tree schema (version 1)::

    {"format": "repro-tree", "version": 1, "n": 16, "parents": {"1": 0, ...}}
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Union

import numpy as np

from repro.core.tree import AggregationTree
from repro.network.energy import EnergyModel
from repro.network.model import Network

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
    "topology_fingerprint",
    "tree_to_dict",
    "tree_from_dict",
    "save_tree",
    "load_tree",
]

_NETWORK_FORMAT = "repro-network"
_TREE_FORMAT = "repro-tree"
_VERSION = 1


def network_to_dict(network: Network) -> Dict:
    """Serialize *network* to a JSON-compatible dict."""
    return {
        "format": _NETWORK_FORMAT,
        "version": _VERSION,
        "n": network.n,
        "energy_model": {
            "tx": network.energy_model.tx,
            "rx": network.energy_model.rx,
        },
        "initial_energy": [float(e) for e in network.initial_energies],
        "positions": (
            None
            if network.positions is None
            else [[float(x), float(y)] for x, y in network.positions]
        ),
        "links": [[e.u, e.v, e.prr] for e in network.edges()],
    }


def network_from_dict(data: Any) -> Network:
    """Rebuild a network from :func:`network_to_dict` output.

    Raises ``ValueError`` on a document that is not a mapping, a wrong
    format tag, an unsupported version, or structurally invalid content
    (delegated to the Network validators).
    """
    if not isinstance(data, Mapping):
        raise ValueError(
            f"a {_NETWORK_FORMAT} document must be a JSON object, "
            f"got {type(data).__name__}"
        )
    if data.get("format") != _NETWORK_FORMAT:
        raise ValueError(
            f"not a {_NETWORK_FORMAT} document (format={data.get('format')!r})"
        )
    if data.get("version") != _VERSION:
        raise ValueError(f"unsupported version {data.get('version')!r}")
    model = EnergyModel(
        tx=float(data["energy_model"]["tx"]),
        rx=float(data["energy_model"]["rx"]),
    )
    positions = data.get("positions")
    network = Network(
        int(data["n"]),
        initial_energy=data["initial_energy"],
        energy_model=model,
        positions=None if positions is None else np.asarray(positions, dtype=float),
    )
    for u, v, prr in data["links"]:
        network.add_link(int(u), int(v), float(prr))
    return network


#: Version tag mixed into every fingerprint; bump when the canonical byte
#: encoding below changes so stale cache keys cannot alias new ones.
_FINGERPRINT_TAG = "repro-topology-v1"


def topology_fingerprint(network: Network) -> str:
    """Content-addressed identity of *network*'s algorithmic inputs.

    Returns a hex SHA-256 digest over a canonical byte encoding of exactly
    the fields tree builders consume: node count, the per-packet energy
    model, the per-node initial energies, and the sorted link list with
    PRRs.  Two networks with equal values hash identically regardless of
    link insertion order (links are serialized in canonical ``(u, v)`` key
    order) or numeric representation (every number is passed through
    ``float()``/``int()`` and rendered with ``repr``, the shortest
    round-trip form, so a PRR stored as ``np.float64(0.95)`` and a plain
    ``0.95`` agree — while genuinely different values such as a float32
    rounding of 0.95 do not).

    Node ``positions`` are deliberately excluded: no builder reads them, so
    two deployments differing only in coordinates produce identical trees
    and may share cache entries.  The serving layer
    (:mod:`repro.serve`) keys both of its cache tiers on this digest.
    """
    h = hashlib.sha256()

    def feed(text: str) -> None:
        h.update(text.encode("ascii"))
        h.update(b"\n")

    feed(_FINGERPRINT_TAG)
    feed(str(int(network.n)))
    feed(repr(float(network.energy_model.tx)))
    feed(repr(float(network.energy_model.rx)))
    for energy in network.initial_energies:
        feed(repr(float(energy)))
    feed(str(network.n_edges))
    for edge in network.edges():  # canonical sorted-key order
        feed(f"{int(edge.u)},{int(edge.v)},{repr(float(edge.prr))}")
    return h.hexdigest()


def save_network(network: Network, path: Union[str, Path]) -> None:
    """Write *network* to *path* as JSON."""
    Path(path).write_text(json.dumps(network_to_dict(network), indent=2))


def load_network(path: Union[str, Path]) -> Network:
    """Read a network JSON document from *path*."""
    return network_from_dict(json.loads(Path(path).read_text()))


def tree_to_dict(tree: AggregationTree) -> Dict:
    """Serialize *tree*'s structure (the network is stored separately)."""
    return {
        "format": _TREE_FORMAT,
        "version": _VERSION,
        "n": tree.n,
        "parents": {str(v): int(p) for v, p in tree.parents.items()},
    }


def tree_from_dict(data: Dict, network: Network) -> AggregationTree:
    """Rebuild a tree over *network* from :func:`tree_to_dict` output."""
    if data.get("format") != _TREE_FORMAT:
        raise ValueError(
            f"not a {_TREE_FORMAT} document (format={data.get('format')!r})"
        )
    if data.get("version") != _VERSION:
        raise ValueError(f"unsupported version {data.get('version')!r}")
    if int(data["n"]) != network.n:
        raise ValueError(
            f"tree has {data['n']} nodes but network has {network.n}"
        )
    parents = {int(v): int(p) for v, p in data["parents"].items()}
    return AggregationTree(network, parents)


def save_tree(tree: AggregationTree, path: Union[str, Path]) -> None:
    """Write *tree* to *path* as JSON."""
    Path(path).write_text(json.dumps(tree_to_dict(tree), indent=2))


def load_tree(path: Union[str, Path], network: Network) -> AggregationTree:
    """Read a tree JSON document from *path* and bind it to *network*."""
    return tree_from_dict(json.loads(Path(path).read_text()), network)
