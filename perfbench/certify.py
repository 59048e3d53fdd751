"""Independent certification of aggregation trees, and pinned tree digests.

Nothing here trusts the program's bookkeeping.  A tree is checked from its
parent map and the ``Network`` it was built on alone: it must span every
node, reach the sink from every node, and use only links of the network.
Cost, reliability and lifetime are then recomputed from link PRRs and node
energies (Eq. 1, 9, 10 of the paper), never read from a ``TreeState``.

A *digest* pins a tree: its sorted parent map plus the recomputed cost.
:func:`input_digest` names the input a digest belongs to, so the pinned
table in ``reference.json`` maps inputs to trees.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional

from repro.network import Network
from repro.network.serialization import topology_fingerprint

#: Relative tolerance for comparing recomputed metrics with reported ones
#: and for ``L(T) >= LC`` (the same tolerance ``meets_lifetime`` applies).
REL_TOL = 1e-9


class CertificationError(ValueError):
    """A tree failed an independent check."""


@dataclass(frozen=True)
class Certificate:
    """Metrics recomputed from the network for one certified tree."""

    cost: float
    reliability: float
    lifetime: float


def certify(
    network: Network, parents: Mapping[Any, Any], *, lc: Optional[float] = None
) -> Certificate:
    """Check *parents* is a sink-rooted spanning tree of *network*.

    With *lc*, also check the recomputed lifetime meets it.  Raises
    :class:`CertificationError` naming the first violation.
    """
    n, sink = network.n, network.sink
    parent = {int(v): int(p) for v, p in parents.items()}
    expected = set(range(n)) - {sink}
    if set(parent) != expected:
        missing = sorted(expected - set(parent))[:5]
        extra = sorted(set(parent) - expected)[:5]
        raise CertificationError(
            f"not spanning: missing parents for {missing}, unexpected {extra}"
        )
    children = [0] * n
    for v, p in parent.items():
        if not (0 <= p < n) or not network.has_edge(v, p):
            raise CertificationError(f"tree edge ({v}, {p}) is not a network link")
        children[p] += 1
    # 0 unvisited, 1 on the current walk, 2 known to reach the sink.
    state = [0] * n
    state[sink] = 2
    for start in range(n):
        walk: List[int] = []
        v = start
        while state[v] == 0:
            state[v] = 1
            walk.append(v)
            v = parent[v]
        if state[v] == 1:
            raise CertificationError(f"parent pointers cycle through node {v}")
        for u in walk:
            state[u] = 2
    cost, reliability = 0.0, 1.0
    for u, v in sorted((min(v, p), max(v, p)) for v, p in parent.items()):
        prr = network.prr(u, v)
        cost -= math.log(prr)
        reliability *= prr
    model = network.energy_model
    lifetime = min(
        network.initial_energy(v) / (model.tx + model.rx * children[v])
        for v in range(n)
    )
    if lc is not None and lifetime < lc * (1.0 - REL_TOL):
        raise CertificationError(f"lifetime {lifetime!r} below LC {lc!r}")
    return Certificate(cost=cost, reliability=reliability, lifetime=lifetime)


def check_reported(cert: Certificate, reported: Mapping[str, Any]) -> None:
    """Compare a response's reported metrics with the recomputed ones."""
    for name in ("cost", "reliability", "lifetime"):
        value = float(reported[name])
        truth = getattr(cert, name)
        if not math.isclose(value, truth, rel_tol=REL_TOL, abs_tol=1e-12):
            raise CertificationError(
                f"reported {name} {value!r} differs from recomputed {truth!r}"
            )


def tree_digest(parents: Mapping[Any, Any], cert: Certificate) -> str:
    """Pin of one tree: sorted parent map plus the recomputed cost."""
    body = ",".join(f"{v}:{p}" for v, p in sorted((int(v), int(p)) for v, p in parents.items()))
    return hashlib.sha256(f"{body}|{cert.cost!r}".encode()).hexdigest()[:24]


def input_digest(builder: str, network: Network, params: Mapping[str, Any]) -> str:
    """Name of one build input: topology fingerprint, builder, params."""
    material = "|".join(
        (topology_fingerprint(network), builder, json.dumps(dict(params), sort_keys=True))
    )
    return hashlib.sha256(material.encode()).hexdigest()[:24]


def check_pins(
    built: Mapping[str, str], pins: Optional[Mapping[str, str]]
) -> List[str]:
    """Failures of *built* (input digest -> tree digest) against *pins*.

    ``pins=None`` skips the check (reduced-size configurations have no pinned
    trees).  Otherwise every built input must be pinned, to the same tree.
    """
    if pins is None:
        return []
    failures = []
    for key, digest in sorted(built.items()):
        pinned = pins.get(key)
        if pinned is None:
            failures.append(f"input {key} has no pinned reference")
        elif pinned != digest:
            failures.append(f"input {key}: tree {digest} differs from pinned {pinned}")
    return failures


def strip_elapsed(value: Any) -> Any:
    """Drop wall-clock ``elapsed_s`` keys at any depth (portfolio members nest them)."""
    if isinstance(value, dict):
        return {k: strip_elapsed(v) for k, v in value.items() if k != "elapsed_s"}
    return value

