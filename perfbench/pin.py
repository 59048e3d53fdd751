"""Regenerate ``reference.json``: the pinned canary trees of every workload.

Each workload builds a few fixed canary inputs, independent of ``--seed``,
and fails a run whose trees differ from the pins.  Re-pin only in a change
that means to alter trees, and say so in its description::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.engine import build_tree
    from perfbench.certify import certify, input_digest, tree_digest
    from perfbench.run import REFERENCE, _workloads

    table = {}
    for name, workload in _workloads().items():
        pins = {}
        for builder, net, params in workload.canary_specs():
            parents = build_tree(builder, net, **params).tree.parents
            cert = certify(net, parents, lc=params.get("lc"))
            pins[input_digest(builder, net, params)] = tree_digest(parents, cert)
        table[name] = dict(sorted(pins.items()))
    REFERENCE.write_text(json.dumps(table, indent=2) + "\n")
    print(f"pinned {sum(map(len, table.values()))} trees in {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
