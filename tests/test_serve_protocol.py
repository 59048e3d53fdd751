"""Wire encoding of build responses (repro.serve.protocol)."""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from repro.engine import build_tree
from repro.network.topology import random_graph
from repro.serve import make_response
from repro.serve.protocol import encode_response


def _plain(value):
    """True when *value* is made only of built-in JSON types."""
    if isinstance(value, list):
        return all(_plain(v) for v in value)
    if isinstance(value, dict):
        return all(type(k) is str and _plain(v) for k, v in value.items())
    return value is None or type(value) in (str, int, float, bool)


def test_meta_values_encode_to_plain_json_types():
    result = build_tree("mst", random_graph(8, 0.6, seed=1))
    result.meta.update(
        flag=np.bool_(True),
        count=np.int64(7),
        ratio=np.float64(0.5),
        pair=(1, np.int64(2)),
        nested={"inner": np.float64(1.5), 3: np.bool_(False)},
        degrees=np.array([1, 2, 3]),
    )
    response = make_response(result, "fp", "key", hit=False, source="built")
    metrics = encode_response(response)["metrics"]
    assert _plain(metrics)
    assert metrics["flag"] is True
    assert metrics["count"] == 7
    assert metrics["ratio"] == 0.5
    assert metrics["pair"] == [1, 2]
    assert metrics["nested"] == {"inner": 1.5, "3": False}
    assert metrics["degrees"] == [1, 2, 3]
    assert json.loads(json.dumps(metrics)) == metrics


def test_a_response_without_a_stored_body_encodes_from_its_fields():
    result = build_tree("local_search", random_graph(12, 0.5, seed=2), lc=1.0)
    response = make_response(result, "fp", "key", hit=True, source="result")
    by_hand = dataclasses.replace(response, body=None)
    assert json.dumps(encode_response(by_hand)) == json.dumps(encode_response(response))
