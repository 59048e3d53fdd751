"""Fuzzing the JSON-lines TCP transport: every bad line gets one error reply.

Each example starts a real :func:`start_tcp_server` and sends a batch of
lines over one connection, one at a time: random bytes, random JSON
values, and a valid document for each op with one field dropped or
retyped.  Every non-blank line must get exactly one reply line; a
malformed one gets ``ok: false`` with an ``error``.  A trailing ``ping``
must then succeed on the same connection and on a new one, so the server
outlived the batch.  The suite-wide stall guard (``tests/conftest.py``)
fails the test if any line blocks the event loop.
"""

from __future__ import annotations

import asyncio
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.serialization import network_to_dict, topology_fingerprint
from repro.network.topology import random_graph
from repro.serve import TreeServer
from repro.serve.tcp import start_tcp_server

NET = random_graph(6, 0.8, seed=5)
FINGERPRINT = topology_fingerprint(NET)

#: One valid document per op (``trace`` names an unknown trace, which is
#: an error, but a well-formed one).
VALID_DOCS = {
    "ping": {"op": "ping", "id": 1},
    "stats": {"op": "stats", "id": 2},
    "register": {"op": "register", "network": network_to_dict(NET), "id": 3},
    "min_cut": {"op": "min_cut", "fingerprint": FINGERPRINT, "u": 3, "v": 0},
    "metrics": {"op": "metrics", "format": "json", "id": 5},
    "trace": {"op": "trace", "trace": "0" * 16},
    "build": {"op": "build", "builder": "mst", "fingerprint": FINGERPRINT, "id": 7},
}

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
_json = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)
_not_str = _json.filter(lambda value: not isinstance(value, str))
_not_int = st.one_of(
    st.none(),
    st.text(alphabet="abcxyz", min_size=1, max_size=4),
    st.lists(_scalars, max_size=2),
    st.dictionaries(st.text(max_size=3), _scalars, max_size=2),
)

#: Fields whose wrong type makes a document malformed, with wrong values.
RETYPED = {
    "op": _not_str,
    "builder": _not_str,
    "fingerprint": _not_str,
    "trace": _not_str,
    "format": _not_str,
    "network": _json.filter(lambda value: not isinstance(value, dict) or value),
    "u": _not_int,
}
#: Fields whose absence makes each op's document malformed.
REQUIRED = {
    "ping": {"op"},
    "stats": {"op"},
    "register": {"op", "network"},
    "min_cut": {"op", "fingerprint", "u"},
    "metrics": {"op"},
    "trace": {"op", "trace"},
    "build": {"builder", "fingerprint"},
}


@st.composite
def _mutated_doc(draw):
    """``(line, malformed)`` for a valid doc with one field dropped or retyped."""
    op = draw(st.sampled_from(sorted(VALID_DOCS)))
    doc = dict(VALID_DOCS[op])
    field = draw(st.sampled_from(sorted(doc)))
    if field in RETYPED and draw(st.booleans()):
        doc[field] = draw(RETYPED[field])
        malformed = True
    else:
        del doc[field]
        malformed = field in REQUIRED[op]
    return json.dumps(doc).encode(), malformed


def _json_line(value):
    valid_op = isinstance(value, dict) and value.get("op") in ("ping", "stats", "metrics")
    return json.dumps(value).encode(), not valid_op


_lines = st.one_of(
    st.binary(max_size=40).map(lambda raw: (raw.replace(b"\n", b" "), None)),
    _json.map(_json_line),
    _mutated_doc(),
)


async def _session(lines):
    """Send *lines* on one connection; returns replies plus the two pings."""
    async with TreeServer() as server:
        tcp = await start_tcp_server(server, port=0)
        port = tcp.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        replies = []
        for line in lines:
            writer.write(line + b"\n")
            await writer.drain()
            if line.strip():
                replies.append(json.loads(await reader.readline()))
        pings = []
        for fresh in (False, True):
            if fresh:
                writer.close()
                await writer.wait_closed()
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "ping", "id": "tail"}\n')
            await writer.drain()
            pings.append(json.loads(await reader.readline()))
        writer.close()
        await writer.wait_closed()
        tcp.close()
        await tcp.wait_closed()
    return replies, pings


@settings(max_examples=30, deadline=None)
@given(st.lists(_lines, min_size=1, max_size=8))
def test_every_line_gets_one_reply_and_the_server_stays_up(batch):
    replies, pings = asyncio.run(_session([line for line, _ in batch]))
    answered = [(line, malformed) for line, malformed in batch if line.strip()]
    assert len(replies) == len(answered)
    for (line, malformed), reply in zip(answered, replies):
        assert isinstance(reply.get("ok"), bool), (line, reply)
        if malformed or (malformed is None and not _is_object(line)):
            assert reply["ok"] is False, (line, reply)
            assert isinstance(reply["error"], str) and reply["error"], reply
    assert pings == [{"ok": True, "op": "ping", "id": "tail"}] * 2


def _is_object(line):
    try:
        return isinstance(json.loads(line), dict)
    except (ValueError, RecursionError):
        return False
