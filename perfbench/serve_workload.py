"""serve-mixed: fingerprint-only build traffic against the TCP tree server.

An in-process :class:`~repro.serve.TreeServer` (default ``ServeConfig``,
inline worker pool) sits behind ``start_tcp_server``.  A closed loop on
:data:`CONNECTIONS` JSON-lines connections from the same asyncio process
sends one request at a time per connection.  A few topologies are registered
before timing; then one new topology is registered every
``register_every_s`` while the traffic runs, so registrations (writes)
interleave with builds (reads) and cache misses arrive at a steady rate
whatever the run length.  Each build draws a registered topology and a
builder from the mix with a seeded RNG; almost every request after the
first per key is a result-cache hit, and the misses run TreeState builders
and the portfolio's process pool inline, blocking the server while they
build.  The misses' share of requests is therefore fixed by the rate, so
the tail percentile lands among them on every run.

Every response is kept as its wire bytes with the ``cache`` field blanked,
so each hit is compared bytewise with its key's first (cold) response
inside the loop at negligible cost; certification and the cold rebuild
through ``build_tree`` happen after the timed phase.
"""

from __future__ import annotations

import asyncio
import json
import random
import re
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.engine import build_tree, get_builder
from repro.network import Network, network_to_dict, random_graph
from repro.network.serialization import topology_fingerprint
from repro.serve import ServeConfig, TreeServer, WorkerPool, make_response
from repro.serve.protocol import encode_response
from repro.serve.tcp import start_tcp_server
from perfbench.certify import (
    CertificationError,
    certify,
    check_pins,
    check_reported,
    input_digest,
    strip_elapsed,
    tree_digest,
)
from perfbench.ira_workload import CANARY
from perfbench.outcome import SETUP_REPS, Outcome, Phase
from perfbench.speed import INTERVAL_S, ScaledTimer
from perfbench.tracing import LayerTracer

#: The builder mix: every cheap baseline, the related-work builders, the
#: local search and a portfolio race.  No LP runs here.
MIX = (
    "mst",
    "spt",
    "bfs",
    "random_tree",
    "min_energy",
    "dlmt",
    "aaml",
    "clmt",
    "rasmalai",
    "local_search",
    "portfolio",
)

#: Portfolio requests race these members in parallel worker processes.
PORTFOLIO_PARAMS = {"members": ["local_search", "clmt", "min_energy"], "n_jobs": 2}

#: Closed-loop client connections.
CONNECTIONS = 2

#: Host-speed probes that start while a miss is in flight, or within one
#: probe period after it answers, are left out: the miss's own work (a
#: portfolio race forks and reaps worker processes) would otherwise count
#: as host slowdown.
MISS_GRACE_S = INTERVAL_S

_CACHE_FIELD = re.compile(rb'"cache":\s*\{[^{}]*\}')
_MISS = re.compile(rb'"cache":\s*\{"hit":\s*false')
_OK = re.compile(rb'\{"ok":\s*true')


class RefusedError(RuntimeError):
    """The server answered a set-up or check request with an error."""


@dataclass
class _Catalogue:
    """Topologies plus every request line, encoded once before timing."""

    networks: List[Network]
    fingerprints: List[str]
    params: List[List[Dict[str, Any]]]
    lines: List[List[bytes]]
    register_lines: List[bytes]


class _Session:
    """A started server, its TCP front end and the client connections."""

    def __init__(self, server, tcp, conns) -> None:
        self.server = server
        self.tcp = tcp
        self.conns = conns

    @classmethod
    async def open(cls) -> "_Session":
        server = TreeServer(pool=WorkerPool(mode="inline"), config=ServeConfig())
        await server.start()
        tcp = await start_tcp_server(server)
        host, port = tcp.sockets[0].getsockname()[:2]
        conns = [await asyncio.open_connection(host, port) for _ in range(CONNECTIONS)]
        return cls(server, tcp, conns)

    async def call(self, line: bytes, conn: int = 0) -> Dict[str, Any]:
        reader, writer = self.conns[conn]
        writer.write(line)
        await writer.drain()
        reply = json.loads(await reader.readline())
        if not reply.get("ok"):
            raise RefusedError(f"server refused a request: {reply}")
        return reply

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
            await writer.wait_closed()
        self.tcp.close()
        await self.tcp.wait_closed()
        await self.server.aclose()


@dataclass(frozen=True)
class ServeWorkload:
    """The traffic mix; see the module docstring.

    Attributes:
        n_nodes: Nodes per topology; links are G(n, 8/n).
        preregistered: Topologies registered before timing.
        register_every_s: Period of registrations during timed traffic.
    """

    name = "serve-mixed"
    #: Latency percentile reported as the tail; at today's rate ~37
    #: requests lie beyond it, among the portfolio and local-search misses.
    tail_percentile = 99.95

    #: Probe statistic scaling the median op: a typical request (a hit) is
    #: far shorter than a host stall, which the median of the nearby probes
    #: ignores.
    p50_statistic = staticmethod(np.median)
    #: Ops in flight at once.
    connections = CONNECTIONS

    n_nodes: int = 30
    preregistered: int = 8
    register_every_s: float = 1.0

    def topologies(self, seconds: float) -> int:
        """Topologies a run of *seconds* can register."""
        return self.preregistered + int(seconds / self.register_every_s)

    def request_params(self, builder: str, lc: float, seed: int) -> Dict[str, Any]:
        """Effective build params: ``lc``/``seed`` where the builder takes them."""
        knobs = get_builder(builder).knobs
        params: Dict[str, Any] = dict(PORTFOLIO_PARAMS) if builder == "portfolio" else {}
        if "lc" in knobs:
            params["lc"] = lc
        if "seed" in knobs:
            params["seed"] = seed
        return params

    def catalogue(self, entropy: Tuple[int, ...], count: int) -> _Catalogue:
        """*count* topologies from *entropy* and their request lines."""
        children = np.random.SeedSequence(
            [*entropy, zlib.crc32(self.name.encode())]
        ).spawn(count)
        networks = [
            random_graph(
                self.n_nodes, 8.0 / self.n_nodes, seed=np.random.default_rng(child)
            )
            for child in children
        ]
        cat = _Catalogue(networks, [], [], [], [])
        for index, net in enumerate(networks):
            fingerprint = topology_fingerprint(net)
            lc = 0.5 * build_tree("bfs", net).lifetime
            params = [
                self.request_params(b, lc, entropy[0] * 7919 + index) for b in MIX
            ]
            cat.fingerprints.append(fingerprint)
            cat.params.append(params)
            cat.lines.append(
                [
                    _line(
                        {"op": "build", "builder": b, "fingerprint": fingerprint, "params": p}
                    )
                    for b, p in zip(MIX, params)
                ]
            )
            cat.register_lines.append(
                _line({"op": "register", "network": network_to_dict(net)})
            )
        return cat

    def canary_specs(self) -> List[Tuple[str, Network, Dict[str, Any]]]:
        """The pinned builds: every builder of the mix on the canary topology."""
        canary = self.catalogue((CANARY,), 1)
        return [(b, canary.networks[0], p) for b, p in zip(MIX, canary.params[0])]

    # ------------------------------------------------------------------
    async def _open(self, cat: _Catalogue, canary: _Catalogue) -> _Session:
        """Start a server, register the early topologies, warm up."""
        session = await _Session.open()
        for index in range(self.preregistered):
            await _register(session, cat, index)
        await _register(session, canary, 0)
        for builder in ("mst", "portfolio"):
            await session.call(canary.lines[0][MIX.index(builder)])
        return session

    async def _drive(
        self, session: _Session, cat: _Catalogue, seed: int, seconds: float
    ) -> Tuple[Phase, float, int]:
        """Closed-loop traffic for *seconds*; returns the phase plus the
        summed round trips and count of build requests."""
        phase = Phase()
        firsts: Dict[int, bytes] = {}
        misses: List[Tuple[float, float]] = []
        available = list(range(self.preregistered))
        late = list(range(self.preregistered, len(cat.networks)))
        start = time.perf_counter()
        deadline = start + seconds
        due = [start + self.register_every_s * (k + 1) for k in range(len(late))]
        n_builders = len(MIX)
        totals = {"rtt": 0.0, "builds": 0}

        async def probe() -> None:
            while True:
                phase.speed.sample()
                await asyncio.sleep(INTERVAL_S)

        async def client(conn: int) -> None:
            rng = random.Random(f"{self.name}:{seed}:{conn}")
            reader, writer = session.conns[conn]
            while time.perf_counter() < deadline:
                if conn == 0 and late and time.perf_counter() >= due[0]:
                    topo, key = late.pop(0), None
                    due.pop(0)
                    line = cat.register_lines[topo]
                else:
                    topo = available[rng.randrange(len(available))]
                    builder = rng.randrange(n_builders)
                    key = topo * n_builders + builder
                    line = cat.lines[topo][builder]
                sent = time.perf_counter()
                phase.starts.append(sent)
                writer.write(line)
                await writer.drain()
                reply = await reader.readline()
                rtt = time.perf_counter() - sent
                if not reply:
                    raise ConnectionError("server closed a client connection")
                phase.latencies.append(rtt)
                if not _OK.match(reply):
                    phase.errors.append(reply.decode(errors="replace")[:200])
                    continue
                if key is None:
                    if json.loads(reply)["fingerprint"] != cat.fingerprints[topo]:
                        phase.errors.append(f"topology {topo}: fingerprint mismatch")
                    available.append(topo)
                    continue
                totals["rtt"] += rtt
                totals["builds"] += 1
                if _MISS.search(reply):
                    misses.append((sent, sent + rtt + MISS_GRACE_S))
                served = _CACHE_FIELD.sub(b'"cache":null', reply)
                first = firsts.setdefault(key, served)
                if first is not served and first != served:
                    phase.errors.append(f"key {key}: response differs from the cold one")

        prober = asyncio.create_task(probe())
        try:
            await asyncio.gather(*(client(c) for c in range(CONNECTIONS)))
        finally:
            prober.cancel()
        phase.wall_s = time.perf_counter() - start
        phase.speed.sample()
        phase.speed.drop(misses)
        phase.outputs = list(firsts.items())
        return phase, totals["rtt"], totals["builds"]

    async def _verify(
        self,
        session: _Session,
        cat: _Catalogue,
        canary: _Catalogue,
        phases: List[Phase],
        pins: Optional[Mapping[str, str]],
    ) -> Tuple[List[str], List[float]]:
        """Certify each distinct key's response and rebuild it cold."""
        failures: List[str] = []
        served: Dict[int, Dict[str, Any]] = {}
        for phase in phases:
            failures.extend(phase.errors)
            for key, line in phase.outputs:
                doc = json.loads(line)
                first = served.setdefault(key, doc)
                if _content(first) != _content(doc):
                    failures.append(f"key {key}: phases served different trees")
        reliabilities = []
        for key, doc in sorted(served.items()):
            topo, j = divmod(key, len(MIX))
            net, params = cat.networks[topo], cat.params[topo][j]
            try:
                cert = certify(net, doc["tree"]["parents"], lc=params.get("lc"))
                check_reported(cert, doc["metrics"])
            except CertificationError as exc:
                failures.append(f"key {key} ({MIX[j]}): {exc}")
                continue
            reliabilities.append(cert.reliability)
            try:
                cold = build_tree(MIX[j], net, **params)
            except Exception as exc:  # noqa: BLE001 — a failed check is counted, not fatal
                failures.append(f"key {key} ({MIX[j]}): cold rebuild failed: {exc!r}")
                continue
            expected = json.loads(
                json.dumps(
                    encode_response(
                        make_response(
                            cold, cat.fingerprints[topo], doc["key"], hit=False, source="built"
                        )
                    )
                )
            )
            if _content(expected) != _content(doc):
                failures.append(f"key {key} ({MIX[j]}): served tree differs from a cold build")
        built: Dict[str, str] = {}
        net = canary.networks[0]
        for j, builder in enumerate(MIX):
            try:
                parents = (await session.call(canary.lines[0][j]))["tree"]["parents"]
                cert = certify(net, parents, lc=canary.params[0][j].get("lc"))
            except (RefusedError, CertificationError) as exc:
                failures.append(f"canary {builder}: {exc}")
                continue
            built[input_digest(builder, net, canary.params[0][j])] = tree_digest(parents, cert)
        failures.extend(check_pins(built, pins))
        return failures, reliabilities

    async def _run(
        self, seed: int, seconds: float, trace: bool, pins: Optional[Mapping[str, str]]
    ) -> Outcome:
        setup_s: List[float] = []
        reps = 1 if trace else SETUP_REPS
        canary = self.catalogue((CANARY,), 1)
        session: Optional[_Session] = None
        try:
            for _ in range(reps):
                if session is not None:
                    await session.close()
                with ScaledTimer() as timer:
                    start = time.perf_counter()
                    cat = self.catalogue((seed,), self.topologies(seconds))
                    gen_s = time.perf_counter() - start
                    session = await self._open(cat, canary)
                setup_s.append(timer.seconds)
            outcome = Outcome(setup_s=setup_s, gen_s_per_input=gen_s / len(cat.networks))
            if not trace:
                outcome.phase, _, _ = await self._drive(session, cat, seed, seconds)
                outcome.record_peak_rss()
                phases = [outcome.phase]
            else:
                outcome.baseline, _, _ = await self._drive(session, cat, seed, seconds / 2)
                await session.close()
                session = await self._open(cat, canary)
                before = _stats(session.server)
                tracer = LayerTracer().install()
                try:
                    phase, rtt, builds = await self._drive(session, cat, seed, seconds / 2)
                finally:
                    tracer.remove()
                outcome.phase = phase
                outcome.layers = tracer.metrics(
                    ops=phase.ops,
                    client_rtt_s=rtt,
                    build_requests=builds,
                    server_stats=_delta(before, _stats(session.server)),
                )
                # Share of the build round trips spent inside the server's
                # named spans; the rest is transport, JSON framing and
                # waiting for the event loop.
                spans = tracer.seconds
                outcome.attributed_frac = (
                    spans["serve.decode"] + spans["serve.submit"] + spans["serve.encode"]
                ) / rtt
                outcome.span_calls = dict(tracer.calls)
                phases = [outcome.baseline, phase]
            failures, outcome.reliabilities = await self._verify(
                session, cat, canary, phases, pins
            )
        finally:
            if session is not None:
                await session.close()
        outcome.failures.extend(failures)
        outcome.attempted = sum(p.ops for p in phases) + len(MIX)
        return outcome

    def run(
        self,
        seed: int,
        seconds: float,
        *,
        trace: bool,
        pins: Optional[Mapping[str, str]],
    ) -> Outcome:
        """Set up, drive, verify; see :meth:`IraWorkload.run` for the phases."""
        return asyncio.run(self._run(seed, seconds, trace, pins))


def _content(doc: Dict[str, Any]) -> Tuple[Any, Any]:
    """What a response serves, without the wall-clock build times."""
    return doc["tree"], strip_elapsed(doc["metrics"])


def _line(doc: Dict[str, Any]) -> bytes:
    return json.dumps(doc).encode("utf-8") + b"\n"


async def _register(session: _Session, cat: _Catalogue, index: int) -> None:
    reply = await session.call(cat.register_lines[index])
    if reply["fingerprint"] != cat.fingerprints[index]:
        raise RuntimeError(f"topology {index}: server fingerprint differs")


def _stats(server: TreeServer) -> Dict[str, float]:
    stats = server.stats()
    return {
        "requests": stats["requests"],
        "built": stats["built"],
        "coalesced": stats["coalesced"],
        "rejected": stats["rejected"],
        "batches": stats["batches"],
        "result_hits": stats["result_cache"]["hits"],
    }


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    d = {k: after[k] - before[k] for k in after}
    served = d["result_hits"] + d["coalesced"]
    d["hit_rate"] = served / d["requests"] if d["requests"] else 0.0
    d["batched"] = d["built"]
    return d
