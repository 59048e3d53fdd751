"""IRA build workloads: one op is one ``build_tree("ira", net, lc=LC)``.

Inputs are G(n, p) random graphs with PRRs uniform in (0.95, 1) (the
paper's Section VII generator), drawn from the workload seed.  The LC rule
decides whether the lifetime bound binds:

* ``aaml`` — LC is the graph's AAML lifetime (the paper's Fig. 8/9
  protocol).  LC binds, so IRA runs many relaxation iterations with
  carried cuts and separation does most of the work.
* ``half-bfs`` — LC is half the BFS tree's lifetime (the rule
  ``repro serve bench`` uses).  LC does not bind, so each build is the
  Subtour LP solved by cutting planes, once per ``auto`` spec; HiGHS and
  LP assembly weigh the most here.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.engine import build_tree
from repro.network import Network, random_graph
from perfbench.certify import (
    CertificationError,
    certify,
    check_pins,
    check_reported,
    input_digest,
    tree_digest,
)
from perfbench.outcome import SETUP_REPS, Outcome, Phase
from perfbench.speed import ScaledTimer
from perfbench.tracing import LayerTracer

#: Entropy word that marks canary inputs; workload seeds never produce it.
CANARY = 0xCA7A21

#: Fixed inputs per IRA workload, independent of the seed, whose trees are
#: pinned in ``reference.json``.  The first is the warm-up op.
CANARIES = 4


def _output(result) -> Tuple[Dict, Dict[str, float]]:
    """What a build returned: its parent map and its reported metrics."""
    reported = {
        "cost": result.cost,
        "reliability": result.reliability,
        "lifetime": result.lifetime,
    }
    return result.tree.parents, reported


@dataclass(frozen=True)
class IraWorkload:
    """One IRA workload: the input distribution and how many inputs to draw.

    Attributes:
        name: Workload name on the command line.
        n_nodes, link_probability: The G(n, p) generator.
        energy_range: Per-node energies uniform in this range (joules);
            ``None`` gives every node the default 3000 J battery.
        lc_rule: ``"aaml"`` or ``"half-bfs"`` (see the module docstring).
        pool_size: Distinct inputs drawn per run; ops cycle through them.
    """

    name: str
    n_nodes: int
    link_probability: float
    energy_range: Optional[Tuple[float, float]]
    lc_rule: str
    pool_size: int = 256
    #: Latency percentile reported as the tail; at today's op rate 15-25
    #: builds lie beyond it.
    tail_percentile = 90.0
    #: Ops in flight at once (one closed-loop caller).
    connections = 1
    #: Probe statistic scaling the median op: a build lasts far longer than
    #: a host stall, so it absorbs the mean slowdown (see ``perfbench.speed``).
    p50_statistic = staticmethod(np.mean)

    def make_input(self, entropy: Tuple[int, ...]) -> Tuple[Network, float]:
        """One (network, LC) pair from *entropy*."""
        energy_rng, graph_rng = (
            np.random.default_rng(child)
            for child in np.random.SeedSequence(
                [*entropy, zlib.crc32(self.name.encode())]
            ).spawn(2)
        )
        energies = (
            energy_rng.uniform(*self.energy_range, size=self.n_nodes)
            if self.energy_range is not None
            else 3000.0
        )
        net = random_graph(
            self.n_nodes,
            self.link_probability,
            initial_energy=energies,
            seed=graph_rng,
        )
        if self.lc_rule == "aaml":
            lc = build_tree("aaml", net).lifetime
        elif self.lc_rule == "half-bfs":
            lc = 0.5 * build_tree("bfs", net).lifetime
        else:
            raise ValueError(f"unknown LC rule {self.lc_rule!r}")
        return net, lc

    def canary_inputs(self) -> List[Tuple[Network, float]]:
        return [self.make_input((CANARY, i)) for i in range(CANARIES)]

    def canary_specs(self) -> List[Tuple[str, Network, Dict[str, float]]]:
        """The pinned builds: (builder, network, params) per canary input."""
        return [("ira", net, {"lc": lc}) for net, lc in self.canary_inputs()]

    # ------------------------------------------------------------------
    def _setup(self, seed: int) -> Tuple[List[Tuple[Network, float]], float, Tuple]:
        """Draw the input pool and run the warm-up op; returns gen time too."""
        start = time.perf_counter()
        inputs = [self.make_input((seed, i)) for i in range(self.pool_size)]
        gen_s = time.perf_counter() - start
        net, lc = self.make_input((CANARY, 0))
        warm = _output(build_tree("ira", net, lc=lc))
        return inputs, gen_s, warm

    def _measure(self, inputs: List[Tuple[Network, float]], seconds: float) -> Phase:
        phase = Phase()
        phase.speed.sample()
        start = time.perf_counter()
        deadline = start + seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            net, lc = inputs[index % len(inputs)]
            op_start = time.perf_counter()
            phase.starts.append(op_start)
            try:
                output = _output(build_tree("ira", net, lc=lc))
            except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
                output = None
                phase.errors.append(f"op {index}: {type(exc).__name__}: {exc}")
            phase.latencies.append(time.perf_counter() - op_start)
            phase.outputs.append((index % len(inputs), output))
            phase.speed.sample()
            index += 1
        phase.wall_s = time.perf_counter() - start
        return phase

    def _verify(
        self,
        inputs: List[Tuple[Network, float]],
        phases: List[Phase],
        warm: Tuple,
        pins: Optional[Mapping[str, str]],
    ) -> Tuple[List[str], List[float]]:
        """Certify every output against its network and its own report;
        check determinism and the pinned canaries."""
        failures: List[str] = []
        seen: Dict[int, str] = {}
        reliability: Dict[int, float] = {}
        for phase in phases:
            failures.extend(phase.errors)
            for index, output in phase.outputs:
                if output is None:
                    continue
                parents, reported = output
                net, lc = inputs[index]
                try:
                    cert = certify(net, parents, lc=lc)
                    check_reported(cert, reported)
                except CertificationError as exc:
                    failures.append(f"input {index}: {exc}")
                    continue
                digest = tree_digest(parents, cert)
                if seen.setdefault(index, digest) != digest:
                    failures.append(f"input {index}: rebuilt tree differs")
                reliability[index] = cert.reliability
        built: Dict[str, str] = {}
        for i, (net, lc) in enumerate(self.canary_inputs()):
            try:
                parents, reported = warm if i == 0 else _output(build_tree("ira", net, lc=lc))
                cert = certify(net, parents, lc=lc)
                check_reported(cert, reported)
            except Exception as exc:  # noqa: BLE001 — a failed check is counted, not fatal
                failures.append(f"canary {i}: {exc!r}")
                continue
            built[input_digest("ira", net, {"lc": lc})] = tree_digest(parents, cert)
        failures.extend(check_pins(built, pins))
        return failures, list(reliability.values())

    def run(
        self,
        seed: int,
        seconds: float,
        *,
        trace: bool,
        pins: Optional[Mapping[str, str]],
    ) -> Outcome:
        """Set up, measure, verify.

        Untraced: set up :data:`SETUP_REPS` times (the median is ``setup_s``),
        then time ops for *seconds*.  Traced: set up once, time an untraced
        half, then replay the same inputs under a :class:`LayerTracer` for
        the other half.
        """
        setup_s: List[float] = []
        for _ in range(1 if trace else SETUP_REPS):
            with ScaledTimer() as timer:
                inputs, gen_s, warm = self._setup(seed)
            setup_s.append(timer.seconds)
        outcome = Outcome(setup_s=setup_s, gen_s_per_input=gen_s / len(inputs))
        if not trace:
            outcome.phase = self._measure(inputs, seconds)
            outcome.record_peak_rss()
            phases = [outcome.phase]
        else:
            outcome.baseline = self._measure(inputs, seconds / 2)
            tracer = LayerTracer().install()
            try:
                outcome.phase = self._measure(inputs, seconds / 2)
            finally:
                tracer.remove()
            phase = outcome.phase
            outcome.layers = tracer.metrics(ops=phase.ops)
            start = phase.starts[0]
            probed = phase.speed.busy(start, start + phase.wall_s)
            outcome.attributed_frac = tracer.seconds["ira.build"] / (phase.wall_s - probed)
            outcome.span_calls = dict(tracer.calls)
            phases = [outcome.baseline, phase]
        failures, outcome.reliabilities = self._verify(inputs, phases, warm, pins)
        outcome.failures.extend(failures)
        outcome.attempted = sum(p.ops for p in phases) + CANARIES
        return outcome


IRA_TIGHT = IraWorkload(
    name="ira-tight",
    n_nodes=22,
    link_probability=0.3,
    energy_range=(1500.0, 5000.0),
    lc_rule="aaml",
)

IRA_LOOSE = IraWorkload(
    name="ira-loose",
    n_nodes=25,
    link_probability=0.6,
    energy_range=None,
    lc_rule="half-bfs",
)
