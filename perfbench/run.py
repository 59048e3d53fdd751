"""Repository benchmark: IRA builds under tight and loose lifetime bounds,
plus mixed serve traffic, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload ira-tight --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs half the
time untraced and half under :class:`perfbench.tracing.LayerTracer` and
prints every per-layer metric.  Stdout ends with one JSON line:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The program is imported from ``src/``; without it the script exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Share of a traced IRA phase's wall time the named layers must explain.
MIN_ATTRIBUTED = 0.95

#: Spans of the IRA stack.  Each must catch calls on the IRA workloads (a
#: wrapper that stops catching reads 0, which would look like a gain) and
#: none on ``serve-mixed``, which runs no LP.
LP_SPANS = ("ira.build", "lp.solve", "lp.highs", "separation", "maxflow")

#: Spans every ``serve-mixed`` request passes through.
SERVE_SPANS = ("serve.decode", "serve.submit", "serve.encode", "serve.shard")

#: Share of ``ira.build_s`` that HiGHS plus separation take on ``ira-loose``.
LOOSE_DOMINANT = 0.8


def _workloads():
    from perfbench.ira_workload import IRA_LOOSE, IRA_TIGHT
    from perfbench.serve_workload import ServeWorkload

    return {w.name: w for w in (IRA_TIGHT, IRA_LOOSE, ServeWorkload())}


def load_pins(name: str) -> Dict[str, str]:
    """The pinned input -> tree digests of one workload."""
    return json.loads(REFERENCE.read_text())[name]


def end_to_end(workload, outcome) -> Dict[str, Tuple[float, str, int]]:
    """Every end-to-end metric as (value, unit, sample count)."""
    phase = outcome.phase
    # Throughput sums every op and the tail is made of long ops; both absorb
    # each host stall around them, so they take the probes' mean.  The
    # median op may be far shorter than a stall (see perfbench.speed).
    latencies_ms = phase.scaled_latencies(np.mean) * 1000.0
    typical_ms = phase.scaled_latencies(workload.p50_statistic) * 1000.0
    reliabilities = outcome.reliabilities
    raw_ms = np.asarray(phase.latencies) * 1000.0
    print(
        f"host slowdown {phase.speed.mean_slowdown():.3f}; unscaled: "
        f"ops_per_s {phase.ops / phase.wall_s:.6g}, "
        f"latency_p50_ms {np.percentile(raw_ms, 50):.6g}, "
        f"latency_tail_ms {np.percentile(raw_ms, workload.tail_percentile):.6g}"
    )
    return {
        "setup_s": (statistics.median(outcome.setup_s), "s", len(outcome.setup_s)),
        # Closed loop: throughput is the client concurrency over the mean op
        # latency.
        "ops_per_s": (
            workload.connections * phase.ops / float(np.sum(latencies_ms / 1000.0)),
            "ops/s",
            phase.ops,
        ),
        "latency_p50_ms": (float(np.percentile(typical_ms, 50)), "ms", phase.ops),
        "latency_tail_ms": (
            float(np.percentile(latencies_ms, workload.tail_percentile)),
            "ms",
            phase.ops,
        ),
        "reliability_mean": (
            statistics.fmean(reliabilities) if reliabilities else 0.0,
            "Q",
            len(reliabilities),
        ),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB", 1),
    }


def wiring_failures(workload, outcome) -> List[str]:
    """Spans that caught no calls where the workload must reach them, or
    caught calls where it must not, and an IRA phase the named layers do
    not explain."""
    from perfbench.ira_workload import IraWorkload

    calls = outcome.span_calls
    failures = []
    if isinstance(workload, IraWorkload):
        required, forbidden = LP_SPANS, ()
        if outcome.attributed_frac < MIN_ATTRIBUTED:
            failures.append(
                f"named layers explain {outcome.attributed_frac:.1%} of the traced "
                f"wall time (< {MIN_ATTRIBUTED:.0%})"
            )
    else:
        required, forbidden = SERVE_SPANS, LP_SPANS
    failures.extend(
        f"traced span {span} caught no calls" for span in required if not calls.get(span)
    )
    failures.extend(
        f"traced span {span} caught {calls[span]} calls; this workload runs no LP"
        for span in forbidden
        if calls.get(span)
    )
    return failures


def predicted_split(name: str, value: Dict[str, float]) -> List[Tuple[str, bool]]:
    """The per-layer split each workload was chosen for, as (claim, holds),
    from per-layer metric values by name.

    These describe the program as the benchmark found it: a change that
    speeds up separation is meant to move them, so they are printed, not
    failed.  ``serve-mixed``'s claim (no LP work) is a failure instead; see
    :func:`wiring_failures`.
    """
    if name == "ira-tight":
        others = ("lp.highs_s", "lp.self_s", "ira.self_s")
        return [
            (
                "separation.s is the largest layer",
                all(value["separation.s"] > value[other] for other in others),
            )
        ]
    if name == "ira-loose":
        share = (value["lp.highs_s"] + value["separation.s"]) / value["ira.build_s"]
        return [
            (
                f"lp.highs_s + separation.s >= {LOOSE_DOMINANT:.0%} of ira.build_s "
                f"({share:.1%})",
                share >= LOOSE_DOMINANT,
            )
        ]
    return [
        (
            "no lp.* or separation.* work",
            all(value[m] == 0 for m in ("lp.highs_calls", "separation.calls")),
        )
    ]


def per_layer(workload, outcome) -> Tuple[Dict[str, Tuple[float, str, int]], List[str]]:
    """Every per-layer metric, plus failures of the wiring checks."""
    phase, baseline = outcome.phase, outcome.baseline
    metrics = dict(outcome.layers)
    # Tracing overhead: median op latency of the traced half against the
    # untraced half, over the ops both completed (both replay one sequence).
    common = min(phase.ops, baseline.ops)
    statistic = workload.p50_statistic
    traced = statistics.median(phase.scaled_latencies(statistic)[:common])
    untraced = statistics.median(baseline.scaled_latencies(statistic)[:common])
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac", common)
    metrics["trace.attributed_frac"] = (outcome.attributed_frac, "frac", phase.ops)
    metrics["network.gen_s"] = (outcome.gen_s_per_input, "s/graph", 1)
    values = {name: metric[0] for name, metric in metrics.items()}
    for claim, holds in predicted_split(workload.name, values):
        print(f"split: {claim}: {'holds' if holds else 'does NOT hold'}")
    return metrics, wiring_failures(workload, outcome)


def run(
    workload, seed: int, seconds: float, trace: bool, pins: Optional[Dict[str, str]]
) -> Dict:
    """One benchmark run; returns the result object printed last."""
    outcome = workload.run(seed, seconds, trace=trace, pins=pins)
    failures = list(outcome.failures)
    if trace:
        metrics, wiring = per_layer(workload, outcome)
        failures.extend(wiring)
    else:
        metrics = end_to_end(workload, outcome)
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    width = max(len(name) for name in metrics)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit:<10} n={samples}")
    attempted = max(outcome.attempted, 1)
    print(f"{'error_frac':<{width}}  {len(failures) / attempted:>14.6g} frac")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    result = run(
        workloads[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        load_pins(args.workload),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
