"""``repro obs`` — run builders/experiments with instrumentation on.

Examples::

    repro obs build ira --nodes 50 --seed 1    # instrumented IRA build
    repro obs build aaml --nodes 30 --seed 2   # any registered builder
    repro obs churn --rounds 20                # protocol churn on the DFL net
    repro obs faults --drop-rate 0.2           # churn under control-plane faults
    repro obs rounds --nodes 20 --rounds 200   # aggregation-round simulation
    repro obs fig fig3                         # any figure experiment
    repro obs build ira --dump-trace           # print the JSONL trace
    repro obs top --port 8731                  # live serve dashboard
    repro obs bench-diff BENCH_serve.json      # benchmark regression gate

All tree construction goes through the builder registry
(:mod:`repro.engine.registry`); ``repro builders`` lists the names the
``build`` subcommand accepts.  A builder with an ``lc`` knob gets
``LC = L_AAML / --lc-divisor`` (default 2).

Every run prints the metrics tables (counters / gauges / histograms with
p50/p90/max bars) and writes three artifacts under ``--out`` (default
``obs-out/``): ``trace.jsonl``, ``manifest.json``, ``metrics.json``.
``--no-write`` keeps the run print-only.  The same subcommand with the same
seed reproduces the same counters — that is the point.
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict, List, Optional

from repro.obs.metrics import metric_key
from repro.obs.runtime import ObsSession, instrument
from repro.utils.ascii_chart import histogram_summary

__all__ = ["obs_main", "build_obs_parser"]

def fig_names() -> tuple:
    """Figure/extension experiments runnable under ``repro obs fig``.

    Derived from the main CLI's experiment registry
    (``repro.cli._COMMANDS``) so a newly registered experiment is
    automatically runnable instrumented — the two commands cannot drift
    (pinned by ``tests/test_obs_cli.py``).  Figures sort numerically
    (fig2 before fig10), extensions after.  The import is deferred
    because :mod:`repro.cli` imports this module lazily in turn.
    """
    import repro.cli as main_cli

    figs = sorted(
        (n for n in main_cli._COMMANDS if not n.startswith("ext-")),
        key=lambda n: (len(n), n),
    )
    exts = sorted(n for n in main_cli._COMMANDS if n.startswith("ext-"))
    return tuple(figs) + tuple(exts)


def _add_graph_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--nodes", type=int, default=30, help="network size (default 30)"
    )
    parser.add_argument(
        "--link-prob",
        type=float,
        default=0.5,
        help="G(n,p) link probability (default 0.5)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="topology/run seed (default 0)"
    )


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out",
        type=str,
        default="obs-out",
        help="directory for trace.jsonl / manifest.json / metrics.json "
        "(default obs-out)",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print metrics only; write no artifacts",
    )
    parser.add_argument(
        "--dump-trace",
        action="store_true",
        help="print the JSONL trace to stdout",
    )


def build_obs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description=(
            "Run a tree builder or experiment with the instrumentation layer "
            "enabled and report its internal statistics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "build", help="instrumented build of any registered tree builder"
    )
    p.add_argument(
        "name", help="registry builder name (see `repro builders`)"
    )
    _add_graph_options(p)
    _add_output_options(p)
    p.add_argument(
        "--lc-divisor",
        type=float,
        default=2.0,
        help="LC = L_AAML / divisor for builders with an lc knob (default 2.0)",
    )
    p.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="depth bound for delay_bounded (default: the BFS tree's depth)",
    )

    p = sub.add_parser(
        "rounds", help="aggregation-round simulation over an IRA tree"
    )
    _add_graph_options(p)
    _add_output_options(p)
    p.add_argument(
        "--rounds", type=int, default=200, help="rounds to simulate (default 200)"
    )

    p = sub.add_parser(
        "churn", help="distributed-protocol churn on the DFL network"
    )
    _add_output_options(p)
    p.add_argument(
        "--rounds", type=int, default=20, help="churn rounds (default 20)"
    )
    p.add_argument("--seed", type=int, default=11, help="churn seed (default 11)")
    p.add_argument(
        "--centralized",
        action="store_true",
        help="also recompute the centralized IRA tree each round (slow)",
    )

    p = sub.add_parser(
        "faults",
        help="churn with a fault-injected control plane (drops/dups/delays)",
    )
    _add_output_options(p)
    p.add_argument(
        "--rounds", type=int, default=20, help="churn rounds (default 20)"
    )
    p.add_argument("--seed", type=int, default=11, help="churn seed (default 11)")
    p.add_argument(
        "--drop-rate",
        type=float,
        default=None,
        help="per-attempt control-message loss probability "
        "(default: derived from each link's PRR)",
    )
    p.add_argument(
        "--duplicate-rate",
        type=float,
        default=0.0,
        help="probability a delivery arrives twice (default 0)",
    )
    p.add_argument(
        "--delay-rate",
        type=float,
        default=0.0,
        help="probability a delivery is deferred to a later round (default 0)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="per-link retransmission budget (default 2)",
    )
    p.add_argument(
        "--crash-rate",
        type=float,
        default=0.0,
        help="per-node per-round crash probability (default 0)",
    )
    p.add_argument(
        "--cost-delta",
        type=float,
        default=0.25,
        help="per-round link-cost degradation (default 0.25 — much faster "
        "than the paper's 1e-3, so the protocol actually re-parents and "
        "the fault machinery fires within a short run)",
    )
    p.add_argument(
        "--centralized",
        action="store_true",
        help="also recompute the centralized IRA tree each round (slow)",
    )

    p = sub.add_parser("fig", help="any figure/extension experiment")
    p.add_argument("name", choices=fig_names(), help="experiment to run")
    p.add_argument("--trials", type=int, default=None, help="trial count")
    p.add_argument("--rounds", type=int, default=None, help="round count")
    p.add_argument(
        "--jobs", type=int, default=None, help="worker processes for sweeps"
    )
    _add_output_options(p)

    p = sub.add_parser(
        "top", help="live terminal dashboard over a running tree server"
    )
    p.add_argument("--host", default="127.0.0.1", help="server address")
    p.add_argument(
        "--port", type=int, default=8731, help="server port (default 8731)"
    )
    p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="refresh interval in seconds (default 1.0)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )

    p = sub.add_parser(
        "bench-diff",
        help="regression sentinel over a BENCH_*.json trajectory file",
    )
    p.add_argument("path", help="trajectory file (e.g. BENCH_serve.json)")
    p.add_argument(
        "--window",
        type=int,
        default=5,
        help="baseline = median of up to this many preceding runs (default 5)",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="relative bad-direction move that counts as a regression "
        "(default 0.5 = 50%%; loose on purpose for cross-machine noise)",
    )
    p.add_argument(
        "--metrics",
        default=None,
        help="comma-separated metric names to watch (prefix with '-' for "
        "lower-is-better), overriding the bench record's gated metrics",
    )

    return parser


def _positive(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    for attr in ("nodes", "rounds", "trials"):
        value = getattr(args, attr, None)
        if value is not None and value <= 0:
            parser.error(f"--{attr} must be positive")
    if getattr(args, "lc_divisor", 1.0) <= 0:
        parser.error("--lc-divisor must be positive")
    max_depth = getattr(args, "max_depth", None)
    if max_depth is not None and max_depth < 1:
        parser.error("--max-depth must be >= 1")
    for attr in ("drop_rate", "duplicate_rate", "delay_rate", "crash_rate"):
        rate = getattr(args, attr, None)
        if rate is not None and not 0.0 <= rate <= 1.0:
            parser.error(f"--{attr.replace('_', '-')} must be in [0, 1]")
    retries = getattr(args, "max_retries", None)
    if retries is not None and retries < 0:
        parser.error("--max-retries must be >= 0")
    if getattr(args, "cost_delta", 1.0) <= 0:
        parser.error("--cost-delta must be positive")
    prob = getattr(args, "link_prob", 0.5)
    if not 0.0 < prob <= 1.0:
        parser.error("--link-prob must be in (0, 1]")


def _run_named_build(args: argparse.Namespace) -> Dict[str, object]:
    from repro.engine import UnknownBuilderError, build_tree, get_builder
    from repro.network.topology import random_graph

    try:
        builder = get_builder(args.name)
    except UnknownBuilderError as exc:
        raise SystemExit(f"repro obs build: {exc.args[0]}")
    net = random_graph(args.nodes, args.link_prob, seed=args.seed)
    config: Dict[str, object] = {}
    if "lc" in builder.knobs:
        aaml = build_tree("aaml", net)
        config["lc"] = aaml.lifetime / args.lc_divisor
    if "max_depth" in builder.knobs:
        if args.max_depth is not None:
            config["max_depth"] = args.max_depth
        else:
            bfs = build_tree("bfs", net).tree
            config["max_depth"] = max(bfs.depth(v) for v in range(bfs.n))
    if "seed" in builder.knobs:
        config["seed"] = args.seed
    result = build_tree(args.name, net, **config)
    summary: Dict[str, object] = {
        "builder": args.name,
        "cost": result.cost,
        "reliability": result.reliability,
    }
    for key, value in result.meta.items():
        if isinstance(value, (bool, int, float, str)):
            summary[key] = value
    return summary


def _run_rounds(args: argparse.Namespace) -> Dict[str, object]:
    from repro.engine import build_tree
    from repro.network.topology import random_graph
    from repro.simulation.rounds import AggregationSimulator

    net = random_graph(args.nodes, args.link_prob, seed=args.seed)
    aaml = build_tree("aaml", net)
    tree = build_tree("ira", net, lc=aaml.lifetime / 2.0).tree
    sim = AggregationSimulator(tree, seed=args.seed)
    reliability = sim.estimate_reliability(args.rounds)
    return {"empirical_reliability": reliability, "closed_form": tree.reliability()}


def _run_churn(args: argparse.Namespace) -> Dict[str, object]:
    from repro.distributed.simulator import ChurnSimulation
    from repro.engine import build_tree
    from repro.experiments.fig7_dfl import AAML_PRR_FILTER
    from repro.network.dfl import dfl_network

    net = dfl_network()
    aaml = build_tree("aaml", net.filtered(AAML_PRR_FILTER))
    lc = aaml.lifetime / 1.5
    initial = build_tree("ira", net, lc=lc)
    sim = ChurnSimulation(
        net,
        initial.tree,
        lc,
        recompute_centralized=args.centralized,
        seed=args.seed,
    )
    records = sim.run(args.rounds)
    return {
        "rounds": len(records),
        "updates": records[-1].cumulative_updates,
        "messages": records[-1].cumulative_messages,
    }


def _run_faults(args: argparse.Namespace) -> Dict[str, object]:
    from repro.distributed.simulator import ChurnSimulation
    from repro.engine import build_tree
    from repro.experiments.fig7_dfl import AAML_PRR_FILTER
    from repro.faults import FaultPlan
    from repro.network.dfl import dfl_network
    from repro.utils.rng import stable_hash_seed

    net = dfl_network()
    aaml = build_tree("aaml", net.filtered(AAML_PRR_FILTER))
    lc = aaml.lifetime / 1.5
    initial = build_tree("ira", net, lc=lc)
    plan = FaultPlan(
        drop_rate=args.drop_rate,
        duplicate_rate=args.duplicate_rate,
        delay_rate=args.delay_rate,
        max_retries=args.max_retries,
        crash_rate=args.crash_rate,
        seed=stable_hash_seed("obs_faults", args.seed),
    )
    sim = ChurnSimulation(
        net,
        initial.tree,
        lc,
        cost_delta=args.cost_delta,
        recompute_centralized=args.centralized,
        fault_plan=plan,
        seed=args.seed,
    )
    records = sim.run(args.rounds)
    summary: Dict[str, object] = {
        "rounds": len(records),
        "updates": records[-1].cumulative_updates,
        "messages": records[-1].cumulative_messages + sim.settle_messages,
        "settle_messages": sim.settle_messages,
    }
    summary.update(sim.protocol.fault_stats.to_dict())
    return summary


def _run_fig(args: argparse.Namespace) -> Dict[str, object]:
    import repro.cli as main_cli

    result = main_cli._COMMANDS[args.name](args)
    print(result.render())
    print()
    return {"experiment": args.name, "result_class": type(result).__name__}


def _params_of(args: argparse.Namespace) -> Dict[str, object]:
    skip = {"command", "out", "no_write", "dump_trace"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


def _report(session: ObsSession, args: argparse.Namespace) -> None:
    print(session.registry.render())
    for hist in session.registry.histograms():
        if hist.count >= 2:
            print()
            print(
                histogram_summary(
                    hist.values,
                    title=metric_key(hist.name, dict(hist.labels)),
                )
            )
    if args.dump_trace:
        print()
        print(session.tracer.to_jsonl(), end="")
    if not args.no_write:
        paths = session.write(args.out)
        print()
        print(
            "[wrote "
            + ", ".join(str(paths[k]) for k in ("trace", "manifest", "metrics"))
            + "]"
        )


_RUNNERS: Dict[str, Callable[[argparse.Namespace], Dict[str, object]]] = {
    "build": _run_named_build,
    "rounds": _run_rounds,
    "churn": _run_churn,
    "faults": _run_faults,
    "fig": _run_fig,
}


def _run_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top

    return run_top(
        args.host,
        args.port,
        interval_s=args.interval,
        iterations=1 if args.once else None,
    )


def _run_bench_diff(args: argparse.Namespace) -> int:
    from repro.obs.benchdiff import MetricSpec, diff_trajectory_file

    metrics = None
    if args.metrics:
        metrics = tuple(
            MetricSpec(name.lstrip("-"), higher_is_better=not name.startswith("-"))
            for name in args.metrics.split(",")
            if name.strip("-")
        )
    try:
        diff = diff_trajectory_file(
            args.path,
            metrics=metrics,
            window=args.window,
            threshold=args.threshold,
        )
    except (OSError, ValueError) as exc:
        print(f"repro obs bench-diff: {exc}")
        return 2
    print(diff.render())
    return 1 if diff.regressed else 0


def obs_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro obs ...``; returns the process exit code."""
    parser = build_obs_parser()
    args = parser.parse_args(argv)

    # The tooling subcommands observe *other* runs — no instrumentation
    # session of their own, no metrics report.
    if args.command == "top":
        if args.interval <= 0:
            parser.error("--interval must be positive")
        return _run_top(args)
    if args.command == "bench-diff":
        if args.window < 1:
            parser.error("--window must be >= 1")
        if args.threshold <= 0:
            parser.error("--threshold must be positive")
        return _run_bench_diff(args)

    _positive(parser, args)

    seed = getattr(args, "seed", None)
    with instrument(seed=seed, params=_params_of(args)) as session:
        summary = _RUNNERS[args.command](args)

    headline = ", ".join(f"{k}={v}" for k, v in summary.items())
    print(f"[obs {args.command}] {headline}")
    print()
    _report(session, args)
    return 0
