"""``repro serve`` — run the tree server or drive synthetic load at it.

Examples::

    repro serve run                          # foreground JSONL server :8731
    repro serve run --port 0 --mode process  # free port, sharded workers
    repro serve run --slo build:0.25         # declare a build-latency SLO
    repro serve run --no-obs                 # no metrics export / tracing
    repro serve bench --nodes 200            # synthetic repeat-query load
    repro serve bench --mode process --workers 4 --out BENCH_serve.json

``run`` starts the asyncio TCP front end (JSON lines; see
:mod:`repro.serve.protocol` for the operations) and serves until
interrupted.  ``bench`` runs the in-process synthetic workload
(:mod:`repro.serve.bench`), prints the throughput/hit-rate report, and
with ``--out`` appends it to the ``BENCH_serve.json`` trajectory file.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import List, Optional

from repro.obs.benchdiff import append_trajectory
from repro.obs.slo import SLO
from repro.serve.bench import (
    BENCH_FORMAT,
    BENCH_VERSION,
    DEFAULT_BENCH_BUILDERS,
    run_serve_bench,
)
from repro.serve.server import ServeConfig, TreeServer
from repro.serve.workers import POOL_MODES, WorkerPool

__all__ = ["serve_main", "build_serve_parser"]


def _add_pool_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=POOL_MODES,
        default="inline",
        help="worker pool mode: 'inline' (default) builds on the event "
        "loop; 'process' shards across CPU cores in a server-lifetime "
        "process pool",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --mode process (default: cores - 1)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=16,
        help="max requests per micro-batch (default 16)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="admission ceiling before ServerOverloadedError (default 1024)",
    )


def build_serve_parser() -> argparse.ArgumentParser:
    """Construct the ``repro serve`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Long-running MRLC tree-serving layer over the builder "
        "registry: batched, sharded, content-addressed-cached.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="foreground JSON-lines TCP server")
    run.add_argument("--host", default="127.0.0.1", help="bind address")
    run.add_argument(
        "--port", type=int, default=8731, help="TCP port (0 = pick free)"
    )
    run.add_argument(
        "--no-obs",
        action="store_true",
        help="run without an instrumentation session (no metrics export, "
        "no request traces; default is instrumented)",
    )
    run.add_argument(
        "--slo",
        action="append",
        default=[],
        metavar="OP:BUDGET_S[:LATENCY_TARGET[:ERROR_TARGET]]",
        help="declare a latency/error objective, e.g. 'build:0.25' or "
        "'build:0.25:0.99:0.999'; repeatable, surfaced in the stats op",
    )
    run.add_argument(
        "--snapshot-interval",
        type=float,
        default=1.0,
        help="telemetry sampling interval in seconds (default 1.0)",
    )
    _add_pool_options(run)

    bench = sub.add_parser(
        "bench", help="drive a synthetic repeat-query workload in-process"
    )
    bench.add_argument(
        "--nodes", type=int, default=120, help="network size (default 120)"
    )
    bench.add_argument(
        "--topologies",
        type=int,
        default=3,
        help="distinct topologies in the workload (default 3)",
    )
    bench.add_argument(
        "--builders",
        default=",".join(DEFAULT_BENCH_BUILDERS),
        help="comma-separated registry builder names "
        f"(default {','.join(DEFAULT_BENCH_BUILDERS)})",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=12,
        help="times each unique request is issued (default 12 → ~92%% "
        "expected hit rate)",
    )
    bench.add_argument(
        "--seed", type=int, default=0, help="workload seed (default 0)"
    )
    bench.add_argument(
        "--concurrency",
        type=int,
        default=32,
        help="in-flight submissions per wave (default 32)",
    )
    bench.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the cold-rebuild divergence check (faster)",
    )
    bench.add_argument(
        "--out",
        default=None,
        help="append the report to this BENCH_serve.json trajectory file",
    )
    _add_pool_options(bench)
    return parser


def _serve_config(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        batch_size=args.batch_size, max_pending=args.max_pending
    )


#: The --slo grammar, quoted by every parse error so a typo'd flag never
#: surfaces as a bare float() complaint.
_SLO_USAGE = "OP:BUDGET_S[:LATENCY_TARGET[:ERROR_TARGET]]"


def _parse_slo(spec: str) -> SLO:
    parts = spec.split(":")
    if not 2 <= len(parts) <= 4 or not parts[0]:
        raise ValueError(f"--slo expects {_SLO_USAGE}, got {spec!r}")
    labels = ("latency budget", "latency target", "error target")
    values = []
    for label, text in zip(labels, parts[1:]):
        try:
            values.append(float(text))
        except ValueError:
            raise ValueError(
                f"--slo {label} must be a number, got {text!r} "
                f"(expected {_SLO_USAGE})"
            ) from None
    if values[0] <= 0:
        raise ValueError(
            f"--slo latency budget must be positive, got {parts[1]!r} "
            f"(expected {_SLO_USAGE})"
        )
    for label, value, text in zip(labels[1:], values[1:], parts[2:]):
        # The burn-rate math in repro.obs.slo needs strictly 0 < target < 1;
        # a target of exactly 1 would make every window a violation anyway.
        if not 0.0 < value < 1.0:
            raise ValueError(
                f"--slo {label} must be a fraction in (0, 1), got {text!r} "
                f"(expected {_SLO_USAGE})"
            )
    kwargs = {"op": parts[0], "latency_budget_s": values[0]}
    if len(values) >= 2:
        kwargs["latency_target"] = values[1]
    if len(values) == 3:
        kwargs["error_target"] = values[2]
    return SLO(**kwargs)


def _run_server(args: argparse.Namespace) -> int:
    from repro.obs import instrument
    from repro.serve.tcp import serve_forever

    try:
        slos = tuple(_parse_slo(spec) for spec in args.slo)
    except ValueError as exc:
        print(f"repro serve: {exc}")
        return 2
    config = ServeConfig(
        batch_size=args.batch_size,
        max_pending=args.max_pending,
        slos=slos,
        snapshot_interval_s=args.snapshot_interval,
    )

    async def _main() -> None:
        pool = WorkerPool(mode=args.mode, n_workers=args.workers)
        async with TreeServer(pool=pool, config=config) as server:
            await serve_forever(server, args.host, args.port)

    try:
        if args.no_obs:
            asyncio.run(_main())
        else:
            # The instrumentation session makes the metrics/trace ops live
            # for the whole server lifetime.
            with instrument(params={"serve": True}):
                asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down")
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    builders = tuple(
        name.strip() for name in args.builders.split(",") if name.strip()
    )
    report = run_serve_bench(
        n_nodes=args.nodes,
        n_topologies=args.topologies,
        builders=builders,
        repeats=args.repeats,
        seed=args.seed,
        mode=args.mode,
        workers=args.workers,
        concurrency=args.concurrency,
        config=_serve_config(args),
        verify=not args.no_verify,
    )
    print(report.render())
    if args.out:
        append_trajectory(args.out, BENCH_FORMAT, BENCH_VERSION, report.to_doc())
        print(f"[appended run to {args.out}]")
    return 1 if report.divergent else 0


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro serve ...``; returns the exit code."""
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    for name in ("workers", "batch_size", "max_pending"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            parser.error(f"--{name.replace('_', '-')} must be positive")
    if args.command == "run":
        if args.snapshot_interval <= 0:
            parser.error("--snapshot-interval must be positive")
        return _run_server(args)
    if getattr(args, "repeats", 1) < 1 or getattr(args, "topologies", 1) < 1:
        parser.error("--repeats and --topologies must be positive")
    if getattr(args, "concurrency", 1) < 1:
        parser.error("--concurrency must be positive")
    return _run_bench(args)
