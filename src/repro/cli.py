"""Command-line entry point: regenerate any figure of the evaluation.

Usage (installed as ``mrlc`` or via ``python -m repro``)::

    mrlc fig7                 # DFL comparison table
    mrlc fig7 --chart         # ... plus unicode bar/line charts
    mrlc fig8 --trials 20     # quick random-graph sweep
    mrlc fig8 --output r.json # archive the raw result as JSON
    mrlc fig11 --rounds 50    # churn experiment (prints Figs. 11-13 series)
    mrlc all --quick          # every figure at reduced scale
    mrlc obs build ira        # instrumented run (see repro.obs.cli)
    mrlc builders             # list registered tree builders + knobs
    mrlc lint src/            # repo-invariant checker (see repro.lint)
    mrlc serve run            # tree-serving daemon (see repro.serve.cli)
    mrlc ext-portfolio        # portfolio tournament win-rate table
    mrlc bench core --ci      # trajectory bench: core|ira|portfolio|serve

Output is the plain-text table of the same rows/series the paper's figure
plots (costs in the paper's −1000·log2 q units).  The ``obs``, ``lint``,
``serve`` and ``bench`` subcommands (also installed as ``repro ...``)
dispatch to their own parsers before the figure parser runs.  Each
``bench`` is declared once, as a :class:`~repro.obs.benchdiff.BenchRecord`
beside its runner.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.experiments import (
    run_distributed_experiment,
    run_energy_hole,
    run_ext_baselines,
    run_ext_estimation,
    run_ext_faulty_control,
    run_ext_latency,
    run_ext_portfolio,
    run_ext_stability,
    run_fig1,
    run_fig10,
    run_fig2,
    run_fig3,
    run_fig7,
    run_fig8,
    run_fig9,
)

__all__ = ["main", "build_parser"]


def _run_fig1(args: argparse.Namespace):
    return run_fig1(n_rounds=args.rounds or 200)


def _run_fig2(args: argparse.Namespace):
    return run_fig2(n_trials=args.trials or 200)


def _run_fig3(args: argparse.Namespace):
    return run_fig3()


def _run_fig7(args: argparse.Namespace):
    return run_fig7()


def _run_fig8(args: argparse.Namespace):
    return run_fig8(n_trials=args.trials or 100, n_jobs=args.jobs)


def _run_fig9(args: argparse.Namespace):
    return run_fig9(n_trials=args.trials or 100, n_jobs=args.jobs)


def _run_fig10(args: argparse.Namespace):
    return run_fig10(n_trials=args.trials or 100, n_jobs=args.jobs)


def _run_fig11(args: argparse.Namespace):
    return run_distributed_experiment(rounds=args.rounds or 100)


def _run_ext_baselines(args: argparse.Namespace):
    return run_ext_baselines(n_trials=args.trials or 20)


def _run_ext_energyhole(args: argparse.Namespace):
    return run_energy_hole()


def _run_ext_latency(args: argparse.Namespace):
    return run_ext_latency(n_rounds=args.rounds or 1500)


def _run_ext_estimation(args: argparse.Namespace):
    return run_ext_estimation(n_draws=args.trials or 20)


def _run_ext_stability(args: argparse.Namespace):
    return run_ext_stability(n_draws=args.trials or 10)


def _run_ext_faulty_control(args: argparse.Namespace):
    return run_ext_faulty_control(rounds=args.rounds or 100)


def _run_ext_portfolio(args: argparse.Namespace):
    return run_ext_portfolio(n_trials=args.trials or 10, n_jobs=args.jobs)


_COMMANDS: Dict[str, Callable[[argparse.Namespace], object]] = {
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "fig11": _run_fig11,  # figs 11-13 come from the same run
    "ext-baselines": _run_ext_baselines,
    "ext-energyhole": _run_ext_energyhole,
    "ext-estimation": _run_ext_estimation,
    "ext-faulty-control": _run_ext_faulty_control,
    "ext-latency": _run_ext_latency,
    "ext-portfolio": _run_ext_portfolio,
    "ext-stability": _run_ext_stability,
}

#: Reduced scales used by ``--quick`` / ``mrlc all --quick``.
_QUICK = {"trials": 10, "rounds": 20}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="mrlc",
        description=(
            "Regenerate the evaluation figures of 'On Maximizing Reliability "
            "of Lifetime Constrained Data Aggregation Tree in WSNs' (ICPP 2015)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_COMMANDS) + ["all"],
        help="which figure to regenerate ('fig11' covers figs 11-13; "
        "'ext-*' are this library's extension studies)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="trial count for sweep experiments (default: paper scale)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="round count for simulation experiments (default: paper scale)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale for smoke runs (overrides unset trials/rounds)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for trial sweeps (default: serial; "
        "results are identical either way)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version="%(prog)s " + __import__("repro").__version__,
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also print unicode charts of the figure's series",
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help="write the raw result as JSON to this path "
        "(one file per experiment; 'all' appends the figure name)",
    )
    return parser


def _builders_main() -> int:
    """Print every registered tree builder with its knobs (``mrlc builders``)."""
    from repro.engine import available_builders, get_builder

    print("Registered tree builders (resolve via repro.engine.build_tree):")
    print()
    for name in available_builders():
        print(get_builder(name).describe())
        print()
    return 0


def _bench_main(argv: List[str]) -> int:
    """Run one trajectory bench (``repro bench NAME [--ci] [--out PATH]``)."""
    from repro.obs.benchdiff import append_trajectory, bench_records

    records = bench_records()
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run one bench's fixed workload, print its report, and "
        "optionally append it to a BENCH_*.json trajectory for `repro obs "
        "bench-diff`.  A failed correctness check exits 1.",
    )
    parser.add_argument(
        "name", choices=sorted(records), help="which bench (docs/performance.md)"
    )
    with_ci = ", ".join(r.name for r in records.values() if r.ci_params is not None)
    parser.add_argument(
        "--ci",
        action="store_true",
        help=f"the smaller CI size where the bench has one ({with_ci})",
    )
    parser.add_argument(
        "--out", default=None, help="append the run to this trajectory file"
    )
    args = parser.parse_args(argv)
    record = records[args.name]
    try:
        report = record.measure(ci=args.ci)
    except AssertionError as exc:
        print(f"repro bench {record.name}: correctness check failed: {exc}")
        return 1
    print(report.render())
    if args.out:
        append_trajectory(args.out, record.format, record.version, report.to_doc())
        print(f"[appended run to {args.out}]")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        return _bench_main(argv[1:])
    if argv and argv[0] == "obs":
        # Instrumented runs live in their own sub-CLI so the figure parser
        # stays a plain positional-choice interface.
        from repro.obs.cli import obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "builders":
        return _builders_main()
    if argv and argv[0] == "lint":
        # The invariant checker is its own sub-CLI, like `obs`.
        from repro.lint import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "serve":
        # The serving layer is its own sub-CLI, like `obs` and `lint`.
        from repro.serve.cli import serve_main

        return serve_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.quick:
        args.trials = args.trials or _QUICK["trials"]
        args.rounds = args.rounds or _QUICK["rounds"]
    if args.trials is not None and args.trials <= 0:
        parser.error("--trials must be positive")
    if args.rounds is not None and args.rounds <= 0:
        parser.error("--rounds must be positive")
    if args.jobs is not None and args.jobs <= 0:
        parser.error("--jobs must be positive")

    names = sorted(_COMMANDS) if args.experiment == "all" else [args.experiment]
    for name in names:
        result = _COMMANDS[name](args)
        print(result.render())
        if args.chart:
            print()
            print(result.render_chart())
        if args.output:
            from repro.experiments.io import save_result

            path = args.output
            if len(names) > 1:
                stem, dot, suffix = path.rpartition(".")
                path = f"{stem}-{name}.{suffix}" if dot else f"{path}-{name}"
            save_result(result, path)
            print(f"[saved {name} result to {path}]")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
