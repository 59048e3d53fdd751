"""``BENCH_*.json`` regression sentinel: compare the newest run to history.

Each trajectory bench (``repro bench core|ira|portfolio|serve``) declares
one :class:`BenchRecord` next to its runner: the trajectory format and
version, the metrics the sentinel gates and their direction, the run-doc
fields that identify the workload, and the fixed workload itself (plus a
smaller CI size where CI runs one).  :func:`bench_records` collects them;
``repro bench`` runs them and this module reads their gated metrics.
The trajectories (``BENCH_serve.json``, ``BENCH_core.json``, ...) are
append-only ``{"format": "repro-bench-*", "runs": [...]}`` logs of
measured performance across PRs.

:func:`diff_trajectory` compares the newest run's metrics against a
baseline window (the median of up to *window* immediately preceding runs
*of the same workload*; medians shrug off one noisy CI run where a mean
would not) and flags any metric that moved in its bad direction by more
than *threshold* (a relative fraction — ``0.5`` means "flag a >50% drop of
a higher-is-better metric").  ``repro obs bench-diff`` wraps it as a CLI
that exits nonzero on regression, which is what CI gates on.

Wall-clock benchmarks are noisy across machines, so the defaults are
deliberately loose (50%): the sentinel exists to catch the order-of-
magnitude cliffs a bad PR introduces — an accidentally disabled cache, a
quadratic slip — not 5% jitter.  Tighten ``--threshold`` when comparing
runs from one machine.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "BenchDiff",
    "BenchRecord",
    "MetricDiff",
    "MetricSpec",
    "append_trajectory",
    "bench_records",
    "diff_trajectory",
    "diff_trajectory_file",
    "load_trajectory",
]


@dataclass(frozen=True)
class MetricSpec:
    """One trajectory metric the sentinel watches.

    Attributes:
        name: Key into each run document (``"warm_rps"``, ``"hit_rate"``).
        higher_is_better: Direction of goodness; a drop of a
            higher-is-better metric is a regression, and vice versa.
    """

    name: str
    higher_is_better: bool = True


@dataclass(frozen=True)
class BenchRecord:
    """One trajectory bench, declared once beside its runner.

    Attributes:
        name: ``repro bench NAME``.
        format / version: What the bench's ``BENCH_*.json`` carries.
        metrics: What the sentinel gates.  Correctness (identical trees,
            pinned costs, zero divergent responses) is asserted inside the
            runner, never thresholded.
        workload: Run-doc fields that identify the workload; only runs
            that agree on all of them are compared.
        run: The bench's runner; it returns a report with ``render()`` and
            ``to_doc()``, and raises ``AssertionError`` when a correctness
            check fails.
        params: *run*'s arguments for the committed trajectory's workload.
        ci_params: Smaller arguments for CI, where CI runs a smaller size.
    """

    name: str
    format: str
    version: int
    metrics: Tuple[MetricSpec, ...]
    workload: Tuple[str, ...]
    run: Callable[..., Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    ci_params: Optional[Mapping[str, Any]] = None

    def measure(self, *, ci: bool = False) -> Any:
        """Run the fixed workload (the CI size if *ci* and there is one)."""
        params = self.ci_params if ci and self.ci_params is not None else self.params
        return self.run(**params)


def bench_records() -> Dict[str, BenchRecord]:
    """Every trajectory bench, by name."""
    # Deferred: the bench modules import this one for the record types.
    from repro.engine.bench import CORE_BENCH
    from repro.engine.bench_ira import IRA_BENCH
    from repro.engine.bench_portfolio import PORTFOLIO_BENCH
    from repro.serve.bench import SERVE_BENCH

    records = (CORE_BENCH, IRA_BENCH, PORTFOLIO_BENCH, SERVE_BENCH)
    return {record.name: record for record in records}


@dataclass(frozen=True)
class MetricDiff:
    """One metric's newest-vs-baseline comparison.

    ``change`` is the signed relative move in the *good* direction:
    +0.10 means 10% better, −0.60 means 60% worse.  ``regressed`` is
    ``change < -threshold``.
    """

    name: str
    newest: float
    baseline: float
    change: float
    regressed: bool


@dataclass(frozen=True)
class BenchDiff:
    """The sentinel's verdict for one trajectory file."""

    path: str
    format: str
    n_runs: int
    window: int
    threshold: float
    metrics: Tuple[MetricDiff, ...]
    skipped_reason: Optional[str] = None
    #: Watched metrics the newest run reports but no run in the window
    #: does (a metric a PR just added): listed, not gated.
    new_metrics: Tuple[str, ...] = ()

    @property
    def regressed(self) -> bool:
        return any(m.regressed for m in self.metrics)

    def render(self) -> str:
        """Readable verdict block (one line per metric)."""
        header = f"bench-diff {self.path} [{self.format}]"
        if self.skipped_reason is not None:
            return f"{header}: SKIPPED ({self.skipped_reason})"
        lines = [
            f"{header}: newest of {self.n_runs} runs vs median of "
            f"previous {self.window} of its workload (threshold {self.threshold:.0%})"
        ]
        for m in self.metrics:
            verdict = "REGRESSED" if m.regressed else "ok"
            lines.append(
                f"  {m.name:<12} {m.newest:>12.4g}  baseline {m.baseline:>12.4g}"
                f"  change {m.change:+8.1%}  {verdict}"
            )
        for name in self.new_metrics:
            lines.append(f"  {name:<12} new: no baseline in the window yet")
        return "\n".join(lines)


def load_trajectory(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and structurally validate one ``BENCH_*.json`` document.

    Raises ``ValueError`` on anything that is not a
    ``{"format": str, "runs": [dict, ...]}`` trajectory.
    """
    target = Path(path)
    try:
        doc = json.loads(target.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{target}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("format"), str):
        raise ValueError(f"{target}: missing a 'format' string")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not all(
        isinstance(run, dict) for run in runs
    ):
        raise ValueError(f"{target}: 'runs' must be a list of run documents")
    return doc


def append_trajectory(
    path: Union[str, Path], fmt: str, version: int, run: Dict[str, Any]
) -> Dict[str, Any]:
    """Append one *run* document to the ``BENCH_*.json`` trajectory at *path*.

    An absent file starts as ``{"format": fmt, "version": version, "runs":
    []}``; an existing one is read through :func:`load_trajectory` and must
    carry *fmt*.  Runs stay in append order.  Returns the written document.
    """
    target = Path(path)
    if target.exists():
        doc = load_trajectory(target)
        if doc["format"] != fmt:
            raise ValueError(
                f"{target} is not a {fmt} document (format={doc['format']!r})"
            )
    else:
        doc = {"format": fmt, "version": version, "runs": []}
    doc["runs"].append(run)
    target.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return doc


def _metric_values(
    runs: Sequence[Dict[str, Any]], name: str
) -> List[float]:
    values = []
    for run in runs:
        value = run.get(name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(
                f"run is missing numeric metric {name!r}: has {sorted(run)}"
            )
        values.append(float(value))
    return values


def diff_trajectory(
    doc: Dict[str, Any],
    *,
    metrics: Optional[Sequence[MetricSpec]] = None,
    window: int = 5,
    threshold: float = 0.5,
    path: str = "<trajectory>",
) -> BenchDiff:
    """Compare *doc*'s newest run against the median of the prior window.

    The gated metrics are *metrics*, else those of the :class:`BenchRecord`
    that writes *doc*'s format.  The window holds only earlier runs whose
    record workload fields equal the newest run's.  With no such run (or
    an unknown format and no explicit *metrics*) the diff is *skipped*,
    not failed: a brand-new workload has no history to regress against.
    """
    if not 0 < threshold:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    fmt = str(doc.get("format"))
    runs: List[Dict[str, Any]] = list(doc.get("runs", []))

    def skipped(reason: str) -> BenchDiff:
        return BenchDiff(
            path=path,
            format=fmt,
            n_runs=len(runs),
            window=window,
            threshold=threshold,
            metrics=(),
            skipped_reason=reason,
        )

    record = next((r for r in bench_records().values() if r.format == fmt), None)
    if metrics is not None:
        specs = tuple(metrics)
    elif record is not None:
        specs = record.metrics
    else:
        return skipped(f"no bench record for format {fmt!r}; pass --metrics")
    if len(runs) < 2:
        return skipped(f"needs >= 2 runs for a baseline, has {len(runs)}")

    newest = runs[-1]
    workload = {name: newest.get(name) for name in (record.workload if record else ())}
    same = [
        run
        for run in runs[:-1]
        if all(run.get(name) == value for name, value in workload.items())
    ]
    if not same:
        described = ", ".join(f"{name}={value}" for name, value in workload.items())
        return skipped(f"no earlier run of the newest run's workload ({described})")
    history = same[-window:]
    diffs: List[MetricDiff] = []
    new_metrics: List[str] = []
    for spec in specs:
        value = _metric_values([newest], spec.name)[0]
        past = [run for run in history if spec.name in run]
        if not past:
            new_metrics.append(spec.name)
            continue
        baseline = statistics.median(_metric_values(past, spec.name))
        if baseline == 0:
            # A zero baseline can't express relative change; any nonzero
            # move in the bad direction counts as a full-size move.
            relative = 0.0 if value == 0 else (1.0 if value > 0 else -1.0)
        else:
            relative = (value - baseline) / abs(baseline)
        change = relative if spec.higher_is_better else -relative
        diffs.append(
            MetricDiff(
                name=spec.name,
                newest=value,
                baseline=baseline,
                change=change,
                regressed=change < -threshold,
            )
        )
    return BenchDiff(
        path=path,
        format=fmt,
        n_runs=len(runs),
        window=len(history),
        threshold=threshold,
        metrics=tuple(diffs),
        new_metrics=tuple(new_metrics),
    )


def diff_trajectory_file(
    path: Union[str, Path],
    *,
    metrics: Optional[Sequence[MetricSpec]] = None,
    window: int = 5,
    threshold: float = 0.5,
) -> BenchDiff:
    """Load *path* and :func:`diff_trajectory` it."""
    doc = load_trajectory(path)
    return diff_trajectory(
        doc,
        metrics=metrics,
        window=window,
        threshold=threshold,
        path=str(path),
    )
