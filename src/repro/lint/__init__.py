"""repro.lint — the per-file invariant checker behind ``repro lint``.

The correctness claims of the repo (decision-identical TreeState deltas,
Lemma 3's ``Q(T) = e^{-C(T)}``, per-seed determinism of every figure) rest
on code conventions that no type checker knows about.  Three of them can
be read off one file:

==========  =====================================================
Rule        Invariant
==========  =====================================================
``REP101``  randomness flows through ``repro.utils.rng``
``REP102``  obs calls in hot-path code sit behind ``OBS.enabled``
``REP109``  no read-modify-write of shared attrs across an await
==========  =====================================================

One pass parses every file and runs the three checks on it.  A file that
cannot be read or parsed is a ``REP000`` finding, and the other files are
still linted.  There is no exemption syntax: a finding is fixed in the
code.

The contracts that span files are checked where they are used instead:
the builder registry checks each builder's signature at registration,
every process boundary rejects a live ``numpy.random.Generator``
(:func:`repro.utils.rng.reject_generators`), the test suite runs the event
loop in debug mode and fails on a stalled callback, and
``AggregationTree`` enforces its own immutability.

Usage::

    repro lint [PATHS ...]     # default: src

Exit codes: 0 clean, 1 findings, 2 usage error.  See
``docs/static_analysis.md`` for the workflow.
"""

from __future__ import annotations

import argparse
import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.context import FileContext, display_path_of
from repro.lint.rules.asyncsafe import check_await_races
from repro.lint.rules.obs import check_obs_guard
from repro.lint.rules.rng import check_rng_discipline

__all__ = ["Finding", "RULES", "lint_main", "lint_paths"]

#: ``(rule id, check)`` in id order; a check yields ``(node, message)`` for
#: each violation in the one file it reads.
RULES: Tuple[Tuple[str, Callable[[FileContext], Iterable[Tuple[ast.AST, str]]]], ...] = (
    ("REP101", check_rng_discipline),
    ("REP102", check_obs_guard),
    ("REP109", check_await_races),
)


@dataclass(frozen=True)
class Finding:
    """One violation: rule id, display path, 1-based line, 0-based column."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """``path:line:col RULE: message`` — one line per finding."""
        return f"{self.path}:{self.line}:{self.col} {self.rule}: {self.message}"


def _python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """The sorted ``.py`` files under *paths*, ``__pycache__`` left out."""
    files: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(
                sub.resolve() for sub in path.rglob("*.py") if "__pycache__" not in sub.parts
            )
        elif path.suffix == ".py":
            files.add(path.resolve())
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(files)


def _lint_file(path: Path) -> Iterator[Finding]:
    try:
        ctx = FileContext.parse(path)
    except (OSError, UnicodeDecodeError, SyntaxError) as exc:
        if isinstance(exc, SyntaxError):
            line, col, reason = exc.lineno or 1, (exc.offset or 1) - 1, exc.msg
        else:  # unreadable, or not UTF-8
            line, col, reason = 1, 0, str(exc)
        message = f"file does not parse: {reason}"
        yield Finding("REP000", display_path_of(path), line, col, message)
        return
    for rule, check in RULES:
        for node, message in check(ctx):
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
            yield Finding(rule, ctx.display_path, line, col, message)


def lint_paths(paths: Sequence[Union[str, Path]]) -> List[Finding]:
    """Run every rule over the ``.py`` files under *paths*.

    Findings come sorted by path, line, column and rule.  A path that is
    neither a directory nor a ``.py`` file raises ``FileNotFoundError``.
    """
    findings = [finding for path in _python_files(paths) for finding in _lint_file(path)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_main(argv: Optional[List[str]] = None) -> int:
    """``repro lint [PATHS ...]``; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Per-file invariants of the reproduction: RNG discipline (REP101), "
            "obs guarding (REP102), await-point races (REP109)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint (default: src)"
    )
    args = parser.parse_args(argv)
    try:
        findings = lint_paths(args.paths)
    except FileNotFoundError as exc:
        parser.error(str(exc))
    for finding in findings:
        print(finding.render())
    print(f"{len(findings)} findings")
    return 1 if findings else 0
