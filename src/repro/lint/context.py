"""Parsed-file and whole-project context handed to lint rules.

Two layers live here:

* :class:`FileContext` — one parsed source file.
* :class:`Project` — all files of one lint run plus memoized cross-file
  lookups.  The lookups are backed by :class:`~repro.lint.graph.ModuleSummary`
  digests extracted once per file, so cross-file rules (builder-registry
  wiring, import resolution, the interprocedural passes) read from
  summaries rather than re-walking ASTs.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lint.effects import EffectAnalysis
    from repro.lint.graph import CallGraph, ModuleSummary

__all__ = ["FileContext", "Project", "module_name_for"]

#: Top of the package tree: paths are mapped to dotted module names by
#: locating this component, so fixtures in temp dirs lint identically.
ROOT_PACKAGE = "repro"


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name of *path*, or ``None`` if outside the package tree.

    Keyed on the last ``repro`` path component so both the real tree
    (``src/repro/core/lp.py`` → ``repro.core.lp``) and synthetic test trees
    (``/tmp/x/src/repro/core/bad.py``) resolve.  ``__init__.py`` maps to its
    package name.
    """
    parts = list(path.resolve().parts)
    if ROOT_PACKAGE not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index(ROOT_PACKAGE)
    module_parts = parts[idx:]
    leaf = module_parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[: -len(".py")]
    if leaf == "__init__":
        module_parts = module_parts[:-1]
    else:
        module_parts[-1] = leaf
    return ".".join(module_parts)


def _display_path(path: Path) -> str:
    """Path as reported: cwd-relative posix when possible."""
    resolved = path.resolve()
    rel = os.path.relpath(resolved, os.getcwd())
    if rel.startswith(".."):
        return resolved.as_posix()
    return Path(rel).as_posix()


@dataclass(eq=False)
class FileContext:
    """One parsed source file.

    Attributes:
        path: The file on disk.
        display_path: Normalized path used in reports.
        module: Dotted module name, or ``None`` outside the package tree.
        is_package: Whether the file is a package ``__init__.py``.
        lines: The source text split into physical lines.
        tree: The parsed AST.
    """

    path: Path
    display_path: str
    module: Optional[str]
    is_package: bool
    lines: List[str]
    tree: ast.Module

    @classmethod
    def parse(cls, path: Path) -> "FileContext":
        """Read and parse *path*.

        Raises ``OSError``/``UnicodeDecodeError`` when the file cannot be
        read as UTF-8 and ``SyntaxError`` when it does not parse.
        """
        source = path.read_bytes().decode("utf-8")
        return cls(
            path=path,
            display_path=_display_path(path),
            module=module_name_for(path),
            is_package=path.name == "__init__.py",
            lines=source.splitlines(),
            tree=ast.parse(source, filename=str(path)),
        )

    def in_package(self, *packages: str) -> bool:
        """Whether this module lives in (or is) one of the dotted *packages*."""
        if self.module is None:
            return False
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in packages
        )


class Project:
    """All files of one lint run plus memoized cross-file lookups.

    Cross-file queries read from per-module summaries, extracted from the
    AST on first use (:meth:`summary`).  The whole-program structures —
    call graph and effect analysis — are built once per run from those
    summaries and shared by every interprocedural rule.
    """

    def __init__(self, files: List[FileContext]) -> None:
        self.files = files
        self.modules: Dict[str, FileContext] = {
            ctx.module: ctx for ctx in files if ctx.module is not None
        }
        self._summaries: Dict[str, "ModuleSummary"] = {}
        self._builders: Optional[Dict[str, List[Tuple[str, int]]]] = None
        self._call_graph: Optional["CallGraph"] = None
        self._effects: Optional["EffectAnalysis"] = None

    # -- summaries ------------------------------------------------------

    def summary(self, ctx: FileContext) -> "ModuleSummary":
        """The module summary for *ctx*, extracted on first use."""
        cached = self._summaries.get(ctx.display_path)
        if cached is None:
            from repro.lint.graph import extract_summary

            cached = extract_summary(ctx)
            self._summaries[ctx.display_path] = cached
        return cached

    def module_summary(self, module: str) -> Optional["ModuleSummary"]:
        """Summary of a dotted *module* name, or ``None`` if not in this run."""
        ctx = self.modules.get(module)
        if ctx is None:
            return None
        return self.summary(ctx)

    # -- symbol-table queries -------------------------------------------

    def name_loads(self, module: str) -> Optional[Set[str]]:
        """Every ``Name`` referenced anywhere in *module* (any context)."""
        summary = self.module_summary(module)
        if summary is None:
            return None
        return set(summary.name_loads)

    def tree_builder_registrations(self) -> Dict[str, List[Tuple[str, int]]]:
        """Map of ``@tree_builder`` name literal → [(display_path, line), ...]."""
        if self._builders is None:
            registrations: Dict[str, List[Tuple[str, int]]] = {}
            for ctx in self.files:
                summary = self.summary(ctx)
                for fn in summary.functions:
                    if fn.builder_name is not None:
                        registrations.setdefault(fn.builder_name, []).append(
                            (ctx.display_path, fn.lineno)
                        )
            self._builders = registrations
        return self._builders

    # -- whole-program analyses -----------------------------------------

    def call_graph(self) -> "CallGraph":
        """The name-resolved call graph (built once per run)."""
        if self._call_graph is None:
            from repro.lint.graph import build_call_graph

            self._call_graph = build_call_graph(self)
        return self._call_graph

    def effect_analysis(self) -> "EffectAnalysis":
        """The fixpoint effect analysis over the call graph (once per run)."""
        if self._effects is None:
            from repro.lint.effects import analyze_effects

            self._effects = analyze_effects(self.call_graph())
        return self._effects
