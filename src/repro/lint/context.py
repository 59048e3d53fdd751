"""The parsed-file context handed to lint rules, plus shared AST helpers.

Every rule reads one :class:`FileContext` — one parsed source file — and
nothing else: no rule looks across files.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

__all__ = ["FileContext", "dotted_chain", "module_name_for"]

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


def dotted_chain(node: ast.expr) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ``""``."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return ""
    parts.append(current.id)
    return ".".join(reversed(parts))


def display_path_of(path: Path) -> str:
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
        display_path: Normalized path used in reports.
        module: Dotted module name, or ``None`` outside the package tree.
        lines: The source text split into physical lines.
        tree: The parsed AST.
    """

    display_path: str
    module: Optional[str]
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
            display_path=display_path_of(path),
            module=module_name_for(path),
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
