"""Finding model shared by the lint driver and reporters.

A :class:`Finding` is one rule violation at one source location.  Every
finding is an error: any finding fails the gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes:
        rule: Rule identifier, e.g. ``"REP101"``.
        path: Display path of the offending file (posix separators).
        line: 1-based line of the violation.
        col: 0-based column of the violation.
        message: Human-readable description with the suggested fix.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        """``path:line:col RULE: message`` — one line per finding."""
        return f"{self.path}:{self.line}:{self.col} {self.rule}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

