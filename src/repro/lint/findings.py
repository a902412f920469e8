"""The :class:`Finding` record every rule emits."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source position."""

    path: str  # project-relative, POSIX separators
    line: int  # 1-based
    col: int  # 0-based, matching ast.col_offset
    rule: str
    message: str
    context: str = ""  # dotted enclosing class/function chain, if any

    def to_document(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "context": self.context,
        }
