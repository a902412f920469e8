"""Rule base classes, the rule registry, and parsed source files.

Two rule shapes:

* :class:`Rule` — per-file: gets one parsed :class:`SourceFile`, yields
  :class:`~repro.lint.findings.Finding`s. Most rules subclass
  ``ast.NodeVisitor`` internally.
* :class:`CrossFileRule` — whole-project: gets every collected file at
  once plus the project root, for checks no single file can answer
  (metric kind clashes across files).

Scoping: a rule that only makes sense for one subsystem declares
``scopes`` — path *segments* (``("serve",)``, ``("core", "bgp",
"datasets")``) any of which must appear in the file's relative path.
Segment matching (rather than ``src/repro/...`` prefixes) is what lets
the golden fixtures under ``tests/lint_fixtures/serve/`` exercise a
serve-scoped rule without pretending to live in ``src``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator, Optional, Type, Union

from .findings import Finding
from .suppressions import Suppressions

__all__ = [
    "ALL_RULES",
    "AnyRule",
    "CrossFileRule",
    "Rule",
    "SourceFile",
    "all_rules",
    "register",
]


@dataclass
class SourceFile:
    """One collected file: source text, AST, and suppression map."""

    path: Path  # absolute
    relpath: str  # project-relative, POSIX separators
    source: str
    tree: Optional[ast.Module]  # None when the file failed to parse
    parse_error: Optional[str] = None
    suppressions: Suppressions = field(default_factory=Suppressions)
    _contexts: Optional[list[tuple[int, int, str]]] = field(
        default=None, repr=False
    )

    @classmethod
    def load(cls, path: Path, root: Path) -> "SourceFile":
        path = Path(path)
        try:
            relpath = str(PurePosixPath(path.resolve().relative_to(root.resolve())))
        except ValueError:
            relpath = str(PurePosixPath(path))
        source = path.read_text(encoding="utf-8")
        tree: Optional[ast.Module] = None
        parse_error: Optional[str] = None
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            parse_error = f"{exc.msg} (line {exc.lineno})"
        return cls(
            path=path,
            relpath=relpath,
            source=source,
            tree=tree,
            parse_error=parse_error,
            suppressions=Suppressions.scan(source),
        )

    @property
    def parts(self) -> tuple[str, ...]:
        return PurePosixPath(self.relpath).parts

    def context_at(self, line: int) -> str:
        """Innermost enclosing class/function chain for ``line``."""
        if self._contexts is None:
            spans: list[tuple[int, int, str]] = []
            if self.tree is not None:

                def walk(node: ast.AST, prefix: str) -> None:
                    for child in ast.iter_child_nodes(node):
                        if isinstance(
                            child,
                            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                        ):
                            name = f"{prefix}{child.name}"
                            end = getattr(child, "end_lineno", child.lineno)
                            spans.append((child.lineno, end or child.lineno, name))
                            walk(child, f"{name}.")
                        else:
                            walk(child, prefix)

                walk(self.tree, "")
            self._contexts = spans
        best = ""
        best_size = None
        for start, end, name in self._contexts:
            if start <= line <= end and (best_size is None or end - start < best_size):
                best, best_size = name, end - start
        return best

    def finding(
        self,
        rule: str,
        node: Optional[ast.AST],
        message: str,
        line: Optional[int] = None,
    ) -> Finding:
        """A :class:`Finding` anchored at ``node`` (or an explicit line)."""
        lineno = line if line is not None else getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) if line is None else 0
        return Finding(
            path=self.relpath,
            line=lineno,
            col=col,
            rule=rule,
            message=message,
            context=self.context_at(lineno),
        )


class Rule:
    """Base class for per-file AST rules."""

    #: kebab-case identifier used in output, ``--select`` and
    #: suppressions.
    name: str = ""
    #: one-line rationale shown by ``repro lint --list-rules``.
    description: str = ""
    #: path segments the rule is restricted to; empty = every file.
    scopes: tuple[str, ...] = ()
    #: path segments the rule must *not* run on (e.g. the obs package
    #: itself for the span-gate rule).
    exclude_scopes: tuple[str, ...] = ()

    def applies_to(self, source: SourceFile) -> bool:
        parts = set(source.parts[:-1])  # directories only, not the filename
        if self.exclude_scopes and parts & set(self.exclude_scopes):
            return False
        if self.scopes:
            return bool(parts & set(self.scopes))
        return True

    def check(self, source: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover


class CrossFileRule(Rule):
    """Base class for whole-project consistency rules.

    ``applies_to``/``check`` are unused; the engine calls
    :meth:`check_project` once with every collected file.
    """

    def check(self, source: SourceFile) -> Iterator[Finding]:
        return iter(())

    def check_project(
        self, files: Iterable[SourceFile], root: Path
    ) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover


AnyRule = Union[Rule, CrossFileRule]

#: registry populated by the :func:`register` decorator at import time.
ALL_RULES: dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.name:
        raise ValueError(f"{rule_class.__name__} must set a rule name")
    if rule_class.name in ALL_RULES:
        raise ValueError(f"duplicate rule name: {rule_class.name!r}")
    ALL_RULES[rule_class.name] = rule_class
    return rule_class


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, stable order."""
    from . import rules  # noqa: F401  (importing populates the registry)

    return [ALL_RULES[name]() for name in sorted(ALL_RULES)]
