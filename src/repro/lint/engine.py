"""File collection and rule orchestration.

``lint_paths`` is the one entry point the CLI, the tests, and CI all
share: collect ``.py`` files (sorted, so output order is deterministic
across runs and machines), parse each once, run every applicable
per-file rule, then every cross-file rule over the whole set, and
apply ``# fenlint: disable`` suppressions. Unparseable files surface
as ``parse-error`` findings rather than crashing the run — a lint gate
that dies on the broken file it should be reporting is useless in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .base import CrossFileRule, Rule, SourceFile, all_rules
from .findings import Finding

__all__ = ["LintResult", "lint_files", "lint_paths"]

PARSE_ERROR_RULE = "parse-error"


@dataclass
class LintResult:
    """Everything one lint run produced, pre-sorted and counted."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def exit_code(self) -> int:
        """0 = clean, 1 = findings. (Usage/internal errors exit 2.)"""
        return 1 if self.findings else 0


def collect_files(paths: Sequence[Path | str], root: Path) -> list[Path]:
    """Every ``.py`` file under ``paths``, deduplicated and sorted."""
    seen: set[Path] = set()
    for path in paths:
        path = Path(path)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            seen.update(p.resolve() for p in path.rglob("*.py"))
        elif path.suffix == ".py" and path.exists():
            seen.add(path.resolve())
    return sorted(seen)


def _select(
    rules: Iterable[Rule],
    select: Optional[Sequence[str]],
    ignore: Optional[Sequence[str]],
) -> list[Rule]:
    chosen = list(rules)
    if select:
        wanted = set(select)
        chosen = [rule for rule in chosen if rule.name in wanted]
    if ignore:
        unwanted = set(ignore)
        chosen = [rule for rule in chosen if rule.name not in unwanted]
    return chosen


def lint_files(
    files: Sequence[Path],
    root: Path,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Run the rule set over already-collected files."""
    root = Path(root)
    active = _select(rules if rules is not None else all_rules(), select, ignore)
    per_file = [rule for rule in active if not isinstance(rule, CrossFileRule)]
    cross_file = [rule for rule in active if isinstance(rule, CrossFileRule)]

    sources = [SourceFile.load(path, root) for path in files]
    result = LintResult(files_checked=len(sources))
    raw: list[Finding] = []

    for source in sources:
        if source.parse_error is not None:
            raw.append(
                Finding(
                    path=source.relpath,
                    line=1,
                    col=0,
                    rule=PARSE_ERROR_RULE,
                    message=f"file does not parse: {source.parse_error}",
                )
            )
            continue
        for rule in per_file:
            if rule.applies_to(source):
                raw.extend(rule.check(source))

    for rule in cross_file:
        raw.extend(rule.check_project(sources, root))

    by_relpath = {source.relpath: source for source in sources}
    visible: list[Finding] = []
    for finding in raw:
        source = by_relpath.get(finding.path)
        if source is not None and source.suppressions.silences(
            finding.rule, finding.line
        ):
            result.suppressed += 1
        else:
            visible.append(finding)

    result.findings = sorted(visible)
    return result


def lint_paths(
    paths: Sequence[Path | str],
    root: Path,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Collect the files under ``paths`` and lint them."""
    root = Path(root)
    files = collect_files(paths, root)
    return lint_files(files, root, select=select, ignore=ignore, rules=rules)
