"""Output formats: human text, stable JSON, GitHub annotations.

JSON output is deterministic by construction — findings arrive
pre-sorted from the engine, keys are sorted, and nothing volatile
(timestamps, absolute paths, durations) is included — so two runs over
the same tree produce byte-identical reports, which is what lets CI
diff or cache them.
"""

from __future__ import annotations

import json

from .engine import LintResult

__all__ = ["render_github", "render_json", "render_text"]


def render_text(result: LintResult) -> str:
    lines = [
        f"{finding.path}:{finding.line}:{finding.col + 1}: "
        f"{finding.rule}: {finding.message}"
        for finding in result.findings
    ]
    tail = (
        f"{len(result.findings)} finding(s) in {result.files_checked} file(s)"
        f" ({result.suppressed} suppressed)"
    )
    lines.append(tail)
    return "\n".join(lines) + "\n"


def render_json(result: LintResult) -> str:
    document = {
        "version": 1,
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "findings": [finding.to_document() for finding in result.findings],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _escape_github(text: str) -> str:
    """GitHub workflow-command data escaping (%, CR, LF)."""
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def render_github(result: LintResult) -> str:
    """One ``::error`` workflow command per finding, for CI logs."""
    lines = [
        f"::error file={finding.path},line={finding.line},"
        f"col={finding.col + 1},title=fenlint({finding.rule})::"
        f"{_escape_github(finding.message)}"
        for finding in result.findings
    ]
    lines.append(
        f"fenlint: {len(result.findings)} finding(s) in "
        f"{result.files_checked} file(s)"
    )
    return "\n".join(lines) + "\n"
