"""The ``repro lint`` / ``python -m repro.lint`` command line.

Exit codes are stable and documented (CI depends on them):

* ``0`` — no findings (after suppressions).
* ``1`` — at least one finding.
* ``2`` — usage or environment error (bad flag, internal failure, time
  budget exceeded); argparse uses 2 as well.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .base import all_rules
from .engine import lint_paths
from .report import render_github, render_json, render_text

__all__ = ["build_parser", "main"]

_FORMATS = {
    "text": render_text,
    "json": render_json,
    "github": render_github,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="fenlint: repo-specific invariant checks "
        "(durability, determinism, async hygiene, obs conventions)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], type=Path,
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=sorted(_FORMATS), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="project root for relative paths and docs cross-checks "
        "(default: current directory)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rule names to skip",
    )
    parser.add_argument(
        "--report", type=Path, default=None, metavar="PATH",
        help="also write the JSON report to PATH (any --format); what CI "
        "uploads as an artifact",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="print the wall-clock runtime to stderr and exit 2 if it "
        "exceeds SECONDS; CI's guard against analysis cost creeping up",
    )
    return parser


def _split(value: Optional[str]) -> Optional[list[str]]:
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    root = (args.root or Path.cwd()).resolve()

    if args.list_rules:
        for rule in all_rules():
            scope = f" [{','.join(rule.scopes)}]" if rule.scopes else ""
            print(f"{rule.name:<28}{scope} {rule.description}")
        return 0

    started = time.monotonic()
    try:
        result = lint_paths(
            args.paths,
            root=root,
            select=_split(args.select),
            ignore=_split(args.ignore),
        )
    except Exception as exc:  # noqa: BLE001 - CLI boundary: report, exit 2
        print(f"fenlint: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(_FORMATS[args.format](result))
    if args.report is not None:
        args.report.write_text(render_json(result), encoding="utf-8")
    if args.time_budget is not None:
        elapsed = time.monotonic() - started
        print(
            f"fenlint: analyzed {result.files_checked} file(s) in "
            f"{elapsed:.2f}s (budget {args.time_budget:.0f}s)",
            file=sys.stderr,
        )
        if elapsed > args.time_budget:
            print(
                f"fenlint: runtime budget exceeded "
                f"({elapsed:.2f}s > {args.time_budget:.0f}s)",
                file=sys.stderr,
            )
            return 2
    return result.exit_code
