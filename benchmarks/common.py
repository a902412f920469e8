"""Shared helpers for the benchmark/reproduction harness.

Each ``bench_*`` module regenerates one table or figure of the paper:
it builds the scenario, runs the Fenrir analysis, prints the
paper-shaped rows (also archived under ``benchmarks/out/``), asserts
the qualitative shape, and benchmarks the core computation involved.
"""

from __future__ import annotations

import json
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"
REPO_ROOT = Path(__file__).resolve().parent.parent
# Where ``write_bench_json`` writes. Under pytest, ``conftest.py`` points
# this and ``OUT_DIR`` at a temporary directory.
JSON_DIR = REPO_ROOT


def emit(experiment: str, text: str) -> None:
    """Print a reproduction block and archive it to benchmarks/out/."""
    banner = f"\n=== {experiment} " + "=" * max(1, 70 - len(experiment)) + "\n"
    print(banner + text + "\n")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{experiment}.txt").write_text(text + "\n")


def write_bench_json(name: str, metrics: dict) -> Path:
    """Archive machine-readable results as ``BENCH_<name>.json``.

    Written at the repo root so the perf trajectory is a first-class,
    diffable artifact across PRs (and uploadable from CI), not just a
    human-readable block under ``benchmarks/out/``.
    """
    path = JSON_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    print(f"bench json: {path}")
    return path


def fmt_range(pair: tuple[float, float]) -> str:
    return f"[{pair[0]:.2f}, {pair[1]:.2f}]"
