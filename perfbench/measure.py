"""Small measurement helpers shared by both workload families."""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence


def source_digest(root: Path) -> str:
    """sha256 over every Python file under ``src/repro``."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(share * len(ordered), 9)))
    return ordered[min(rank, len(ordered)) - 1]


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles, p99 and the count, next to the samples."""
    values = list(values)
    if not values:  # a run that failed before its window
        return {"n": 0, "samples": []}
    if len(values) > 1:
        quartiles = statistics.quantiles(values, n=4)
    else:
        quartiles = [values[0]] * 3
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": quartiles[0],
        "q3": quartiles[2],
        "p99": percentile(values, 0.99),
        "samples": values,
    }


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, dict] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
