"""Text renderings of Fenrir's visualizations.

The paper communicates through four pictures: all-pairs similarity
heatmaps, per-catchment stack plots, transition-matrix tables and
Sankey flow diagrams. This module renders each as terminal-friendly
text (and exposes the underlying data extraction, which the benchmark
harness prints as the paper-shaped rows).
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Optional, Sequence

import numpy as np

from .modes import ModeSet
from .transition import TransitionMatrix

__all__ = [
    "render_heatmap",
    "render_stackplot",
    "render_transition_table",
    "render_mode_timeline",
    "sankey_flows",
    "render_sankey",
]

_SHADES = " .:-=+*#%@"


def _shade(value: float) -> str:
    if np.isnan(value):
        return "?"
    index = int(np.clip(value, 0.0, 1.0) * (len(_SHADES) - 1))
    return _SHADES[index]


def render_heatmap(
    similarity: np.ndarray,
    labels: Optional[Sequence[str]] = None,
    max_size: int = 60,
) -> str:
    """ASCII all-pairs similarity heatmap, darker = more similar.

    Matrices larger than ``max_size`` are downsampled by block mean so
    five-year series still fit a terminal.
    """
    matrix = np.asarray(similarity, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("similarity must be a square matrix")
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    size = matrix.shape[0]
    stride = max(1, -(-size // max_size))  # ceil division
    if stride > 1:
        trimmed = matrix[: size - size % stride or size, : size - size % stride or size]
        blocks = trimmed.reshape(
            trimmed.shape[0] // stride, stride, trimmed.shape[1] // stride, stride
        )
        with np.errstate(invalid="ignore"):
            matrix = np.nanmean(blocks, axis=(1, 3))
    lines = []
    for row_index in range(matrix.shape[0]):
        row = "".join(_shade(matrix[row_index, col]) for col in range(matrix.shape[1]))
        prefix = ""
        if labels is not None:
            source = row_index * stride
            prefix = f"{labels[min(source, len(labels) - 1)]:>12} "
        lines.append(prefix + row)
    legend = f"scale: '{_SHADES[0]}'=0.0 .. '{_SHADES[-1]}'=1.0, stride={stride}"
    return "\n".join(lines + [legend])


def render_stackplot(
    aggregates: Mapping[str, np.ndarray],
    width: int = 50,
    labels: Optional[Sequence[str]] = None,
) -> str:
    """Per-time horizontal stacked bars of catchment shares (Figures 1/2a/3a).

    Each row is one observation; each site gets a letter, with the
    legend printed first. Rows are proportional, so a site draining to
    zero visibly vanishes.
    """
    sites = list(aggregates)
    if not sites:
        return "(empty)"
    length = len(next(iter(aggregates.values())))
    letters = [chr(ord("A") + i % 26) for i in range(len(sites))]
    legend = "  ".join(f"{letter}={site}" for letter, site in zip(letters, sites))
    lines = [legend]
    for step in range(length):
        values = np.array([max(float(aggregates[site][step]), 0.0) for site in sites])
        total = values.sum()
        bar = ""
        if total > 0:
            widths = np.floor(values / total * width).astype(int)
            while widths.sum() < width:
                widths[int(np.argmax(values / total * width - widths))] += 1
            bar = "".join(letter * w for letter, w in zip(letters, widths))
        prefix = f"{labels[step]:>12} " if labels is not None else f"{step:>4} "
        lines.append(prefix + bar)
    return "\n".join(lines)


def render_transition_table(matrix: TransitionMatrix, min_total: float = 0.0) -> str:
    """Table 3-style rendering: initial states as rows, subsequent as columns."""
    catalog = matrix.catalog
    size = len(catalog)
    keep = [
        code
        for code in range(size)
        if matrix.counts[code, :].sum() > min_total
        or matrix.counts[:, code].sum() > min_total
    ]
    header_labels = [catalog.label(code) for code in keep]
    width = max((len(label) for label in header_labels), default=4) + 2
    width = max(width, 8)
    header = " " * width + "".join(f"{label:>{width}}" for label in header_labels)
    lines = [header]
    for row_code in keep:
        cells = "".join(
            f"{matrix.counts[row_code, col_code]:>{width}.0f}" for col_code in keep
        )
        lines.append(f"{catalog.label(row_code):>{width}}" + cells)
    return "\n".join(lines)


def render_mode_timeline(modes: ModeSet) -> str:
    """Chronological mode segments with within/between Φ ranges."""
    roman = ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x",
             "xi", "xii", "xiii", "xiv", "xv"]
    lines = []
    previous_mode: Optional[int] = None
    for mode_id, start, end in modes.timeline():
        name = roman[mode_id] if mode_id < len(roman) else str(mode_id)
        lo, hi = modes.phi_within(mode_id)
        line = (
            f"mode ({name}): {start:%Y-%m-%d} .. {end:%Y-%m-%d}  "
            f"within-Φ [{lo:.2f}, {hi:.2f}]"
        )
        if previous_mode is not None and previous_mode != mode_id:
            blo, bhi = modes.phi_between(previous_mode, mode_id)
            prev_name = roman[previous_mode] if previous_mode < len(roman) else str(previous_mode)
            line += f"  Φ(M{prev_name},M{name}) [{blo:.2f}, {bhi:.2f}]"
        lines.append(line)
        previous_mode = mode_id
    return "\n".join(lines)


def sankey_flows(
    paths: Sequence[Sequence[str]],
    max_hops: int,
    weights: Optional[Sequence[float]] = None,
) -> list[tuple[int, str, str, float]]:
    """Extract Sankey links from per-network hop sequences (Figures 7/8).

    Returns ``(hop_level, from_node, to_node, weight)`` tuples, where
    hop_level h links hop h to hop h+1. Paths shorter than the window
    contribute up to their length.
    """
    flows: Counter[tuple[int, str, str]] = Counter()
    for index, path in enumerate(paths):
        weight = float(weights[index]) if weights is not None else 1.0
        for level in range(min(len(path) - 1, max_hops - 1)):
            flows[(level, str(path[level]), str(path[level + 1]))] += weight
    return sorted(
        ((level, src, dst, count) for (level, src, dst), count in flows.items()),
        key=lambda item: (item[0], -item[3]),
    )


def render_sankey(
    flows: Sequence[tuple[int, str, str, float]],
    top_per_level: int = 8,
) -> str:
    """Text rendering of Sankey links, share-annotated per hop level."""
    if not flows:
        return "(no flows)"
    lines = []
    levels = sorted({level for level, _src, _dst, _w in flows})
    for level in levels:
        level_flows = [f for f in flows if f[0] == level]
        total = sum(f[3] for f in level_flows)
        lines.append(f"hop {level + 1} -> hop {level + 2}  (total {total:.0f})")
        for _level, src, dst, weight in level_flows[:top_per_level]:
            share = weight / total if total else 0.0
            lines.append(f"    {src:>16} -> {dst:<16} {weight:>10.0f}  ({share:5.1%})")
    return "\n".join(lines)
