"""Figures the docs quote from committed benchmark files match those files.

``docs/performance.md`` quotes its "Measured envelope" table from
``BENCH_serve.json``, one figure per row with the key it came from.
A re-recorded bench file then fails this test until the table is
updated with it, instead of leaving the docs stale.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TABLE_ROW = re.compile(r"^\| [^|]+ \| `(?P<key>[^`]+)` \| (?P<value>[^|]+) \|$")
KEY_PART = re.compile(r'(?P<name>\w+)(?:\["(?P<index>[^"]+)"\]|(?P<each>\[\]))?')


def quoted_rows(doc: Path, heading: str) -> list[tuple[str, str]]:
    """``(key, value)`` of every table row under ``heading``."""
    section = doc.read_text().split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return [
        (match["key"], match["value"].strip())
        for match in map(TABLE_ROW.match, section.splitlines())
        if match
    ]


def resolve(document: dict, key: str) -> list[float]:
    """Values at a dotted key; ``name[]`` fans out over a list."""
    values = [document]
    for part in key.split("."):
        match = KEY_PART.fullmatch(part)
        assert match, f"unparsable key part {part!r} in {key!r}"
        values = [value[match["name"]] for value in values]
        if match["index"] is not None:
            values = [value[match["index"]] for value in values]
        elif match["each"]:
            values = [item for value in values for item in value]
    return [float(value) for value in values]


def parse_figure(text: str) -> list[tuple[float, int]]:
    """Each number in a quoted figure with its count of decimals."""
    figures = []
    for number in re.findall(r"\d[\d ]*(?:\.\d+)?", text):
        number = number.replace(" ", "")
        decimals = len(number.split(".")[1]) if "." in number else 0
        figures.append((float(number), decimals))
    return figures


ENVELOPE = quoted_rows(ROOT / "docs" / "performance.md", "## Measured envelope")


def test_envelope_table_quotes_bench_keys():
    assert len(ENVELOPE) >= 4


@pytest.mark.parametrize("key,quoted", ENVELOPE, ids=[key for key, _ in ENVELOPE])
def test_envelope_figure_matches_bench_serve(key, quoted):
    bench = json.loads((ROOT / "BENCH_serve.json").read_text())
    values = resolve(bench, key)
    figures = parse_figure(quoted)
    if len(figures) == 2:  # a range quotes the smallest and largest value
        values = [min(values), max(values)]
    assert len(figures) == len(values), f"{key}: {quoted!r} against {values}"
    for (figure, decimals), value in zip(figures, values):
        assert round(value, decimals) == figure, f"{key}: {quoted!r} against {value}"
