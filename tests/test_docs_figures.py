"""Every repo path the docs quote in backticks exists.

A backticked token in ``docs/*.md`` or ``README.md`` (inline code or
a fenced block) is a *repo path* when it starts with ``benchmarks/``,
``perfbench/``, ``tests/`` or ``src/``, or names a ``BENCH_*.json``
file. A deleted script, bench record or test file then fails this
test until the sentence quoting it is re-pointed or removed, instead
of leaving the docs stale. A ``::node`` suffix (a pytest node id) and
trailing punctuation are stripped; a token with a glob character must
match at least one path.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
SPAN = re.compile(r"`([^`]+)`")
REPO_PATH = re.compile(r"^(?:benchmarks|perfbench|tests|src)/|^BENCH_[^/\s]*\.json$")


def quoted_paths(doc: Path) -> list[str]:
    """The distinct repo paths backticked in ``doc``, in sorted order."""
    text = doc.read_text(encoding="utf-8")
    chunks = FENCE.findall(text) + SPAN.findall(FENCE.sub("", text))
    tokens = (token for chunk in chunks for token in chunk.split())
    paths = {token.split("::")[0].rstrip(".,;:)") for token in tokens}
    return sorted(path for path in paths if REPO_PATH.match(path))


QUOTED = [(doc, path) for doc in DOCS for path in quoted_paths(doc)]


def test_docs_quote_repo_paths():
    assert len(QUOTED) >= 20


@pytest.mark.parametrize(
    "doc,path",
    QUOTED,
    ids=[f"{doc.relative_to(ROOT)}:{path}" for doc, path in QUOTED],
)
def test_quoted_repo_path_exists(doc, path):
    if any(char in path for char in "*?["):
        assert list(ROOT.glob(path)), f"{doc.name}: {path!r} matches nothing"
    else:
        assert (ROOT / path).exists(), f"{doc.name}: {path!r} does not exist"
