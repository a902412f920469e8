"""Rule: ``float-similarity-compare``.

Φ and mode-similarity values are accumulated floats (weighted sums of
per-network agreement): their counts are bit-equal across kernels under
integer weights (``tests/golden/phi_digests.json`` pins them) but only
*tolerance*-equal under float weights, where vectorization, tiling and
summation order move the low bits, so ``==``/``!=`` on them holds for
some weightings and quietly fails for others. Comparisons on similarity-ish names
must go through ``math.isclose`` / ``np.isclose`` / an explicit
epsilon, or be rewritten as the threshold comparison they usually
meant (``phi >= mode_threshold``).

A name is similarity-ish when one of its underscore-separated tokens
is ``phi`` (token match, so ``graph`` never fires) or contains
``similarity``. Comparisons against strings, ``None``, or booleans
are ignored — those are sentinel checks, not float math.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..base import Rule, SourceFile, register
from ..findings import Finding

__all__ = ["FloatSimilarityCompare"]


def _similarity_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return None
    tokens = name.lower().split("_")
    if "phi" in tokens or any("similarity" in token for token in tokens):
        return name
    return None


def _non_float_sentinel(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and (
        node.value is None or isinstance(node.value, (str, bool))
    )


@register
class FloatSimilarityCompare(Rule):
    name = "float-similarity-compare"
    description = (
        "exact ==/!= on a Φ/similarity float; use math.isclose or a "
        "threshold compare (Φ is bit-equal only under integer weights)"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        assert source.tree is not None
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if _non_float_sentinel(left) or _non_float_sentinel(right):
                    continue
                name = _similarity_name(left) or _similarity_name(right)
                if name is not None:
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield source.finding(
                        self.name,
                        node,
                        f"exact {symbol} on similarity float {name!r}; use "
                        f"math.isclose/np.isclose or a threshold compare "
                        f"(bit-equal only under integer weights)",
                    )
