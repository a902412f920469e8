"""Rule: ``unguarded-span``.

Tracing is free when disabled *only* because every span goes through
``repro.obs.span(...)``, which checks one module boolean and hands
back a shared no-op before touching the clock or allocating. Code
that builds spans directly — ``get_tracer().span(...)``,
``tracer.span(...)``, or instantiating ``Span(...)`` — bypasses that
``REPRO_OBS`` gate and pays allocation + context-var + clock cost on
every call even with observability off. perfbench runs with tracing
off, so that cost would land in ``mixed-routed``'s ``rounds_per_s``
and ``server.command_p50_ms``.

The rule flags span construction outside :mod:`repro.obs` itself (the
package that *implements* the gate is the one place allowed to touch
the internals).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..base import Rule, SourceFile, register
from ..findings import Finding
from ._util import dotted_name

__all__ = ["UnguardedSpan"]


def _is_unguarded(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "Span":
        return "Span(...) constructed directly"
    if isinstance(func, ast.Attribute):
        if func.attr == "Span":
            return "Span(...) constructed directly"
        if func.attr == "span":
            receiver = func.value
            dotted = dotted_name(receiver)
            if dotted is not None and "tracer" in dotted.lower():
                return f"{dotted}.span(...)"
            if isinstance(receiver, ast.Call):
                inner = dotted_name(receiver.func)
                if inner is not None and "tracer" in inner.lower():
                    return f"{inner}().span(...)"
    return None


@register
class UnguardedSpan(Rule):
    name = "unguarded-span"
    description = (
        "span created without the REPRO_OBS no-op gate; use "
        "repro.obs.span(...) so disabled tracing stays free"
    )
    exclude_scopes = ("obs",)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        assert source.tree is not None
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            how = _is_unguarded(node)
            if how is not None:
                yield source.finding(
                    self.name,
                    node,
                    f"{how} bypasses the REPRO_OBS no-op gate; use "
                    f"repro.obs.span(...) instead",
                )
