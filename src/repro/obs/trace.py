"""Lightweight structured tracing: ``span("phase", **tags)``.

A span is one timed region with a name, optional tags, and children;
nesting builds a parent/child tree via a context variable, which makes
the tracer safe across threads and asyncio tasks (each task sees its
own current span). Completed root spans accumulate in a bounded ring
on the tracer and can be dumped as JSON (machine-readable, one tree
per root) or as a flame-style indented text summary (human-readable,
widest subtree first).

Tracing is **disabled by default** and designed to cost nothing when
off: :func:`span` checks one module-level boolean and returns a shared
no-op context manager without touching the clock, the context var, or
allocating a span. Enable programmatically with :func:`enable`, or for
a whole process with the ``REPRO_OBS=1`` environment variable (how the
serve benchmark's obs-overhead run turns it on in the server child).

>>> from repro.obs import enable, span, get_tracer
>>> enable()
>>> with span("pipeline", series="broot"):
...     with span("compare"):
...         pass
>>> print(get_tracer().flame_text())        # doctest: +SKIP
"""

from __future__ import annotations

import json
import os
import time
from contextvars import ContextVar
from collections import deque
from types import TracebackType
from typing import Deque, Iterator, Optional, Union

__all__ = [
    "Span",
    "Tracer",
    "span",
    "enable",
    "disable",
    "enabled",
    "get_tracer",
    "set_tracer",
]

_MAX_FINISHED_ROOTS = 256  # bounded: a long-lived server must not leak


class Span:
    """One timed region in the trace tree; also its own context manager."""

    __slots__ = (
        "name",
        "tags",
        "children",
        "started",
        "elapsed",
        "status",
        "error",
        "_tracer",
        "_token",
    )

    def __init__(self, name: str, tags: dict, tracer: "Tracer") -> None:
        self.name = name
        self.tags = tags
        self.children: list[Span] = []
        self.started = 0.0
        self.elapsed = 0.0
        self.status = "ok"
        self.error: Optional[str] = None
        self._tracer = tracer
        self._token = None

    def __enter__(self) -> "Span":
        parent = self._tracer._current.get()
        if parent is not None:
            parent.children.append(self)
        self._token = self._tracer._current.set(self)
        self.started = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        _tb: Optional[TracebackType],
    ) -> bool:
        self.elapsed = time.perf_counter() - self.started
        self._tracer._current.reset(self._token)
        if exc_type is not None:
            # The span records the failure and re-raises: tracing must
            # never swallow an exception.
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        if self._tracer._current.get() is None:
            self._tracer._finished.append(self)
        return False

    def to_dict(self) -> dict:
        document = {
            "name": self.name,
            "elapsed_seconds": round(self.elapsed, 6),
            "status": self.status,
        }
        if self.tags:
            document["tags"] = {key: str(value) for key, value in self.tags.items()}
        if self.error is not None:
            document["error"] = self.error
        if self.children:
            document["children"] = [child.to_dict() for child in self.children]
        return document

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc_info: object) -> bool:
        return False


_NOOP = _NoopSpan()


class Tracer:
    """Owns the current-span context and the finished root spans."""

    def __init__(self, max_roots: int = _MAX_FINISHED_ROOTS) -> None:
        self._current: ContextVar[Optional[Span]] = ContextVar(
            "repro_obs_span", default=None
        )
        self._finished: Deque[Span] = deque(maxlen=max_roots)

    def span(self, name: str, **tags: object) -> Span:
        return Span(name, tags, self)

    @property
    def roots(self) -> list[Span]:
        return list(self._finished)

    def clear(self) -> None:
        self._finished.clear()

    # -- dump formats --------------------------------------------------------

    def to_dict(self) -> dict:
        return {"traces": [root.to_dict() for root in self._finished]}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False) + "\n"

    def flame_text(self) -> str:
        """Indented per-span summary, children sorted by elapsed time.

        Each line shows the span's share of its root, its own wall
        time, and its tags — enough to see at a glance which stage of
        a pipeline run dominated.
        """
        lines: list[str] = []
        for root in self._finished:
            total = root.elapsed or 1e-12

            def render(node: Span, depth: int) -> None:
                percent = 100.0 * node.elapsed / total
                tags = (
                    " [" + " ".join(f"{k}={v}" for k, v in node.tags.items()) + "]"
                    if node.tags
                    else ""
                )
                marker = " !" if node.status == "error" else ""
                lines.append(
                    f"{'  ' * depth}{node.name:<{max(1, 24 - 2 * depth)}} "
                    f"{node.elapsed * 1000:9.2f} ms {percent:5.1f}%{tags}{marker}"
                )
                for child in sorted(
                    node.children, key=lambda s: s.elapsed, reverse=True
                ):
                    render(child, depth + 1)

            render(root, 0)
            lines.append("")
        return "\n".join(lines).rstrip() + "\n" if lines else ""


_tracer = Tracer()
_enabled = os.environ.get("REPRO_OBS", "") not in ("", "0")


def get_tracer() -> Tracer:
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process tracer (tests); returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def enabled() -> bool:
    return _enabled


def span(name: str, **tags: object) -> Union[Span, _NoopSpan]:
    """A timed region: ``with span("compare", engine="tiled"): ...``.

    With ``REPRO_OBS`` off this is one boolean check and a shared no-op
    (no clock read, no allocation), which is how perfbench measures its
    end-to-end metrics; it reports tracing's cost as ``trace.overhead_pct``.
    """
    if not _enabled:
        return _NOOP
    return _tracer.span(name, **tags)
