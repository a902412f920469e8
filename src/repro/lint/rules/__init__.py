"""The shipped rule set. Importing this package registers every rule.

To add a rule: create a module here, subclass
:class:`~repro.lint.base.Rule` (or ``CrossFileRule``), decorate it
with :func:`~repro.lint.base.register`, import the module below, and
add a good/bad fixture pair under ``tests/lint_fixtures/`` plus a
table entry in ``tests/test_lint_rules.py``. See
``docs/static-analysis.md`` for the full checklist.
"""

from . import (  # noqa: F401  (imports register the rules)
    async_hygiene,
    determinism,
    durability,
    exception_flow,
    exceptions,
    floats,
    interleaving,
    locks,
    metrics,
    spans,
)

__all__ = [
    "async_hygiene",
    "determinism",
    "durability",
    "exception_flow",
    "exceptions",
    "floats",
    "interleaving",
    "locks",
    "metrics",
    "spans",
]
