"""``repro.lint`` ("fenlint"): repo-specific static analysis.

Generic linters check style; fenlint checks the *invariants* the other
subsystems' correctness rests on — the conventions that no amount of
ruff configuration can express:

* the write-ahead journal's write-then-flush discipline
  (:mod:`repro.serve.journal`), where a buffered-but-unflushed append
  silently voids the acknowledged-iff-replayable durability contract;
* the determinism of the seeded measurement substrates
  (:mod:`repro.core`, :mod:`repro.bgp`, :mod:`repro.datasets`), where a
  stray ``random.random()`` or ``time.time()`` breaks the
  reproducibility of catchment inputs that the whole reproduction is
  built on;
* async hygiene in :mod:`repro.serve`, where one blocking call in a
  coroutine stalls every monitor on the loop;
* the observability conventions from PR 4 — Prometheus metric naming,
  the ``REPRO_OBS`` no-op span gate, and the rule that a broad
  ``except Exception`` must leave a visible trace (log, counter, or
  re-raise) rather than swallow the failure.

The framework is dependency-free (stdlib ``ast`` + ``tokenize``-level
line scanning) and pluggable: subclass :class:`~repro.lint.base.Rule`
for per-file AST passes or :class:`~repro.lint.base.CrossFileRule` for
whole-project consistency checks, register with
:func:`~repro.lint.base.register`, and the engine picks the rule up.
Findings can be suppressed line-by-line with ``# fenlint:
disable=<rule>``; the gate is zero findings.

Entry points: ``repro lint`` and ``python -m repro.lint``. See
``docs/static-analysis.md`` for the rule catalog and operator guide.
"""

from .base import ALL_RULES, CrossFileRule, Rule, SourceFile, all_rules, register
from .engine import LintResult, lint_files, lint_paths
from .findings import Finding
from .report import render_github, render_json, render_text

__all__ = [
    "ALL_RULES",
    "CrossFileRule",
    "Finding",
    "LintResult",
    "Rule",
    "SourceFile",
    "all_rules",
    "lint_files",
    "lint_paths",
    "register",
    "render_github",
    "render_json",
    "render_text",
]
