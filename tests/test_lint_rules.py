"""fenlint: golden-fixture rule tests plus framework behavior.

Each rule has a paired bad/good fixture under ``tests/lint_fixtures/``.
Expected finding lines are the fixture lines tagged ``# [bad]`` — the
table test asserts the *exact* (rule, line) set so a rule that drifts
(extra findings, missed findings, off-by-one anchors) fails loudly.
Scoped rules get their fixtures under matching path segments
(``serve/``, ``core/``) because scoping matches directory parts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    all_rules,
    lint_paths,
    render_github,
    render_json,
)
from repro.lint.cli import main as lint_main
from repro.lint.engine import PARSE_ERROR_RULE, lint_files

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent

BAD_MARKER = "# [bad]"


def marker_lines(fixture: Path) -> set[int]:
    return {
        lineno
        for lineno, text in enumerate(
            fixture.read_text(encoding="utf-8").splitlines(), start=1
        )
        if BAD_MARKER in text
    }


def run_rule(rule: str, *relpaths: str, root: Path = FIXTURES):
    return lint_paths(list(relpaths), root=root, select=[rule])


RULE_FIXTURES = [
    ("blocking-io-in-async", "serve/async_bad.py", "serve/async_good.py"),
    ("journal-durability", "serve/durability_bad.py", "serve/durability_good.py"),
    (
        "journal-durability",
        "flow_bad/serve/durability_flow_bad.py",
        "flow_good/serve/durability_flow_good.py",
    ),
    (
        "async-interleaving-race",
        "flow_bad/serve/interleaving_bad.py",
        "flow_good/serve/interleaving_good.py",
    ),
    (
        "lock-discipline",
        "flow_bad/serve/locks_bad.py",
        "flow_good/serve/locks_good.py",
    ),
    (
        "unmapped-exception-flow",
        "flow_bad/serve/exception_flow_bad.py",
        "flow_good/serve/exception_flow_good.py",
    ),
    ("nondeterminism", "core/determinism_bad.py", "core/determinism_good.py"),
    ("swallowed-exception", "swallow_bad.py", "swallow_good.py"),
    ("float-similarity-compare", "floats_bad.py", "floats_good.py"),
    ("metric-naming", "metrics_bad.py", "metrics_good.py"),
    ("unguarded-span", "spans_bad.py", "spans_good.py"),
]


@pytest.mark.parametrize("rule,bad,good", RULE_FIXTURES)
def test_bad_fixture_exact_findings(rule, bad, good):
    expected = marker_lines(FIXTURES / bad)
    assert expected, f"fixture {bad} has no {BAD_MARKER} markers"
    result = run_rule(rule, bad)
    found = {(f.rule, f.line) for f in result.findings}
    assert found == {(rule, line) for line in sorted(expected)}


@pytest.mark.parametrize("rule,bad,good", RULE_FIXTURES)
def test_good_fixture_is_clean(rule, bad, good):
    result = run_rule(rule, good)
    assert result.findings == []
    assert result.exit_code == 0


def test_every_rule_has_a_fixture_pair():
    covered = {rule for rule, _, _ in RULE_FIXTURES}
    assert {r.name for r in all_rules()} == covered


# -- cross-file rules ---------------------------------------------------------


def test_metric_kind_clash_across_files():
    result = run_rule("metric-naming", "kinds/first.py", "kinds/second.py")
    assert {(f.rule, f.path, f.line) for f in result.findings} == {
        ("metric-naming", "kinds/second.py", 5)
    }
    (finding,) = result.findings
    assert "histogram" in finding.message and "gauge" in finding.message


# -- suppressions -------------------------------------------------------------


def test_suppressions_trailing_above_and_wildcard():
    result = run_rule("swallowed-exception", "suppressed.py")
    assert result.suppressed == 3
    assert {(f.rule, f.line) for f in result.findings} == {
        ("swallowed-exception", line)
        for line in marker_lines(FIXTURES / "suppressed.py")
    }


# -- determinism of output ----------------------------------------------------


def test_json_report_is_deterministic_across_runs():
    first = render_json(run_rule("swallowed-exception", "swallow_bad.py"))
    second = render_json(run_rule("swallowed-exception", "swallow_bad.py"))
    assert first == second
    document = json.loads(first)
    assert document["version"] == 1
    assert [f["line"] for f in document["findings"]] == sorted(
        f["line"] for f in document["findings"]
    )


# -- GitHub annotations (what the CI gate consumes) ---------------------------


def test_github_format_emits_error_commands_for_seeded_violation():
    result = run_rule("swallowed-exception", "swallow_bad.py")
    output = render_github(result)
    lines = output.splitlines()
    errors = [line for line in lines if line.startswith("::error ")]
    assert len(errors) == 3
    for line in errors:
        assert "file=swallow_bad.py" in line
        assert "title=fenlint(swallowed-exception)" in line
    assert lines[-1].startswith("fenlint: 3 finding(s)")


def test_github_format_escapes_workflow_command_data():
    result = run_rule("swallowed-exception", "swallow_bad.py")
    finding = result.findings[0]
    hacked = finding.__class__(
        path=finding.path,
        line=finding.line,
        col=finding.col,
        rule=finding.rule,
        message="evil %0A\r\ninjection",
        context=finding.context,
    )
    result.findings[0] = hacked
    output = render_github(result)
    assert "evil %250A%0D%0Ainjection" in output
    assert "\r" not in output.split("::error ", 1)[1].splitlines()[0]


# -- parse errors -------------------------------------------------------------


def test_unparseable_file_reports_parse_error(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def half(:\n", encoding="utf-8")
    result = lint_files([broken], root=tmp_path)
    assert [f.rule for f in result.findings] == [PARSE_ERROR_RULE]
    assert result.exit_code == 1


# -- CLI ----------------------------------------------------------------------


def test_cli_exit_codes_and_report_artifact(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = lint_main(
        [
            "swallow_bad.py",
            "--root",
            str(FIXTURES),
            "--select",
            "swallowed-exception",
            "--format",
            "github",
            "--report",
            str(report),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert out.count("::error ") == 3
    document = json.loads(report.read_text(encoding="utf-8"))
    assert len(document["findings"]) == 3

    assert (
        lint_main(
            [
                "swallow_good.py",
                "--root",
                str(FIXTURES),
                "--select",
                "swallowed-exception",
            ]
        )
        == 0
    )
    capsys.readouterr()


def test_cli_removed_flags_are_usage_errors(capsys):
    # No baseline, no changed-files mode: each is an unknown flag.
    for flags in (["--baseline", "x.json"], ["--write-baseline"], ["--changed"]):
        with pytest.raises(SystemExit) as exc_info:
            lint_main(["swallow_bad.py", "--root", str(FIXTURES), *flags])
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_time_budget_flag(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
    argv = [str(tmp_path), "--root", str(tmp_path)]
    assert lint_main([*argv, "--time-budget", "600"]) == 0
    assert "budget 600s" in capsys.readouterr().err
    assert lint_main([*argv, "--time-budget", "0"]) == 2
    assert "budget exceeded" in capsys.readouterr().err


# -- the repo itself ----------------------------------------------------------


def test_committed_baseline_is_empty():
    """No grandfathered findings: the repo commits no baseline file and
    CI runs fenlint over ``src`` with nothing to absorb findings."""
    assert not (REPO_ROOT / "fenlint-baseline.json").exists()
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8"
    )
    assert "python -m repro.lint src" in workflow
    assert "fenlint-baseline" not in workflow
    assert "--baseline" not in workflow


def test_src_tree_is_fenlint_clean():
    """``repro lint src/`` must report zero findings."""
    result = lint_paths(["src"], root=REPO_ROOT)
    rendered = "\n".join(
        f"{f.path}:{f.line}: {f.rule}: {f.message}" for f in result.findings
    )
    assert result.findings == [], f"fenlint findings in src:\n{rendered}"


def test_module_entry_point_runs():
    completed = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0
    assert "journal-durability" in completed.stdout
