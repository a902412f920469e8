"""Unit tests for the bench-delta gate (benchmarks/check_regression.py).

The script is loaded by file path (benchmarks/ is not a package) and
driven through ``main(argv)``. Every shared rule is covered on the vps
and classify suites: improvements pass, vanished rows fail, drops
beyond ``--max-drop`` and rises beyond ``--max-latency-rise`` fail, a
missing baseline is tolerated with the suite-specific refresh hint,
and a baseline without its candidate (or no suite at all) errors, as
does a baseline/candidate pair recorded in different modes.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
)
check_regression = importlib.util.module_from_spec(spec)
assert spec.loader is not None
# @dataclass resolves its field types via sys.modules[cls.__module__],
# so the module must be registered before exec.
sys.modules[spec.name] = check_regression
spec.loader.exec_module(check_regression)


VPS_DOC = {
    "ingest_rounds_per_second": {"dedup": 70000.0, "full": 27000.0}
}
CLASSIFY_DOC = {
    "macro_f1": {"holdout": 0.95},
    "classify_latency_ms": {"p50": 0.4, "p99": 1.2},
}


def write(path: Path, document: dict) -> Path:
    path.write_text(json.dumps(document))
    return path


def vps_argv(tmp_path, candidate_doc, extra=()):
    baseline = write(tmp_path / "vps_baseline.json", VPS_DOC)
    candidate = write(tmp_path / "vps_candidate.json", candidate_doc)
    return [
        "--vps-baseline", str(baseline),
        "--vps-candidate", str(candidate),
        *extra,
    ]


class TestVpsSuite:
    def test_identical_documents_pass(self, tmp_path):
        assert check_regression.main(vps_argv(tmp_path, VPS_DOC)) == 0

    def test_throughput_improvement_passes(self, tmp_path):
        faster = {"ingest_rounds_per_second": {"dedup": 90000.0, "full": 40000.0}}
        assert check_regression.main(vps_argv(tmp_path, faster)) == 0

    def test_throughput_drop_fails(self, tmp_path, capsys):
        slower = {"ingest_rounds_per_second": {"dedup": 70000.0, "full": 12000.0}}
        argv = vps_argv(tmp_path, slower, ["--max-drop", "0.40"])
        assert check_regression.main(argv) == 1
        assert "git add BENCH_vps.json" in capsys.readouterr().err

    def test_drop_within_max_drop_passes(self, tmp_path):
        slower = {"ingest_rounds_per_second": {"dedup": 70000.0, "full": 20000.0}}
        argv = vps_argv(tmp_path, slower, ["--max-drop", "0.40"])
        assert check_regression.main(argv) == 0

    def test_vanished_row_fails(self, tmp_path):
        partial = {"ingest_rounds_per_second": {"dedup": 70000.0}}
        assert check_regression.main(vps_argv(tmp_path, partial)) == 1

    def test_candidate_without_the_section_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            check_regression.main(vps_argv(tmp_path, {}))


class TestModeMismatch:
    @pytest.mark.parametrize(
        "baseline_mode, candidate_mode",
        [("full", "quick"), ("quick", "full"), ("full", None)],
    )
    def test_runs_of_different_modes_are_refused(
        self, tmp_path, baseline_mode, candidate_mode
    ):
        baseline = {**VPS_DOC, "mode": baseline_mode}
        candidate = {**VPS_DOC}
        if candidate_mode is not None:
            candidate["mode"] = candidate_mode
        argv = [
            "--vps-baseline", str(write(tmp_path / "baseline.json", baseline)),
            "--vps-candidate", str(write(tmp_path / "candidate.json", candidate)),
        ]
        with pytest.raises(SystemExit) as exit_info:
            check_regression.main(argv)
        assert exit_info.value.code not in (0, None)
        assert "error: mode mismatch" in str(exit_info.value.code)

    def test_runs_of_the_same_mode_are_compared(self, tmp_path):
        document = {**CLASSIFY_DOC, "mode": "quick"}
        argv = [
            "--classify-baseline", str(write(tmp_path / "b.json", document)),
            "--classify-candidate", str(write(tmp_path / "c.json", document)),
        ]
        assert check_regression.main(argv) == 0


def test_no_suite_is_an_error():
    with pytest.raises(SystemExit):
        check_regression.main(["--max-drop", "0.40"])


class TestOptionalBaselines:
    def test_missing_classify_baseline_tolerated_with_hint(self, tmp_path, capsys):
        candidate = write(tmp_path / "classify.json", CLASSIFY_DOC)
        argv = [
            "--classify-baseline", str(tmp_path / "absent.json"),
            "--classify-candidate", str(candidate),
        ]
        assert check_regression.main(argv) == 0
        out = capsys.readouterr().out
        assert "does not exist; skipping" in out
        assert "python benchmarks/bench_classify.py\n" in out
        assert "git add BENCH_classify.json" in out

    def test_missing_vps_baseline_gets_vps_hint(self, tmp_path, capsys):
        candidate = write(tmp_path / "vps.json", VPS_DOC)
        argv = [
            "--vps-baseline", str(tmp_path / "absent.json"),
            "--vps-candidate", str(candidate),
        ]
        assert check_regression.main(argv) == 0
        out = capsys.readouterr().out
        assert "python benchmarks/bench_vps.py\n" in out
        assert "git add BENCH_vps.json" in out

    def test_baseline_without_candidate_flag_exits(self, tmp_path):
        baseline = write(tmp_path / "classify.json", CLASSIFY_DOC)
        argv = ["--classify-baseline", str(baseline)]
        with pytest.raises(SystemExit):
            check_regression.main(argv)


class TestClassifySuite:
    def run(self, tmp_path, candidate_doc, extra=()):
        baseline = write(tmp_path / "classify_baseline.json", CLASSIFY_DOC)
        candidate = write(tmp_path / "classify_candidate.json", candidate_doc)
        argv = [
            "--classify-baseline", str(baseline),
            "--classify-candidate", str(candidate),
            *extra,
        ]
        return check_regression.main(argv)

    def test_identical_pass(self, tmp_path):
        assert self.run(tmp_path, CLASSIFY_DOC) == 0

    def test_macro_f1_drop_fails(self, tmp_path):
        worse = {**CLASSIFY_DOC, "macro_f1": {"holdout": 0.5}}
        assert self.run(tmp_path, worse) == 1

    def test_latency_rise_fails(self, tmp_path):
        worse = {
            **CLASSIFY_DOC,
            "classify_latency_ms": {"p50": 0.4, "p99": 5.0},
        }
        assert self.run(tmp_path, worse, ["--max-latency-rise", "2.0"]) == 1

    def test_latency_rise_within_limit_passes(self, tmp_path):
        slower = {
            **CLASSIFY_DOC,
            "classify_latency_ms": {"p50": 0.8, "p99": 3.0},
        }
        assert self.run(tmp_path, slower, ["--max-latency-rise", "2.0"]) == 0

    def test_latency_improvement_passes(self, tmp_path):
        better = {
            **CLASSIFY_DOC,
            "macro_f1": {"holdout": 1.0},
            "classify_latency_ms": {"p50": 0.1, "p99": 0.2},
        }
        assert self.run(tmp_path, better) == 0

    def test_both_suites_in_one_run(self, tmp_path):
        argv = vps_argv(tmp_path, VPS_DOC)
        assert self.run(tmp_path, CLASSIFY_DOC, argv) == 0
