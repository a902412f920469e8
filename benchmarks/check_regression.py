"""Compare committed vs fresh bench JSON and fail on regression.

Usage::

    python benchmarks/check_regression.py \
        [--vps-baseline BENCH_vps.json --vps-candidate fresh_vps.json] \
        [--classify-baseline BENCH_classify.json \
         --classify-candidate fresh_classify.json] \
        [--max-drop 0.40] [--max-latency-rise 2.0]

Each benchmark is a *suite*: a baseline/candidate document pair plus
the sections to compare row by row; at least one suite is required.
The vps suite gates the fixed ``ingest_rounds_per_second``
micro-bench; the classify suite gates held-out ``macro_f1`` (a drop is
the regression) and ``classify_latency_ms`` (a p99 rise is the
regression). The serve tier's benchmark is perfbench's
``mixed-routed`` workload (``BENCHMARK.json``), judged by alternating
runs against the parent rather than by one run against a file.

Shared rules: improvements and new rows never fail; a row that
vanished from the candidate does, because silently losing a
measurement is how regressions hide. Throughput/score sections fail on
a drop beyond ``--max-drop``; latency sections fail on a *rise* beyond
``--max-latency-rise`` (far more generous, because tail latency on a
shared runner is the noisiest number this harness records).

A baseline and a candidate must record the same ``mode`` (``quick``
or ``full``): the two modes run studies of different sizes (classify
trains and scores on different events), so a row is compared only
with a row of the same mode, and a mismatched pair is refused with
``error: mode mismatch`` and a non-zero exit.

Both suites tolerate a missing *baseline* file with a notice and a
refresh hint — the first PR that ships a bench has no committed
baseline to compare against — but once a baseline exists, a missing
or section-less candidate fails.

The generous default threshold is deliberate: CI runners are noisy
shared machines, and this gate exists to catch "someone serialized the
hot path", not a 5% wobble. Tighten it locally on quiet hardware.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

def refresh_hint(name: str) -> str:
    """How to refresh the committed baseline of suite ``name``."""
    return (
        f"If the {name} baseline is missing or stale, refresh it:\n\n"
        f"    PYTHONPATH=src python benchmarks/bench_{name}.py\n"
        f"    git add BENCH_{name}.json"
    )


def load_document(path: Path, hint: str | None = None) -> dict | None:
    """The JSON document at ``path``; None if it is missing and ``hint`` is given."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        if hint is not None:
            print(
                f"notice: {path} does not exist; skipping its comparison.\n"
                f"{hint}"
            )
            return None
        sys.exit(f"error: {path} does not exist")
    except json.JSONDecodeError as exc:
        sys.exit(f"error: {path} is not valid JSON: {exc}")
    return document


def extract_section(document: dict, path: Path, section: str, required: bool):
    throughput = document.get(section)
    if not isinstance(throughput, dict) or not throughput:
        if required:
            sys.exit(f"error: {path} has no {section} section")
        return None
    return {str(key): float(value) for key, value in throughput.items()}


def compare_section(
    label: str,
    baseline: dict[str, float],
    candidate: dict[str, float] | None,
    limit: float,
    failures: list[str],
    higher_is_better: bool = True,
    unit: str = "rounds/s",
) -> None:
    """Row-by-row delta check; direction of "worse" is configurable.

    Throughput sections fail on a drop beyond ``limit``; latency
    sections (``higher_is_better=False``) fail on a *rise* beyond it.
    """
    if candidate is None:
        failures.append(
            f"{label}: section present in baseline but missing from candidate"
        )
        return
    for key in sorted(baseline):
        before = baseline[key]
        after = candidate.get(key)
        if after is None:
            failures.append(
                f"{label} {key}: present in baseline ({before:.1f} {unit}) "
                "but missing from candidate"
            )
            continue
        change = (after - before) / before if before else 0.0
        worse = change < -limit if higher_is_better else change > limit
        marker = "OK"
        if worse:
            marker = "FAIL"
            sign = "-" if higher_is_better else "+"
            failures.append(
                f"{label} {key}: {before:.1f} -> {after:.1f} {unit} "
                f"({change:+.1%}, limit {sign}{limit:.0%})"
            )
        print(
            f"[{marker:>4}] {label} {key:>12}: baseline {before:>9.1f}  "
            f"candidate {after:>9.1f}  ({change:+.1%})"
        )


@dataclass(frozen=True)
class SectionSpec:
    """One comparable section of a bench document."""

    label: str
    section: str
    required: bool = False  # hard-exit if the baseline lacks it
    higher_is_better: bool = True
    unit: str = "rounds/s"
    gate: str = "drop"  # "drop" -> --max-drop, "rise" -> --max-latency-rise


#: What each bench suite compares, keyed by its flag prefix
#: (``--<name>-baseline``/``--<name>-candidate``) and by the
#: ``benchmarks/bench_<name>.py`` that writes its ``BENCH_<name>.json``.
SUITES = {
    "vps": (SectionSpec("vps", "ingest_rounds_per_second", required=True),),
    "classify": (
        SectionSpec("classify-f1", "macro_f1", required=True, unit="macro-F1"),
        SectionSpec(
            "classify-latency",
            "classify_latency_ms",
            higher_is_better=False,
            unit="ms",
            gate="rise",
        ),
    ),
}


def compare_suite(
    name: str,
    baseline_path: Path,
    candidate_path: Path | None,
    limits: dict[str, float],
    failures: list[str],
) -> None:
    """Load one baseline/candidate pair and compare its sections.

    A missing baseline file prints the suite's refresh hint and skips
    the comparison entirely; once the baseline loads, the candidate is
    mandatory.
    """
    baseline_doc = load_document(baseline_path, hint=refresh_hint(name))
    if baseline_doc is None:
        return
    if candidate_path is None:
        sys.exit(f"error: --{name}-baseline given without --{name}-candidate")
    candidate_doc = load_document(candidate_path)
    baseline_mode, candidate_mode = baseline_doc.get("mode"), candidate_doc.get("mode")
    if baseline_mode != candidate_mode:
        sys.exit(
            f"error: mode mismatch: {baseline_path} is a {baseline_mode!r} run "
            f"and {candidate_path} a {candidate_mode!r} run; compare runs of "
            "the same mode"
        )
    for spec in SUITES[name]:
        baseline = extract_section(
            baseline_doc, baseline_path, spec.section, required=spec.required
        )
        if baseline is None:
            continue
        candidate = extract_section(
            candidate_doc, candidate_path, spec.section, required=spec.required
        )
        compare_section(
            spec.label,
            baseline,
            candidate,
            limits[spec.gate],
            failures,
            higher_is_better=spec.higher_is_better,
            unit=spec.unit,
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in SUITES:
        parser.add_argument(
            f"--{name}-baseline",
            type=Path,
            default=None,
            help=f"committed BENCH_{name}.json (missing file tolerated)",
        )
        parser.add_argument(
            f"--{name}-candidate",
            type=Path,
            default=None,
            help=f"freshly measured BENCH_{name}.json",
        )
    parser.add_argument(
        "--max-drop",
        type=float,
        default=0.40,
        help="fractional throughput/score drop that fails (default 0.40 = 40%%)",
    )
    parser.add_argument(
        "--max-latency-rise",
        type=float,
        default=2.0,
        help=(
            "fractional p99 latency rise that fails (default 2.0 = a "
            "tripling); tail latency is the suite's noisiest number"
        ),
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.max_drop < 1.0:
        parser.error("--max-drop must be a fraction in (0, 1)")
    if args.max_latency_rise <= 0.0:
        parser.error("--max-latency-rise must be positive")
    suites = [name for name in SUITES if getattr(args, f"{name}_baseline")]
    if not suites:
        flags = ", ".join(f"--{name}-baseline" for name in SUITES)
        parser.error(f"give at least one suite: {flags}")
    limits = {"drop": args.max_drop, "rise": args.max_latency_rise}

    failures: list[str] = []
    hints: list[str] = []
    for name in suites:
        before = len(failures)
        compare_suite(
            name,
            getattr(args, f"{name}_baseline"),
            getattr(args, f"{name}_candidate"),
            limits,
            failures,
        )
        if len(failures) > before:
            hints.append(refresh_hint(name))

    if failures:
        print("\nbench regression detected:", file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        for hint in hints:
            print(f"\n{hint}", file=sys.stderr)
        return 1
    print("no bench regression beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
