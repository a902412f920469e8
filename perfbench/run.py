"""Fenrir's benchmark: three workloads over the paper pipeline and the serve tier.

Run from the root of a checkout::

    python3 perfbench/run.py --workload broot-daily --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --list      # every metric by name and unit

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that reports its per-layer metrics.
Fenrir's own span tracing (``REPRO_OBS``) is off in both, in this
process and in every server it starts. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric by name and unit. Each run also writes
``perfbench/results/<workload>-seed<N>-trace<T>.json`` with every
repeat's samples, their median and quartiles, the sizes, the load shape,
any failed checks, and the environment (git sha or source digest,
Python, numpy, nproc).
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _environment() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    from measure import source_digest

    return {
        "git_sha": sha,
        "src_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric and exit")
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    import spec

    if args.list:
        print(spec.describe())
        return 0
    if args.workload not in spec.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(spec.WORKLOADS)}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no Fenrir sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["REPRO_OBS"] = "0"  # read when repro.obs is first imported

    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload in spec.PIPELINE_WORKLOADS:
            import pipeline

            outcome = pipeline.run(
                args.workload, args.seed, args.seconds, bool(args.trace), STARTED, ROOT
            )
        else:
            import serve

            outcome = serve.run(
                args.workload, args.seed, args.seconds, bool(args.trace), STARTED,
                ROOT, work,
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = {
        metric.name: {"value": float(outcome.metrics.get(metric.name, 0.0)),
                      "unit": metric.unit}
        for metric in wanted
    }
    correct = outcome.failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": outcome.failed / max(outcome.attempted, 1),
        "problems": outcome.problems,
        "metrics": metrics,
        "samples": outcome.samples,
        "notes": outcome.notes,
        "environment": _environment(),
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    for problem in outcome.problems:
        print(f"check failed: {problem}")
    print(f"{args.workload} seed={args.seed} attempted={outcome.attempted} "
          f"failed={outcome.failed} error_rate={record['error_rate']:.6f}")
    for metric_name, metric in metrics.items():
        print(f"  {metric_name:<27} {metric['value']:>14.6f} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
