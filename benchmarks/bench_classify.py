"""Route-change cause classification: macro-F1 and latency envelope.

``repro.classify`` labels detected mode transitions — ``drain``,
``traffic-engineering``, ``third-party-flap``, ``cable-cut`` — from a
byte-deterministic feature vector and a dependency-free seeded
decision forest (docs/classification.md). This bench demonstrates the
full contract:

* **Determinism**: training twice from the same dataset and seed
  yields byte-identical model artifacts (``canonical_json``), and two
  builds of the same study yield the same dataset digest.
* **Accuracy**: the model trained on the train study (seed 1103)
  scores macro-F1 >= 0.9 on the *held-out* eval study (seed 2207 — a
  different topology, fleet, and event placement), against the
  ground-truth labels the generator scripted.
* **Latency**: the serve tier's wire-shaped classify path — raw
  ``{network: state}`` rounds through ``featurize_mappings`` plus a
  forest ``predict`` — timed per call; p50/p99 land in
  ``BENCH_classify.json`` and CI's bench-delta gate fails the PR if
  p99 regresses past ``--max-latency-rise``.

Human-readable results go to ``benchmarks/out/classify.txt``; the
machine-readable trajectory goes to ``BENCH_classify.json`` at the
repo root (uploaded as a CI artifact).

Run directly: ``PYTHONPATH=src python benchmarks/bench_classify.py``
(``--quick`` for smaller smoke studies; CI runs full mode, the mode
of the committed ``BENCH_classify.json``).
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.classify import evaluate, featurize_mappings, train_forest
from repro.classify.dataset import (
    FULL_EVAL,
    FULL_TRAIN,
    QUICK_EVAL,
    QUICK_TRAIN,
    build_dataset,
)

from common import emit, write_bench_json

SEED = 7

#: Acceptance floor on the held-out study (the PR's headline claim).
MIN_MACRO_F1 = 0.9

#: Wire-path latency sample size: enough calls that p99 is a real
#: tail, small enough that a run stays in seconds.
LATENCY_CALLS = 2000


def _percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def run(quick: bool = False) -> dict:
    train_config = QUICK_TRAIN if quick else FULL_TRAIN
    eval_config = QUICK_EVAL if quick else FULL_EVAL

    t0 = time.perf_counter()
    train = build_dataset(train_config)
    eval_set = build_dataset(eval_config)
    build_seconds = time.perf_counter() - t0

    # Determinism: same config -> same dataset bytes; same dataset +
    # seed -> same model bytes. Both are what make the CI gate and the
    # committed artifact meaningful.
    assert train.digest() == build_dataset(train_config).digest(), (
        "dataset build is not deterministic"
    )
    t0 = time.perf_counter()
    model = train_forest(train.features, list(train.labels), seed=SEED)
    train_seconds = time.perf_counter() - t0
    retrained = train_forest(train.features, list(train.labels), seed=SEED)
    assert model.canonical_json() == retrained.canonical_json(), (
        "training is not byte-deterministic"
    )

    report = evaluate(model, eval_set.features, list(eval_set.labels))
    macro = report["macro_f1"]

    # Wire-shaped classify path: raw state mappings -> features ->
    # label, exactly what the serve tier does per request/transition.
    samples = eval_set.sample_transitions or train.sample_transitions
    assert samples, "dataset carried no sample transitions"
    durations_ms: list[float] = []
    for index in range(LATENCY_CALLS):
        before, after = samples[index % len(samples)]
        started = time.perf_counter()
        features = featurize_mappings(before, after)
        model.predict(features)
        durations_ms.append((time.perf_counter() - started) * 1000.0)
    p50 = _percentile(durations_ms, 50)
    p99 = _percentile(durations_ms, 99)

    lines = [
        f"mode: {'quick' if quick else 'full'}",
        f"train study: seed {train_config.seed}, {len(train.labels)} events "
        f"({', '.join(f'{k}={v}' for k, v in train.counts().items())})",
        f"eval study:  seed {eval_config.seed}, {len(eval_set.labels)} events",
        f"dataset build: {build_seconds:.1f}s  train: {train_seconds:.2f}s",
        f"model: {len(model.trees)} trees, sha256 {model.content_digest()[:16]}",
        "",
        f"held-out macro-F1: {macro:.3f}  accuracy: {report['accuracy']:.3f}",
    ]
    for label, stats in report["per_label"].items():
        lines.append(
            f"  {label:<22} precision {stats['precision']:.3f}  "
            f"recall {stats['recall']:.3f}  f1 {stats['f1']:.3f}"
        )
    lines += [
        "",
        f"classify latency ({LATENCY_CALLS} wire-shaped calls, "
        f"{len(samples[0][0])} networks):",
        f"  p50 {p50:.3f} ms   p99 {p99:.3f} ms",
    ]
    emit("classify", "\n".join(lines))

    metrics = {
        "mode": "quick" if quick else "full",
        "macro_f1": {"holdout": round(macro, 6)},
        "accuracy": {"holdout": round(report["accuracy"], 6)},
        "classify_latency_ms": {"p50": round(p50, 4), "p99": round(p99, 4)},
        "train_events": len(train.labels),
        "eval_events": len(eval_set.labels),
        "model_sha256": model.content_digest(),
        "dataset_sha256": {"train": train.digest(), "eval": eval_set.digest()},
    }
    write_bench_json("classify", metrics)

    assert macro >= MIN_MACRO_F1, (
        f"held-out macro-F1 {macro:.3f} below the {MIN_MACRO_F1} floor"
    )
    return metrics


def test_classify_accuracy() -> None:
    run(quick=False)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke variant: smaller train/eval studies",
    )
    arguments = parser.parse_args()
    run(quick=arguments.quick)
