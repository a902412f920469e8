"""Route-change cause classification (TRACE-style, arxiv 2604.02361).

Fenrir detects *that* a mode transition happened; this package labels
*why*: ``drain``, ``traffic-engineering``, ``third-party-flap`` or
``cable-cut``. Three pieces:

* :mod:`.features` — a fixed-width, byte-deterministic feature vector
  per transition;
* :mod:`.model` — a dependency-free seeded decision forest with a
  versioned, exactly-round-tripping JSON artifact;
* :mod:`.dataset` — labeled transitions replayed from the
  ground-truth study generator, for training and evaluation. It pulls
  in the simulators, so it is not re-exported here: import it as
  ``repro.classify.dataset``, and the serve tier (which only scores
  features with a loaded model) never loads it.

The serve tier exposes the model behind the ``classify`` wire command
(docs/serving.md) and can stream labeled events on mode transitions;
``repro classify train/eval/show`` covers the offline workflow
(docs/classification.md).
"""

from .features import (
    FEATURE_NAMES,
    FEATURE_WIDTH,
    feature_bytes,
    features_digest,
    featurize,
    featurize_mappings,
)
from .model import (
    LABELS,
    MODEL_TYPE,
    MODEL_VERSION,
    ClassifierModel,
    ModelError,
    dataset_digest,
    evaluate,
    evaluate_predictions,
    macro_f1,
    train_forest,
)

__all__ = [
    "FEATURE_NAMES",
    "FEATURE_WIDTH",
    "feature_bytes",
    "features_digest",
    "featurize",
    "featurize_mappings",
    "LABELS",
    "MODEL_TYPE",
    "MODEL_VERSION",
    "ClassifierModel",
    "ModelError",
    "dataset_digest",
    "evaluate",
    "evaluate_predictions",
    "macro_f1",
    "train_forest",
]
