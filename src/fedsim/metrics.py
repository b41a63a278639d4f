"""Model evaluation: overall / per-label accuracy, label-accuracy spread,
group recall, and backdoor success rate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedsim import model
from fedsim.data import Dataset
from fedsim.fedval import _recall, mad
from fedsim.model import MlpSpec


@dataclass
class MetricRecord:
    """One evaluation snapshot; the CSV/JSON output schema mirrors these fields."""

    round: int
    overall_accuracy: float
    per_label_accuracy: list[float]
    label_accuracy_mad: float
    mean_validation_loss: float
    per_group_recall: dict[int, float] | None = None
    backdoor_accuracy: float | None = None

    FIELDS = (
        "round",
        "overall_accuracy",
        "per_label_accuracy",
        "label_accuracy_mad",
        "mean_validation_loss",
        "per_group_recall",
        "backdoor_accuracy",
    )


def evaluate(
    params: np.ndarray,
    spec: MlpSpec,
    test: Dataset,
    backdoor: tuple[int, int] | None = None,
    round_index: int = 0,
    validation_loss: float = float("nan"),
) -> MetricRecord:
    """Evaluate a model on a test set that covers every label.

    backdoor, when given as (source, target), reports the fraction of
    source-label samples predicted as the target label.
    """
    losses, preds = model.eval_losses(params, spec, test)
    labels = test.labels
    k = spec.num_classes
    per_label = []
    for c in range(k):
        sel = labels == c
        if not sel.any():
            raise ValueError(f"test set has no samples of label {c}")
        per_label.append(float((preds[sel] == c).mean()))

    backdoor_accuracy = None
    if backdoor is not None:
        source, target = backdoor
        sel = labels == source
        if not sel.any():
            raise ValueError(f"test set has no samples of backdoor source label {source}")
        backdoor_accuracy = float((preds[sel] == target).mean())

    recall = None
    if test.group_ids is not None:
        # Groups whose recall is undefined (no positive sample) are left out.
        recall = {}
        for g in np.unique(test.group_ids):
            sel = test.group_ids == g
            value = _recall(labels[sel], preds[sel], k)
            if value is not None:
                recall[int(g)] = value
        recall = recall or None

    return MetricRecord(
        round=round_index,
        overall_accuracy=float((preds == labels).mean()),
        per_label_accuracy=per_label,
        label_accuracy_mad=mad(per_label),
        mean_validation_loss=validation_loss,
        per_group_recall=recall,
        backdoor_accuracy=backdoor_accuracy,
    )


def summarize(records: list[MetricRecord], window: int) -> dict[str, object]:
    """Arithmetic means of each metric over the trailing `window` records."""
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > len(records):
        raise ValueError(f"window {window} exceeds {len(records)} records")
    tail = records[-window:]
    out: dict[str, object] = {
        "overall_accuracy": float(np.mean([r.overall_accuracy for r in tail])),
        "per_label_accuracy": np.mean([r.per_label_accuracy for r in tail], axis=0).tolist(),
        "label_accuracy_mad": float(np.mean([r.label_accuracy_mad for r in tail])),
        "mean_validation_loss": float(np.mean([r.mean_validation_loss for r in tail])),
    }
    if all(r.backdoor_accuracy is not None for r in tail):
        out["backdoor_accuracy"] = float(np.mean([r.backdoor_accuracy for r in tail]))
    if all(r.per_group_recall for r in tail):
        keys = set(tail[0].per_group_recall)
        for r in tail:
            keys &= set(r.per_group_recall)
        out["per_group_recall"] = {
            g: float(np.mean([r.per_group_recall[g] for r in tail])) for g in sorted(keys)
        }
    return out
