"""Model evaluation: overall / per-label accuracy, label-accuracy spread,
group recall, and backdoor success rate."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from fedsim import fedval, model
from fedsim.data import ValidationSet
from fedsim.fedval import mad
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

    FIELDS: ClassVar[tuple[str, ...]]  # the field names in order: metrics.csv's columns


MetricRecord.FIELDS = tuple(f.name for f in fields(MetricRecord))


def evaluate(
    params: np.ndarray,
    spec: MlpSpec,
    test: ValidationSet,
    backdoor: tuple[int, int] | None = None,
    round_index: int = 0,
    validation_loss: float = float("nan"),
) -> MetricRecord:
    """Evaluate a model on a test holdout, sliced by label and group as
    `fedval.compute_report` slices its holdout. The holdout holds every
    label (a `ValidationSet` is refused without one), so every per-label
    accuracy is defined.

    backdoor, when given as (source, target), reports the fraction of
    source-label samples predicted as the target label.
    """
    _, preds = model.eval_losses(params, spec, test.data, predict=True)
    hits = preds == test.labels
    per_label = test.label_means(hits).tolist()

    backdoor_accuracy = None
    if backdoor is not None:
        source, target = backdoor
        backdoor_accuracy = float((preds[test.label_indices[source]] == target).mean())

    # Groups whose recall is undefined (no positive sample) are left out.
    recalls = fedval.group_recalls(test, preds[None], spec.num_classes)
    recall = {g: float(r[0]) for g, r in recalls.items() if r is not None}

    return MetricRecord(
        round=round_index,
        overall_accuracy=float(hits.mean()),
        per_label_accuracy=per_label,
        label_accuracy_mad=mad(per_label),
        mean_validation_loss=validation_loss,
        per_group_recall=recall or None,
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
