"""Model evaluation: overall / per-label accuracy, label-accuracy spread,
group recall, and backdoor success rate."""

from __future__ import annotations

from dataclasses import dataclass

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
