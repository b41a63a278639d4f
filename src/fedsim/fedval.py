"""Validation-score aggregation: per-client scoring on a server-side
validation set and score-weighted delta averaging.

Each scoring dimension (one per label, one for overall loss, optionally one
per demographic group on recall) contributes a slope term proportional to
how far the client sits from the cross-client mean on that dimension,
scaled by the dimension's mean absolute deviation, plus a constant baseline
so average clients keep a positive weight. Dimensions where the whole
cohort lags the model's average performance get boosted by a bias-reducer
exponent; negative totals clamp to zero so ruined models are excluded.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from fedsim import model
from fedsim.data import ValidationSet
from fedsim.errors import ConfigurationError
from fedsim.model import MlpSpec

log = logging.getLogger(__name__)

# Dimensions with MAD below this contribute only their baseline term;
# dividing by a near-zero MAD would amplify numerical noise into the score.
MAD_EPS = 1e-9

# Floor for mean group recall in the bias-reducer denominator.
RECALL_FLOOR = 1e-3

# Lowest bias-reducer exponent: the config's s2 and every exponent the
# search tries stay at or above it.
S2_MIN = 0.5


@dataclass(frozen=True)
class ScoreParams:
    """Scoring hyperparameters.

    s1_label / s1_avg scale the per-label and overall slope terms, s2 is the
    (adaptive) bias-reducer exponent, s2_recall its static counterpart for
    recall dimensions, and baseline_c sets the constant score every client
    collects per dimension. s1_label must be positive, s2 at least S2_MIN
    (the lowest exponent the search tries), and the rest >= 0.
    """

    s1_label: float = 3.0
    s1_avg: float = 5.0
    s2: float = 3.0
    s2_recall: float = 30.0
    baseline_c: float = 3.0
    clamp_floor: float = 0.0

    def __post_init__(self):
        if self.s1_label <= 0:
            raise ConfigurationError("s1_label must be positive")
        if self.s2 < S2_MIN:
            raise ConfigurationError(f"s2 must be >= {S2_MIN}")
        for name in ("s1_avg", "s2_recall", "baseline_c", "clamp_floor"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")


@dataclass
class ValidationReport:
    """Per-client validation losses (and optional recalls) with their
    cross-client means and MADs, one row per client."""

    per_label_loss: np.ndarray  # (clients, K)
    overall_loss: np.ndarray  # (clients,)
    label_mean: np.ndarray  # (K,)
    overall_mean: float
    label_mad: np.ndarray  # (K,)
    overall_mad: float
    group_recall: np.ndarray | None = None  # (clients, G)
    group_mean: np.ndarray | None = None
    group_mad: np.ndarray | None = None
    overall_recall_mean: float = 0.0


@dataclass
class ScoreTable:
    """Raw scores, clamped scores, and normalized aggregation weights."""

    raw: np.ndarray
    clamped: np.ndarray
    weights: np.ndarray

    @property
    def all_zero(self) -> bool:
        # Written so that a NaN sum (a non-finite client) also counts as zero.
        return not bool(self.clamped.sum() > 0.0)


def mad(values) -> float:
    """Mean absolute deviation from the arithmetic mean."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("mad of empty list")
    return float(np.abs(v - v.mean()).mean())


def _cohort_recall(
    labels: np.ndarray, preds: np.ndarray, num_classes: int
) -> np.ndarray | None:
    """Recall of each row of `preds` (clients, m) against `labels` (m,),
    with the bits of a per-class loop over that row: of the positive class
    for binary tasks, else macro over the classes present. None when no
    class has a positive sample (0/0), which depends on `labels` alone."""
    if num_classes == 2:
        pos = labels == 1
        if not pos.any():
            return None
        return np.count_nonzero(preds[:, pos] == 1, axis=1) / np.count_nonzero(pos)
    counts = np.bincount(labels, minlength=num_classes)
    present = counts > 0
    if not present.any():
        return None
    # Every row's hits per class from one bincount over (row, label) keys.
    rows = len(preds)
    keys = labels + num_classes * np.arange(rows)[:, None]
    hits = np.bincount(keys[preds == labels], minlength=rows * num_classes)
    ratios = hits.reshape(rows, num_classes)[:, present] / counts[present]
    # The mean of each row's ratios, summed in numpy's order for one row.
    return model.class_sums(ratios.T) / np.count_nonzero(present)


def group_recalls(holdout: ValidationSet, preds: np.ndarray, num_classes: int) -> dict:
    """Recall of each row of `preds` (models, m) within each of `holdout`'s
    groups, by group in sorted order; None where a group has no positive."""
    return {g: _cohort_recall(holdout.labels[idx], preds[:, idx], num_classes)
            for g, idx in sorted(holdout.group_indices.items())}


def compute_report(
    client_models: list[np.ndarray | tuple[np.ndarray, np.ndarray]],
    spec: MlpSpec,
    val: ValidationSet,
    recall_dim: bool = False,
) -> ValidationReport:
    """Evaluate every client model on the validation set in one
    `model.eval_cohort`, which also takes `(global, delta)` pairs.

    Each client's per-label mean loss is `val.label_means` of its losses:
    the bits of the mean over the label's index list, which is never empty
    (a `ValidationSet` holds every label). Group recalls (when requested)
    are computed for the whole cohort at once within each group's index
    list. Groups without positive samples are dropped with a warning.
    """
    if not client_models:
        raise ConfigurationError("need at least one client model")
    k = spec.num_classes
    results = model.eval_cohort(client_models, spec, val.data, predict=recall_dim)
    overall = np.array([losses.mean() for losses, _ in results])
    per_label = np.array([val.label_means(losses) for losses, _ in results])

    report = ValidationReport(
        per_label_loss=per_label,
        overall_loss=overall,
        label_mean=per_label.mean(axis=0),
        overall_mean=float(overall.mean()),
        label_mad=np.abs(per_label - per_label.mean(axis=0)).mean(axis=0),
        overall_mad=mad(overall),
    )

    if recall_dim:
        preds = np.stack([client_preds for _, client_preds in results])
        # Defined, because `val` holds every label.
        overall_recall = _cohort_recall(val.labels, preds, k)
        columns = group_recalls(val, preds, k)
        for g in [g for g, recalls in columns.items() if recalls is None]:
            log.warning("recall undefined for group %s; dimension dropped", g)
            del columns[g]
        if columns:
            matrix = np.stack(list(columns.values()), axis=1)
            report.group_recall = matrix
            report.group_mean = matrix.mean(axis=0)
            report.group_mad = np.abs(matrix - matrix.mean(axis=0)).mean(axis=0)
            report.overall_recall_mean = float(overall_recall.mean())
    return report


def _bias_reducer(ratio: float, exponent: float) -> float:
    """max(1, ratio ** exponent), overflow-safe."""
    if ratio <= 1.0:
        return 1.0
    return float(np.exp(min(exponent * np.log(ratio), 700.0)))


def _add_dimension(raw, params: ScoreParams, scale: float, reducer: float, div, mad) -> None:
    """Add one dimension's baseline `baseline_c * scale` to `raw`, then its slope
    `reducer * scale * div / mad` unless `mad` < MAD_EPS (a NaN `mad` adds NaN)."""
    raw += params.baseline_c * scale
    if not mad < MAD_EPS:
        raw += reducer * scale * div / mad


# A label's ratio `label_mean / overall_mean` when the overall mean loss is 0:
# an unused 0/0 for a label whose mean is 0 too (its MAD is 0), and inf for a
# positive label mean, which gets the capped reducer exp(700).
@np.errstate(divide="ignore", invalid="ignore")
def score(report: ValidationReport, params: ScoreParams) -> ScoreTable:
    """Score every client and derive normalized aggregation weights.

    Every label and the overall loss are scored, and each group's recall
    too when the report has them (`compute_report(recall_dim=True)`). Raw
    scores below params.clamp_floor clamp to the floor; when every
    clamped score is zero the weights are all zero and the caller applies a
    zero aggregate update for the round. Nothing is logged: `adapt_s2`
    warns once when the table it picks is all zero.
    """
    n = len(report.overall_loss)
    raw = np.zeros(n)
    for k in range(report.per_label_loss.shape[1]):
        reducer = _bias_reducer(report.label_mean[k] / report.overall_mean, params.s2)
        div = report.label_mean[k] - report.per_label_loss[:, k]
        _add_dimension(raw, params, params.s1_label, reducer, div, report.label_mad[k])
    div = report.overall_mean - report.overall_loss
    _add_dimension(raw, params, params.s1_avg, 1.0, div, report.overall_mad)
    if report.group_recall is not None:
        for j in range(report.group_recall.shape[1]):
            ratio = report.overall_recall_mean / max(report.group_mean[j], RECALL_FLOOR)
            reducer = _bias_reducer(ratio, params.s2_recall)
            div = report.group_recall[:, j] - report.group_mean[j]
            _add_dimension(raw, params, params.s1_label, reducer, div, report.group_mad[j])

    clamped = np.maximum(raw, params.clamp_floor)
    total = clamped.sum()
    weights = clamped / total if total > 0 else np.zeros(n)
    return ScoreTable(raw=raw, clamped=clamped, weights=weights)


def aggregate(
    global_params: np.ndarray, deltas: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted delta step: global + sum_d weight_d * delta_d, one weight
    per row of `deltas`."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(deltas) != weights.shape[0]:
        raise ConfigurationError("one weight per update required")
    if deltas.shape[1] != global_params.shape[0]:
        raise ConfigurationError("delta dimension does not match global model")
    return global_params + weights @ deltas


# Offsets around the current exponent tried each round.
S2_CANDIDATE_OFFSETS = (0.0, 0.5, -0.5, -5.0, 5.0)


def s2_candidates(current: float) -> list[float]:
    """Candidate exponents for this round, clamped to >= S2_MIN, deduplicated."""
    out: list[float] = []
    for off in S2_CANDIDATE_OFFSETS:
        c = max(current + off, S2_MIN)
        if c not in out:
            out.append(c)
    return out


@dataclass
class S2Choice:
    """Outcome of the per-round bias-reducer exponent search."""

    s2: float
    table: ScoreTable
    global_params: np.ndarray
    val_loss: float


def adapt_s2(
    global_params: np.ndarray,
    deltas: np.ndarray,
    report: ValidationReport,
    params: ScoreParams,
    spec: MlpSpec,
    val: ValidationSet,
) -> S2Choice:
    """Try the candidate exponents around params.s2 and keep the one whose
    aggregated model has the lowest mean validation loss.

    Ties break toward the candidate closest to the current exponent, then
    toward the smaller value. Candidates are clamped to >= S2_MIN and
    deduplicated; scoring reuses the one validation report since only the
    exponent changes. Every candidate model is built first and then
    evaluated in one `model.eval_cohort`. When the chosen table is all
    zero, the round is a no-op, and that is logged once.
    """
    current = params.s2
    candidates = s2_candidates(current)
    tables = [score(report, replace(params, s2=c)) for c in candidates]
    models = [
        global_params.copy() if table.all_zero
        else aggregate(global_params, deltas, table.weights)
        for table in tables
    ]
    losses = [float(l.mean()) for l, _ in model.eval_cohort(models, spec, val.data)]
    # The first candidate with the smallest key, as a strict `<` scan finds.
    best = min(range(len(candidates)),
               key=lambda i: (losses[i], abs(candidates[i] - current), candidates[i]))
    if tables[best].all_zero:
        log.warning("all client scores clamped to zero; round becomes a no-op")
    return S2Choice(s2=candidates[best], table=tables[best],
                    global_params=models[best], val_loss=losses[best])
