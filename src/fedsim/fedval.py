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
from fedsim.aggregators import ClientUpdate
from fedsim.data import ValidationSet
from fedsim.errors import ConfigurationError
from fedsim.model import MlpSpec

log = logging.getLogger(__name__)

# Dimensions with MAD below this contribute only their baseline term;
# dividing by a near-zero MAD would amplify numerical noise into the score.
MAD_EPS = 1e-9

# Floor for mean group recall in the bias-reducer denominator.
RECALL_FLOOR = 1e-3

DEFAULT_DIMS = ("label", "overall")


@dataclass(frozen=True)
class ScoreParams:
    """Scoring hyperparameters.

    s1_label / s1_avg scale the per-label and overall slope terms, s2 is the
    (adaptive) bias-reducer exponent, s2_recall its static counterpart for
    recall dimensions, and baseline_c sets the constant score every client
    collects per dimension.
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
        if self.baseline_c < 0:
            raise ConfigurationError("baseline_c must be >= 0")


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
    group_keys: tuple[int, ...] = ()
    group_mean: np.ndarray | None = None
    group_mad: np.ndarray | None = None
    overall_recall_mean: float = 0.0

    @property
    def num_clients(self) -> int:
        return self.per_label_loss.shape[0]


@dataclass
class ScoreTable:
    """Raw scores, clamped scores, and normalized aggregation weights."""

    raw: np.ndarray
    clamped: np.ndarray
    weights: np.ndarray
    s2: float

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


def _recall(labels: np.ndarray, preds: np.ndarray, num_classes: int) -> float | None:
    """Recall of the positive class for binary tasks, macro recall over the
    classes present otherwise. Used for the per-group recall of
    `metrics.evaluate`; `compute_report` takes the whole cohort's at once.

    Returns None when no class has a positive sample (0/0)."""
    recall = _cohort_recall(labels, preds[None], num_classes)
    return None if recall is None else float(recall[0])


def _cohort_recall(
    labels: np.ndarray, preds: np.ndarray, num_classes: int
) -> np.ndarray | None:
    """`_recall` of every row of `preds` (clients, m) against `labels` (m,)
    in [0, num_classes), with the bits of one `_recall` call per row; None
    when no class has a positive sample, which depends on `labels` alone."""
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


def compute_report(
    client_models: list[np.ndarray],
    spec: MlpSpec,
    val: ValidationSet,
    recall_dim: bool = False,
) -> ValidationReport:
    """Evaluate every client model on the validation set.

    Each client's losses are gathered once in label order, so that each
    per-label mean is the sum of one contiguous slice over its count: the
    bits of the mean over the label's index list. Group recalls (when
    requested) are computed for the whole cohort at once within each
    group's index list. Groups without positive samples are dropped with a
    warning.
    """
    if not client_models:
        raise ConfigurationError("need at least one client model")
    k = spec.num_classes
    for label in range(k):
        if len(val.label_indices.get(label, ())) == 0:
            raise ConfigurationError(f"validation set has no samples of label {label}")
    label_rows = [val.label_indices[label] for label in range(k)]
    order = np.concatenate(label_rows)
    bounds = np.cumsum([0] + [len(rows) for rows in label_rows]).tolist()

    n = len(client_models)
    per_label = np.empty((n, k))
    overall = np.empty(n)
    preds = []
    for i, params in enumerate(client_models):
        losses, client_preds = model.eval_losses(params, spec, val.data, predict=recall_dim)
        overall[i] = losses.mean()
        by_label = losses[order]
        for label, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            per_label[i, label] = np.add.reduce(by_label[lo:hi]) / (hi - lo)
        preds.append(client_preds)

    report = ValidationReport(
        per_label_loss=per_label,
        overall_loss=overall,
        label_mean=per_label.mean(axis=0),
        overall_mean=float(overall.mean()),
        label_mad=np.abs(per_label - per_label.mean(axis=0)).mean(axis=0),
        overall_mad=mad(overall),
    )

    if recall_dim:
        labels = val.data.labels
        preds = np.stack(preds)
        overall_recall = _cohort_recall(labels, preds, k)
        if overall_recall is None:
            overall_recall = np.zeros(n)
        columns: dict[int, np.ndarray] = {}
        for g in sorted(val.group_indices):
            idx = val.group_indices[g]
            recalls = _cohort_recall(labels[idx], preds[:, idx], k)
            if recalls is None:
                log.warning("recall undefined for group %s; dimension dropped", g)
                continue
            columns[g] = recalls
        if columns:
            matrix = np.stack(list(columns.values()), axis=1)
            report.group_recall = matrix
            report.group_keys = tuple(columns)
            report.group_mean = matrix.mean(axis=0)
            report.group_mad = np.abs(matrix - matrix.mean(axis=0)).mean(axis=0)
            report.overall_recall_mean = float(overall_recall.mean())
    return report


def _bias_reducer(ratio: float, exponent: float) -> float:
    """max(1, ratio ** exponent), overflow-safe."""
    if ratio <= 1.0:
        return 1.0
    return float(np.exp(min(exponent * np.log(ratio), 700.0)))


def score(
    report: ValidationReport,
    params: ScoreParams,
    dims: tuple[str, ...] = DEFAULT_DIMS,
) -> ScoreTable:
    """Score every client and derive normalized aggregation weights.

    Raw scores below params.clamp_floor clamp to the floor; when every
    clamped score is zero the weights are all zero and the caller applies a
    zero aggregate update for the round.
    """
    n = report.num_clients
    raw = np.zeros(n)

    if "label" in dims:
        for k in range(report.per_label_loss.shape[1]):
            raw += params.baseline_c * params.s1_label
            if report.label_mad[k] < MAD_EPS:
                continue
            reducer = _bias_reducer(report.label_mean[k] / report.overall_mean, params.s2)
            div = report.label_mean[k] - report.per_label_loss[:, k]
            raw += reducer * params.s1_label * div / report.label_mad[k]

    if "overall" in dims:
        raw += params.baseline_c * params.s1_avg
        if report.overall_mad >= MAD_EPS:
            div = report.overall_mean - report.overall_loss
            raw += params.s1_avg * div / report.overall_mad

    if "recall" in dims and report.group_recall is not None:
        for j in range(report.group_recall.shape[1]):
            raw += params.baseline_c * params.s1_label
            if report.group_mad[j] < MAD_EPS:
                continue
            ratio = report.overall_recall_mean / max(report.group_mean[j], RECALL_FLOOR)
            reducer = _bias_reducer(ratio, params.s2_recall)
            div = report.group_recall[:, j] - report.group_mean[j]
            raw += reducer * params.s1_label * div / report.group_mad[j]

    clamped = np.maximum(raw, params.clamp_floor)
    total = clamped.sum()
    if total > 0:
        weights = clamped / total
    else:
        log.warning("all client scores clamped to zero; round becomes a no-op")
        weights = np.zeros(n)
    return ScoreTable(raw=raw, clamped=clamped, weights=weights, s2=params.s2)


def aggregate(
    global_params: np.ndarray, updates: list[ClientUpdate], weights: np.ndarray
) -> np.ndarray:
    """Weighted delta step: global + sum_d weight_d * delta_d."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(updates) != weights.shape[0]:
        raise ConfigurationError("one weight per update required")
    deltas = np.stack([u.delta for u in updates])
    if deltas.shape[1] != global_params.shape[0]:
        raise ConfigurationError("delta dimension does not match global model")
    return global_params + weights @ deltas


# Offsets around the current exponent tried each round.
S2_CANDIDATE_OFFSETS = (0.0, 0.5, -0.5, -5.0, 5.0)
S2_MIN = 0.5


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
    updates: list[ClientUpdate],
    report: ValidationReport,
    params: ScoreParams,
    spec: MlpSpec,
    val: ValidationSet,
    dims: tuple[str, ...] = DEFAULT_DIMS,
) -> S2Choice:
    """Try the candidate exponents around params.s2 and keep the one whose
    aggregated model has the lowest mean validation loss.

    Ties break toward the candidate closest to the current exponent, then
    toward the smaller value. Candidates are clamped to >= S2_MIN and
    deduplicated; scoring reuses the one validation report since only the
    exponent changes.
    """
    current = params.s2
    candidates = s2_candidates(current)

    best: S2Choice | None = None
    best_key: tuple[float, float, float] | None = None
    for c in candidates:
        table = score(report, replace(params, s2=c), dims)
        if table.all_zero:
            candidate_model = global_params.copy()
        else:
            candidate_model = aggregate(global_params, updates, table.weights)
        losses, _ = model.eval_losses(candidate_model, spec, val.data)
        loss = float(losses.mean())
        key = (loss, abs(c - current), c)
        if best_key is None or key < best_key:
            best_key = key
            best = S2Choice(s2=c, table=table, global_params=candidate_model, val_loss=loss)
    return best
