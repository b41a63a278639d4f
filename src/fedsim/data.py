"""Dataset generation, client partitioning, and validation-set construction.

All randomness flows through explicit seeds; every partition scheme assigns
each source sample to exactly one client so shard unions reconstruct the
source.
"""

from __future__ import annotations

import csv
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from fedsim.errors import ConfigurationError

PARTITION_SCHEMES = ("iid", "lda", "missing_labels", "quantity_skew")

# Bounded retries for schemes that can draw an empty shard.
MAX_PARTITION_RETRIES = 100


@dataclass
class Dataset:
    """Feature matrix, integer labels in [0, K), optional demographic groups."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    group_ids: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ConfigurationError("features must be a 2-D matrix")
        n = self.features.shape[0]
        if n < 1:
            raise ConfigurationError("dataset must contain at least one sample")
        if self.labels.shape != (n,):
            raise ConfigurationError("labels length must match feature rows")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ConfigurationError(f"labels must lie in [0, {self.num_classes})")
        if self.group_ids is not None:
            self.group_ids = np.asarray(self.group_ids, dtype=np.int64)
            if self.group_ids.shape != (n,):
                raise ConfigurationError("group_ids length must match feature rows")
            if self.group_ids.min() < 0:
                raise ConfigurationError("group_ids must be non-negative")

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        groups = self.group_ids[indices] if self.group_ids is not None else None
        return Dataset(self.features[indices], self.labels[indices], self.num_classes, groups)


@dataclass(frozen=True)
class PartitionSpec:
    """How to split a source dataset across clients.

    alpha controls Dirichlet concentration for the lda and quantity_skew
    schemes; missing/affected_fraction configure the missing-label scenario.
    """

    scheme: str
    client_count: int
    seed: int = 0
    alpha: float = 1.0
    missing: tuple[int, ...] = ()
    affected_fraction: float = 0.0

    def __post_init__(self):
        if self.scheme not in PARTITION_SCHEMES:
            raise ConfigurationError(f"scheme must be one of {PARTITION_SCHEMES}")
        if self.client_count < 1:
            raise ConfigurationError("client_count must be >= 1")
        if self.scheme in ("lda", "quantity_skew") and self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        if self.scheme == "missing_labels":
            if not self.missing:
                raise ConfigurationError("missing_labels scheme needs a non-empty label set")
            if not 0.0 <= self.affected_fraction <= 1.0:
                raise ConfigurationError("affected_fraction must lie in [0, 1]")
        object.__setattr__(self, "missing", tuple(sorted(int(m) for m in self.missing)))


@dataclass(frozen=True)
class CsvTask:
    """Tabular task loaded from a CSV file."""

    path: str
    feature_columns: tuple[str, ...]
    label_column: str
    group_column: str | None = None

    @property
    def features(self) -> int:
        """The input width, as `SyntheticTask.features`; not a config key."""
        return len(self.feature_columns)


@dataclass
class ValidationSet:
    """A holdout dataset with per-label and per-group index lists: the
    validation holdout of `fedval.compute_report` and the test holdout of
    `metrics.evaluate`. Every label of the data's classes has samples; a
    holdout without some label is refused when it is built."""

    data: Dataset
    label_indices: dict[int, np.ndarray] = field(init=False)
    group_indices: dict[int, np.ndarray] = field(init=False)

    def __post_init__(self):
        labels, groups = self.data.labels, self.data.group_ids
        rows = [np.flatnonzero(labels == k) for k in range(self.data.num_classes)]
        missing = [k for k, r in enumerate(rows) if len(r) == 0]
        if missing:
            raise ConfigurationError(f"holdout has no samples of labels {missing}")
        self.label_indices = dict(enumerate(rows))
        # The sorted keys without `np.unique`, which imports numpy.ma.
        self.group_indices = {} if groups is None else {
            g: np.flatnonzero(groups == g) for g in sorted(set(groups.tolist()))
        }
        # Sample positions in label order, and where each label's run starts.
        self._order = np.concatenate(rows)
        self._bounds = np.cumsum([0] + [len(r) for r in rows]).tolist()

    @property
    def labels(self) -> np.ndarray:
        return self.data.labels

    def label_means(self, values: np.ndarray) -> np.ndarray:
        """The mean of per-sample `values` over each label's index list, with
        the bits of `values[label_indices[k]].mean()`: the values gathered in
        label order, each label's contiguous slice summed over its count."""
        by_label, bounds = values[self._order], self._bounds
        return np.array([np.add.reduce(by_label[lo:hi]) / (hi - lo)
                         for lo, hi in zip(bounds, bounds[1:])])


def gen_synthetic(
    classes: int, dim: int, samples: int, separation: float, seed: int = 0
) -> Dataset:
    """Gaussian class blobs, unit covariance, means pairwise `separation` apart.

    Means sit on a random orthonormal frame scaled by separation/sqrt(2),
    which makes every pair of class means equidistant. Labels are balanced
    within +/- 1 and shuffled.
    """
    if classes < 2:
        raise ConfigurationError("need at least 2 classes")
    if dim < classes:
        raise ConfigurationError(
            f"dim must be >= classes to place {classes} equidistant means (got dim={dim})"
        )
    if samples < classes:
        raise ConfigurationError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    frame, _ = np.linalg.qr(rng.standard_normal((dim, classes)))
    means = frame.T * (separation / np.sqrt(2.0))

    base, extra = divmod(samples, classes)
    labels = np.concatenate(
        [np.full(base + (1 if k < extra else 0), k, dtype=np.int64) for k in range(classes)]
    )
    labels = labels[rng.permutation(samples)]
    features = means[labels] + rng.standard_normal((samples, dim))
    return Dataset(features, labels, classes)


def _deal_stratified(
    labels: np.ndarray, deal: Iterable[int], n_clients: int, rng: np.random.Generator
) -> list[list[int]]:
    """Deal the samples of each label in `deal` over `n_clients` shards:
    per-label shuffle + chunking rotated by the label, so remainders spread
    evenly."""
    shards: list[list[int]] = [[] for _ in range(n_clients)]
    for k in deal:
        pool = rng.permutation(np.flatnonzero(labels == k))
        chunks = np.array_split(pool, n_clients)
        for i in range(n_clients):
            shards[(i + k) % n_clients].extend(chunks[i].tolist())
    return shards


def partition(data: Dataset, spec: PartitionSpec) -> list[Dataset]:
    """Split `data` into client shards per the scheme; shards are disjoint,
    non-empty, and jointly exhaustive."""
    n = len(data)
    if n < spec.client_count:
        raise ConfigurationError("fewer samples than clients")
    for attempt in range(MAX_PARTITION_RETRIES):
        rng = np.random.default_rng([spec.seed, attempt])
        shards = _partition_once(data, spec, rng)
        if all(len(s) > 0 for s in shards):
            return [data.subset(np.sort(np.asarray(s, dtype=np.int64))) for s in shards]
    raise ConfigurationError(
        f"could not produce non-empty shards after {MAX_PARTITION_RETRIES} retries"
    )


def _partition_once(
    data: Dataset, spec: PartitionSpec, rng: np.random.Generator
) -> list[list[int]]:
    n = len(data)
    n_clients = spec.client_count
    if spec.scheme == "iid":
        return _deal_stratified(data.labels, range(data.num_classes), n_clients, rng)

    if spec.scheme == "lda":
        proportions = rng.dirichlet(np.full(data.num_classes, spec.alpha), size=n_clients)
        shards: list[list[int]] = [[] for _ in range(n_clients)]
        for k in range(data.num_classes):
            pool = rng.permutation(np.flatnonzero(data.labels == k))
            weights = proportions[:, k]
            total = weights.sum()
            if total <= 0:
                weights = np.full(n_clients, 1.0 / n_clients)
            else:
                weights = weights / total
            counts = rng.multinomial(len(pool), weights)
            for shard, part in zip(shards, np.split(pool, np.cumsum(counts)[:-1])):
                shard.extend(part.tolist())
        return shards

    if spec.scheme == "missing_labels":
        affected_count = round(spec.affected_fraction * n_clients)
        affected = set(rng.choice(n_clients, size=affected_count, replace=False).tolist())
        holders = [c for c in range(n_clients) if c not in affected]
        missing = set(spec.missing)
        if missing and not holders:
            raise ConfigurationError("all clients affected: missing labels would be lost")
        for m in missing:
            if m < 0 or m >= data.num_classes:
                raise ConfigurationError(f"missing label {m} outside [0, {data.num_classes})")
        present = [k for k in range(data.num_classes) if k not in missing]
        shards = _deal_stratified(data.labels, present, n_clients, rng)
        for j, k in enumerate(sorted(missing)):
            pool = rng.permutation(np.flatnonzero(data.labels == k))
            chunks = np.array_split(pool, len(holders))
            for i in range(len(holders)):
                shards[holders[(i + j) % len(holders)]].extend(chunks[i].tolist())
        return shards

    # quantity_skew: Dirichlet over client sizes, composition IID.
    sizes = rng.dirichlet(np.full(n_clients, spec.alpha)) * n
    counts = np.floor(sizes).astype(int)
    # The largest fractional parts take the remainder, one sample each.
    counts[np.argsort(np.floor(sizes) - sizes, kind="stable")[: n - counts.sum()]] += 1
    pool = rng.permutation(n)
    return [part.tolist() for part in np.split(pool, np.cumsum(counts)[:-1])]


def build_validation(
    data: Dataset, per_label: int, balanced: bool = True, seed: int = 0
) -> tuple[ValidationSet, Dataset]:
    """Carve a validation holdout out of `data`.

    Returns (holdout, remainder); the remainder is what should be partitioned
    into client shards, which keeps the holdout disjoint from every shard.
    Balanced mode takes exactly `per_label` samples of each label; otherwise
    per_label * K samples follow the source's label marginal.
    """
    if per_label < 1:
        raise ConfigurationError("per_label must be >= 1")
    rng = np.random.default_rng(seed)
    n = len(data)
    if balanced:
        chosen = []
        for k in range(data.num_classes):
            pool = np.flatnonzero(data.labels == k)
            if len(pool) < per_label:
                raise ConfigurationError(
                    f"label {k} has only {len(pool)} samples, need {per_label}"
                )
            chosen.append(rng.choice(pool, size=per_label, replace=False))
        chosen = np.concatenate(chosen)
    else:
        total = per_label * data.num_classes
        if n < total:
            raise ConfigurationError(f"dataset has {n} samples, need {total}")
        chosen = rng.choice(n, size=total, replace=False)
    chosen = np.sort(chosen)
    mask = np.ones(n, dtype=bool)
    mask[chosen] = False
    remainder_idx = np.flatnonzero(mask)
    if len(remainder_idx) == 0:
        raise ConfigurationError("validation holdout would consume the whole dataset")
    return ValidationSet(data.subset(chosen)), data.subset(remainder_idx)


def load_csv(task: CsvTask) -> Dataset:
    """Read the headered CSV of `task` into a Dataset.

    The header is read with the csv module and the rows with numpy's C
    reader. Features must be finite; each column is standardized (zero
    mean, unit variance, sigma forced to 1 for constant columns), and a
    column whose mean or sigma overflows is refused. Labels
    must be integer-coded from 0; group values are mapped to contiguous ids
    in sorted order. A bad row is reported by its number; the header is row 1.
    A file that cannot be read as UTF-8 text is refused by its path.
    """
    try:
        with open(task.path, encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise ConfigurationError(f"{task.path}: missing header row")
            # A repeated name means its last column, as in csv.DictReader.
            columns = {name: i for i, name in enumerate(header)}
            needed = set(task.feature_columns) | {task.label_column}
            if task.group_column:
                needed.add(task.group_column)
            missing_cols = needed - set(columns)
            if missing_cols:
                raise ConfigurationError(f"{task.path}: missing columns {sorted(missing_cols)}")
            fields = [("x", np.float64, (len(task.feature_columns),)), ("y", np.int64)]
            usecols = [columns[c] for c in task.feature_columns] + [columns[task.label_column]]
            if task.group_column:
                fields.append(("g", object))
                usecols.append(columns[task.group_column])
            try:
                with warnings.catch_warnings():
                    # A file without data rows is reported below.
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    table = np.loadtxt(
                        fh,
                        dtype=fields,
                        delimiter=",",
                        quotechar='"',
                        comments=None,
                        usecols=usecols,
                        ndmin=1,
                    )
            except ValueError as exc:
                fh.seek(0)
                message = _first_bad_row(fh, task) or str(exc)
                raise ConfigurationError(f"{task.path}: {message}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{task.path}: cannot read the file: {exc}") from exc
    if len(table) == 0:
        raise ConfigurationError(f"{task.path}: no data rows")
    labels, features = table["y"].copy(), table["x"].copy()
    finite = np.isfinite(features).all(axis=1)
    bad = np.flatnonzero(~finite | (labels < 0))
    if len(bad):  # the first bad row, its features before its label
        problem = "negative label" if finite[bad[0]] else "non-finite feature"
        raise ConfigurationError(f"{task.path}: {problem} on row {bad[0] + 2}")

    with np.errstate(over="ignore", invalid="ignore"):
        mean = features.mean(axis=0)
        std = features.std(axis=0)
    too_large = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if len(too_large):
        name = task.feature_columns[too_large[0]]
        raise ConfigurationError(f"{task.path}: feature column {name!r} is too large to "
                                 "standardize")
    std[std == 0.0] = 1.0
    features = (features - mean) / std

    group_ids = None
    if task.group_column:
        _, group_ids = np.unique(table["g"], return_inverse=True)
    return Dataset(features, labels, int(labels.max()) + 1, group_ids)


def _first_bad_row(fh: TextIO, task: CsvTask) -> str | None:
    """The message for the first data row of `fh` that `float` or `int`
    rejects or whose features are not finite or label is negative, numbered
    with the header as row 1; None when every row passes. It names the row
    behind a failed numpy parse and builds no data."""
    for line_no, row in enumerate(csv.DictReader(fh), start=2):
        try:
            features = [float(row[c]) for c in task.feature_columns]
        except (TypeError, ValueError):
            return f"malformed feature on row {line_no}"
        if not np.isfinite(features).all():
            return f"non-finite feature on row {line_no}"
        raw_label = row[task.label_column]
        try:
            label = int(raw_label)
        except (TypeError, ValueError):
            return f"unknown label {raw_label!r} on row {line_no}"
        if label < 0:
            return f"negative label on row {line_no}"
    return None
