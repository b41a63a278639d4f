"""Baseline aggregation strategies behind a common strategy description.

Every strategy takes the round's deltas as one (n, P) matrix, a row per
client (its local model minus the round's global model), and produces the
next global parameter vector or the rows it keeps. Ties are broken by
ascending row index everywhere, which keeps every strategy deterministic
under client permutation up to that rule.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from fedsim import privacy
from fedsim.errors import ConfigurationError

log = logging.getLogger(__name__)

# Every strategy kind, with the fractions `fedsim compare` gives it when the
# base config runs another kind.
STRATEGY_KINDS = {
    "fedavg": {},
    "fedval": {},
    "multi_krum": {"remove_fraction": 0.5},
    "lfr": {"remove_fraction": 0.4},
    "trimmed_mean": {"trim_fraction": 0.2},
}


@dataclass(frozen=True)
class Strategy:
    """Aggregation strategy selection plus optional privacy pre-transforms."""

    kind: str
    remove_fraction: float = 0.0
    trim_fraction: float = 0.0
    pre_transforms: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigurationError(f"strategy kind must be one of {tuple(STRATEGY_KINDS)}")
        if not 0.0 <= self.remove_fraction < 1.0:
            raise ConfigurationError("remove_fraction must lie in [0, 1)")
        if not 0.0 <= self.trim_fraction < 1.0:
            raise ConfigurationError("trim_fraction must lie in [0, 1)")
        for t in self.pre_transforms:
            if t not in privacy.PRE_TRANSFORMS:
                raise ConfigurationError(f"unknown pre-transform {t!r}")


def _check_deltas(deltas: np.ndarray) -> int:
    """The number of rows of `deltas`, refused unless it is a non-empty matrix."""
    if deltas.ndim != 2:
        raise ConfigurationError("client deltas must be flat vectors")
    if not len(deltas):
        raise ConfigurationError("no client updates to aggregate")
    return len(deltas)


def fedavg(global_params: np.ndarray, deltas: np.ndarray, counts) -> np.ndarray:
    """Average of the rows of `deltas` weighted by the clients' sample
    `counts`, applied to the global model."""
    _check_deltas(deltas)
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ConfigurationError("total sample count is zero")
    return global_params + (counts / total) @ deltas


def multi_krum(deltas: np.ndarray, remove_fraction: float) -> list[int]:
    """Indices of the n - f rows of `deltas` with the lowest Krum scores, a
    row with a non-finite coordinate ranked after every finite one. A row's
    score is the sum of squared distances to its n - f - 2 nearest other
    rows; when that neighbor count is infeasible the single nearest
    neighbor is used instead."""
    n = _check_deltas(deltas)
    f = math.floor(remove_fraction * n)
    keep = n - f
    if keep < 1:
        raise ConfigurationError("multi_krum must keep at least one client")
    neighbors = n - f - 2
    if neighbors < 1:
        log.warning("multi_krum: n-f-2 < 1, falling back to single nearest neighbor")
        neighbors = 1
    sq = _squared_distances(deltas)
    np.fill_diagonal(sq, np.inf)
    scores = np.sort(sq, axis=1)[:, :neighbors].sum(axis=1)
    selected = np.lexsort((scores, ~np.isfinite(deltas).all(axis=1)))[:keep]
    return sorted(int(i) for i in selected)


def _squared_distances(deltas: np.ndarray) -> np.ndarray:
    """(n, n) squared Euclidean distances between the rows of `deltas`.

    One row at a time, because the (n, n, P) difference tensor would be the
    largest temporary of a round. Each row computes only the distances to
    the rows after it and mirrors them: (a - b)**2 == (b - a)**2 exactly and
    each sum adds its squares in the same order, so the matrix is bit for
    bit the full one.
    """
    n = len(deltas)
    sq = np.empty((n, n))
    # An overflowing distance is inf and ranks its row last, and non-finite
    # rows are ranked last anyway: numpy's warnings would say nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            sq[i, i:] = np.sum((deltas[i] - deltas[i:]) ** 2, axis=1)
            sq[i:, i] = sq[i, i:]
    return sq


def lfr(
    global_params: np.ndarray,
    deltas: np.ndarray,
    counts,
    losses: np.ndarray,
    remove_fraction: float,
) -> np.ndarray:
    """Fedavg the rows left after dropping the worst ranked: any with a
    non-finite coordinate, then the highest mean validation loss (`losses`,
    in row order: `fedval.compute_report`'s `overall_loss`)."""
    n = _check_deltas(deltas)
    if len(losses) != n:
        raise ConfigurationError("one validation loss per update required")
    drop = math.ceil(remove_fraction * n)
    if drop >= n:
        raise ConfigurationError(f"lfr would drop all {n} clients")
    keep = np.sort(np.lexsort((losses, ~np.isfinite(deltas).all(axis=1)))[: n - drop])
    return fedavg(global_params, deltas[keep], np.asarray(counts)[keep])


def trimmed_mean(
    global_params: np.ndarray, deltas: np.ndarray, trim_fraction: float
) -> np.ndarray:
    """Coordinate-wise trimmed mean of the rows of `deltas`, applied to the
    global model."""
    n = _check_deltas(deltas)
    t = math.floor(trim_fraction * n)
    if 2 * t >= n:
        raise ConfigurationError(f"trim_fraction {trim_fraction} over-trims {n} updates")
    ordered = np.sort(deltas, axis=0)
    return global_params + ordered[t : n - t].mean(axis=0)
