"""Baseline aggregation strategies behind a common strategy description.

All strategies consume per-client deltas (local model minus the round's
global model) and produce the next global parameter vector. Ties are broken
by ascending client index everywhere, which keeps every strategy
deterministic under client permutation up to that rule.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

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
PRE_TRANSFORMS = ("norm_bound", "dp_noise")


@dataclass(frozen=True)
class ClientUpdate:
    """One client's round output: its delta against the global model."""

    client_id: int
    delta: np.ndarray
    num_samples: int


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
            if t not in PRE_TRANSFORMS:
                raise ConfigurationError(f"unknown pre-transform {t!r}")


def _stack_deltas(updates: list[ClientUpdate]) -> np.ndarray:
    if not updates:
        raise ConfigurationError("no client updates to aggregate")
    deltas = np.stack([u.delta for u in updates])
    if deltas.ndim != 2:
        raise ConfigurationError("client deltas must be flat vectors")
    return deltas


def fedavg(global_params: np.ndarray, updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-count-weighted average of client models."""
    deltas = _stack_deltas(updates)
    counts = np.array([u.num_samples for u in updates], dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ConfigurationError("total sample count is zero")
    return global_params + (counts / total) @ deltas


def multi_krum(updates: list[ClientUpdate], remove_fraction: float) -> list[int]:
    """Indices of the n - f clients with the lowest Krum scores.

    A client's score is the sum of squared distances to its n - f - 2
    nearest other updates; when that neighbor count is infeasible the single
    nearest neighbor is used instead.
    """
    deltas = _stack_deltas(updates)
    n = len(updates)
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
    selected = np.argsort(scores, kind="stable")[:keep]
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
    for i in range(n):
        sq[i, i:] = np.sum((deltas[i] - deltas[i:]) ** 2, axis=1)
        sq[i:, i] = sq[i, i:]
    return sq


def lfr(
    global_params: np.ndarray,
    updates: list[ClientUpdate],
    losses: np.ndarray,
    remove_fraction: float,
) -> np.ndarray:
    """Drop the clients with the highest mean validation loss, `losses` in
    update order (`fedval.compute_report`'s `overall_loss`), then fedavg the
    rest."""
    n = len(updates)
    if len(losses) != n:
        raise ConfigurationError("one validation loss per update required")
    drop = math.ceil(remove_fraction * n)
    if drop >= n:
        raise ConfigurationError(f"lfr would drop all {n} clients")
    keep_order = np.argsort(losses, kind="stable")[: n - drop]
    survivors = [updates[i] for i in sorted(int(i) for i in keep_order)]
    return fedavg(global_params, survivors)


def trimmed_mean(
    global_params: np.ndarray, updates: list[ClientUpdate], trim_fraction: float
) -> np.ndarray:
    """Coordinate-wise trimmed mean of deltas, applied to the global model."""
    deltas = _stack_deltas(updates)
    n = len(updates)
    t = math.floor(trim_fraction * n)
    if 2 * t >= n:
        raise ConfigurationError(f"trim_fraction {trim_fraction} over-trims {n} updates")
    ordered = np.sort(deltas, axis=0)
    kept = ordered[t : n - t] if t > 0 else ordered
    return global_params + kept.mean(axis=0)
