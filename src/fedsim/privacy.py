"""Differential-privacy mechanics for client deltas: L2 norm clipping with
a quantile-targeted adaptive bound, Gaussian noise addition, and the
pipeline that runs a strategy's `pre_transforms` over the rows of a round's
delta matrix.

No privacy accounting is performed; the noise multiplier is a plain
simulation knob."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from fedsim.errors import ConfigurationError

PRE_TRANSFORMS = ("norm_bound", "dp_noise")


@dataclass(frozen=True)
class DpState:
    """Adaptive clipping state: current bound, target unclipped quantile,
    geometric adaptation rate, and noise multiplier. A config's dp section
    holds the starting bound; a round's state holds the bound as adapted."""

    clip_bound: float = 1.0
    target_quantile: float = 0.5
    adapt_rate: float = 0.2
    noise_multiplier: float = 0.0

    def __post_init__(self):
        if self.clip_bound <= 0:
            raise ConfigurationError("clip_bound must be positive")
        if not 0.0 < self.target_quantile < 1.0:
            raise ConfigurationError("target_quantile must lie in (0, 1)")
        if self.adapt_rate <= 0:
            raise ConfigurationError("adapt_rate must be positive")
        if self.noise_multiplier < 0:
            raise ConfigurationError("noise_multiplier must be >= 0")


def clip(delta: np.ndarray, bound: float) -> tuple[np.ndarray, bool]:
    """Scale delta onto the L2 ball of radius `bound` if it sticks out."""
    if bound <= 0:
        raise ConfigurationError("clip bound must be positive")
    norm = float(np.linalg.norm(delta))
    if norm > bound:
        return delta * (bound / norm), True
    return delta, False


def adapt_bound(state: DpState, clipped_flags: list[bool]) -> float:
    """Geometric bound update toward the target unclipped quantile.

    With unclipped fraction b and target q the bound moves by
    exp(-rate * (b - q)): shrinks when too few updates are clipped, grows
    when too many are.
    """
    if not clipped_flags:
        raise ValueError("need at least one clip flag")
    unclipped = 1.0 - (sum(clipped_flags) / len(clipped_flags))
    with np.errstate(over="ignore"):  # `apply_pre_transforms` refuses an inf bound
        step = np.exp(-state.adapt_rate * (unclipped - state.target_quantile))
    return state.clip_bound * float(step)


def add_noise(
    delta: np.ndarray, z: float, bound: float, round_seed: int, participants: int = 1
) -> np.ndarray:
    """Add iid Gaussian noise with per-coordinate std z * bound / participants."""
    if z < 0:
        raise ConfigurationError("noise multiplier must be >= 0")
    if z == 0.0:
        return delta
    if participants < 1:
        raise ConfigurationError("participants must be >= 1")
    rng = np.random.default_rng(round_seed)
    std = z * bound / participants
    return delta + rng.normal(0.0, std, size=delta.shape)


def apply_pre_transforms(
    transforms: tuple[str, ...],
    deltas: np.ndarray,
    dp: DpState,
    seeds: list[int],
    round_index: int,
) -> DpState:
    """Apply each of `transforms` in order to the rows of round
    `round_index`'s `deltas`, in place, and return the next state.
    "norm_bound" clips every row to `dp.clip_bound`, then adapts that bound
    from the clip flags, and refuses a bound that is not positive and finite
    (one that underflows to 0 or overflows to inf, or a NaN);
    "dp_noise" adds to each row, on its seed in `seeds`, noise of std
    noise_multiplier * bound / len(deltas), with the bound as it stands."""
    for transform in transforms:
        if transform == "norm_bound":
            flags = []
            for row in deltas:
                row[:], clipped = clip(row, dp.clip_bound)
                flags.append(clipped)
            bound = adapt_bound(dp, flags)
            if not 0.0 < bound < math.inf:
                raise ConfigurationError(
                    f"dp: the clip bound adapted in round {round_index} reached {bound:g} "
                    f"(from {dp.clip_bound!r} at adapt_rate {dp.adapt_rate!r})"
                )
            dp = replace(dp, clip_bound=bound)
        else:  # dp_noise
            z, bound, n = dp.noise_multiplier, dp.clip_bound, len(deltas)
            for row, seed in zip(deltas, seeds):
                row[:] = add_noise(row, z, bound, seed, n)
    return dp
