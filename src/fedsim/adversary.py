"""Attack injection: label-flip data poisoning and norm-scaled gradient
ascent model poisoning, plus static malicious-client placement."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from fedsim import model
from fedsim.data import Dataset
from fedsim.errors import ConfigurationError
from fedsim.model import MlpSpec, SgdRow, TrainSpec

log = logging.getLogger(__name__)

ATTACK_KINDS = ("none", "label_flip", "pga")


@dataclass(frozen=True)
class AttackSpec:
    """Which attack runs, how strong, and who is compromised.

    Malicious clients are drawn once per experiment from the full population
    (static compromise); round-level exposure then follows client selection.
    """

    kind: str = "none"
    source_label: int = 0
    target_label: int = 0
    scale_factor: float = 1.0
    ascent_epochs: int = 1
    malicious_fraction: float = 0.0
    placement_seed: int = 0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ConfigurationError(f"attack kind must be one of {ATTACK_KINDS}")
        if self.kind == "label_flip" and self.source_label == self.target_label:
            raise ConfigurationError("label_flip needs distinct source and target labels")
        if self.kind == "pga":
            if self.scale_factor < 0:
                raise ConfigurationError("scale_factor must be >= 0")
            if self.ascent_epochs < 1:
                raise ConfigurationError("ascent_epochs must be >= 1")
        if not 0.0 <= self.malicious_fraction <= 1.0:
            raise ConfigurationError("malicious_fraction must lie in [0, 1]")


def poison_dataset(data: Dataset, source_label: int, target_label: int) -> Dataset:
    """Relabel every source_label sample as target_label; features untouched."""
    labels = data.labels.copy()
    labels[labels == source_label] = target_label
    return Dataset(data.features, labels, data.num_classes, data.group_ids)


def _ascent_row(start: np.ndarray, data, train: TrainSpec, epochs: int) -> SgdRow:
    return SgdRow(start, data, train.seed, epochs, -train.learning_rate)


def gradient_ascent(
    global_params: np.ndarray,
    spec: MlpSpec,
    data: Dataset,
    train: TrainSpec,
    epochs: int,
) -> np.ndarray:
    """Mini-batch gradient ascent from the global model: the SGD of
    `local_train` with a negative step and no proximal term."""
    (params,) = model.train_rows(
        spec, [_ascent_row(global_params, data, train, epochs)], train.batch_size
    )
    return model.check_trained(params, ascent=True)


def pga_rows(
    start: np.ndarray, data, train: TrainSpec, ascent_epochs: int
) -> tuple[SgdRow, SgdRow]:
    """The two `train_rows` rows of a PGA attacker from `start`, in the order
    `pga_combine` takes their results: the ascent and the benign reference
    (plain training without the proximal term), both on `train.seed`, so
    the engine gives them one shared permutation per epoch."""
    return (
        _ascent_row(start, data, train, ascent_epochs),
        SgdRow(start, data, train.seed, train.epochs, train.learning_rate),
    )


def pga_combine(
    global_params: np.ndarray,
    ascended: np.ndarray,
    benign: np.ndarray,
    scale_factor: float,
) -> np.ndarray:
    """Malicious model from the trained `pga_rows`: the ascent delta rescaled
    so that its norm is scale_factor times the benign reference's delta norm.
    Both rows must already have passed `model.check_trained`.
    """
    malicious_delta = ascended - global_params
    mal_norm = float(np.linalg.norm(malicious_delta))
    if mal_norm == 0.0:
        log.warning("pga_combine: degenerate zero ascent delta, returning global model")
        return global_params.copy()
    benign_norm = float(np.linalg.norm(benign - global_params))
    if benign_norm == 0.0:
        log.warning("pga_combine: benign reference delta is zero, returning global model")
        return global_params.copy()
    return global_params + (scale_factor * benign_norm / mal_norm) * malicious_delta


def pga_update(
    global_params: np.ndarray,
    spec: MlpSpec,
    data: Dataset,
    train: TrainSpec,
    scale_factor: float,
    ascent_epochs: int,
) -> np.ndarray:
    """Malicious update: ascent direction, norm-matched to benign training.

    The attacker also trains normally on its own data and rescales the
    ascent delta so the returned delta's norm equals scale_factor times that
    benign delta norm, which lets the attack blend into norm statistics.
    """
    if scale_factor == 0.0:
        return global_params.copy()
    ascended, benign = model.train_rows(
        spec, list(pga_rows(global_params, data, train, ascent_epochs)), train.batch_size
    )
    ascended = model.check_trained(ascended, ascent=True)
    return pga_combine(global_params, ascended, model.check_trained(benign), scale_factor)


def place_malicious(client_count: int, fraction: float, seed: int) -> frozenset[int]:
    """floor(fraction * client_count) ids, uniform without replacement."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError("fraction must lie in [0, 1]")
    count = int(fraction * client_count)
    rng = np.random.default_rng(seed)
    return frozenset(int(i) for i in rng.choice(client_count, size=count, replace=False))
