"""Small dense classifier with manual backpropagation.

Parameters live in a single flat float64 vector (the currency that every
aggregation strategy operates on). Layout: for each layer, the weight
matrix in C order followed by its bias vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedsim.errors import ConfigurationError

ACTIVATIONS = ("relu", "tanh")

# Probabilities are floored before log so poisoned models with extreme
# logits yield large finite losses instead of inf.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class MlpSpec:
    """Architecture + init seed. Identical specs give bit-identical params."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ConfigurationError("layer_sizes needs at least input and output dims")
        if any(s < 1 for s in self.layer_sizes):
            raise ConfigurationError(f"layer_sizes must be positive, got {self.layer_sizes}")
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"activation must be one of {ACTIVATIONS}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def param_count(self) -> int:
        sizes = self.layer_sizes
        return sum(nin * nout + nout for nin, nout in zip(sizes[:-1], sizes[1:]))


@dataclass(frozen=True)
class TrainSpec:
    """Local-training hyperparameters. prox_mu > 0 adds a proximal pull
    toward the anchor (global) parameters each step."""

    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.005
    prox_mu: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigurationError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ConfigurationError("learning_rate must be >= 0")
        if self.prox_mu < 0:
            raise ConfigurationError("prox_mu must be >= 0")


def init_params(spec: MlpSpec) -> np.ndarray:
    """Flat parameter vector: weights uniform in +/- 1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(spec.seed)
    chunks = []
    sizes = spec.layer_sizes
    for nin, nout in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(nin)
        chunks.append(rng.uniform(-bound, bound, size=nin * nout))
        chunks.append(np.zeros(nout))
    return np.concatenate(chunks)


def unpack(params: np.ndarray, spec: MlpSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of (weight matrix, bias) per layer; no copies."""
    if params.shape != (spec.param_count,):
        raise ConfigurationError(
            f"parameter vector has length {params.shape}, spec needs {spec.param_count}"
        )
    layers = []
    offset = 0
    sizes = spec.layer_sizes
    for nin, nout in zip(sizes[:-1], sizes[1:]):
        w = params[offset : offset + nin * nout].reshape(nin, nout)
        offset += nin * nout
        b = params[offset : offset + nout]
        offset += nout
        layers.append((w, b))
    return layers


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, a: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return (z > 0.0).astype(z.dtype)
    return 1.0 - a * a


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_batch(params: np.ndarray, spec: MlpSpec, x: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch, shape (n, K)."""
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ConfigurationError(
            f"features have shape {x.shape}, spec input dim is {spec.input_dim}"
        )
    a = x
    layers = unpack(params, spec)
    for i, (w, b) in enumerate(layers):
        z = a @ w + b
        a = z if i == len(layers) - 1 else _activate(z, spec.activation)
    return _softmax(a)


def forward(params: np.ndarray, spec: MlpSpec, x: np.ndarray) -> np.ndarray:
    """Probability vector for a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigurationError("forward expects a single feature vector")
    return _forward_batch(params, spec, x[None, :])[0]


def _backprop(
    layers: list[tuple[np.ndarray, np.ndarray]],
    grads: list[tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    y: np.ndarray,
    activation: str,
) -> np.ndarray:
    """Forward and backward pass of the mean cross-entropy over one batch.

    Writes each layer's gradient into the matching (weight, bias) views of
    `grads` and returns the batch's class probabilities. Labels must already
    be known to lie in [0, K).
    """
    n = x.shape[0]
    pre = []  # z per layer
    acts = [x]  # input and post-activation outputs
    a = x
    for i, (w, b) in enumerate(layers):
        z = a @ w + b
        pre.append(z)
        a = z if i == len(layers) - 1 else _activate(z, activation)
        acts.append(a)

    probs = _softmax(acts[-1])

    # Backward pass; dZ for the softmax+CE head is (p - onehot) / n.
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n

    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw, gb = grads[i]
        np.matmul(acts[i].T, delta, out=gw)
        np.sum(delta, axis=0, out=gb)
        if i > 0:
            delta = (delta @ w.T) * _activate_grad(pre[i - 1], acts[i], activation)
    return probs


def _check_labels(y: np.ndarray, spec: MlpSpec) -> None:
    k = spec.num_classes
    if y.min() < 0 or y.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")


def loss_and_grad(
    params: np.ndarray,
    spec: MlpSpec,
    batch: tuple[np.ndarray, np.ndarray],
    global_params: np.ndarray | None = None,
    prox_mu: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy (plus optional proximal penalty) and its exact gradient.

    The proximal term is (prox_mu / 2) * ||params - global_params||^2, the
    anchor being the round's starting global model.
    """
    x, y = batch
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    _check_labels(y, spec)

    grad = np.empty(spec.param_count)
    probs = _backprop(unpack(params, spec), unpack(grad, spec), x, y, spec.activation)
    loss = float(-np.mean(np.log(np.maximum(probs[np.arange(n), y], PROB_FLOOR))))

    if prox_mu > 0.0:
        if global_params is None:
            raise ValueError("prox_mu > 0 requires global (anchor) parameters")
        diff = params - global_params
        loss += 0.5 * prox_mu * float(diff @ diff)
        grad += prox_mu * diff
    return loss, grad


def _sgd(
    global_params: np.ndarray,
    spec: MlpSpec,
    data,
    train: TrainSpec,
    epochs: int,
    step: float,
    prox_mu: float = 0.0,
) -> np.ndarray:
    """Mini-batch steps `params -= step * grad` from the global model.

    The one SGD loop behind `local_train` and `adversary.gradient_ascent`
    (which passes a negative step). Each epoch draws one permutation from
    `train.seed`; the loss itself is never computed. The caller checks the
    result for non-finite values.
    """
    n = len(data.labels)
    if n == 0:
        raise ValueError("client dataset is empty")
    params = global_params.copy()
    if epochs == 0:
        return params
    features = np.asarray(data.features, dtype=np.float64)
    labels = np.asarray(data.labels, dtype=np.int64)
    _check_labels(labels, spec)
    # params is updated in place, so its layer views stay valid across steps.
    layers = unpack(params, spec)
    grad = np.empty_like(params)
    grads = unpack(grad, spec)
    rng = np.random.default_rng(train.seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, train.batch_size):
            idx = order[start : start + train.batch_size]
            _backprop(layers, grads, features[idx], labels[idx], spec.activation)
            if prox_mu > 0.0:
                grad += prox_mu * (params - global_params)
            params -= step * grad
    return params


def local_train(
    global_params: np.ndarray,
    spec: MlpSpec,
    data,
    train: TrainSpec,
) -> np.ndarray:
    """Mini-batch SGD from the global model; deterministic for a given seed.

    `data` is any object with `features` (n, d) and `labels` (n,) arrays.
    """
    params = _sgd(
        global_params, spec, data, train, train.epochs, train.learning_rate, train.prox_mu
    )
    # With zero epochs no step ran, and the global model passes through as is.
    if train.epochs and not np.all(np.isfinite(params)):
        raise ValueError("training diverged: non-finite parameters (learning rate too high?)")
    return params


def eval_losses(params: np.ndarray, spec: MlpSpec, data) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample cross-entropy losses and argmax predictions (no proximal term)."""
    n = len(data.labels)
    if n == 0:
        raise ValueError("empty dataset")
    probs = _forward_batch(params, spec, np.asarray(data.features, dtype=np.float64))
    y = np.asarray(data.labels, dtype=np.int64)
    losses = -np.log(np.maximum(probs[np.arange(n), y], PROB_FLOOR))
    preds = probs.argmax(axis=1)
    return losses, preds
