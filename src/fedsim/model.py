"""Small dense classifier with manual backpropagation, and the SGD engine
that trains a whole cohort of clients at once.

Parameters live in a single flat float64 vector (the currency that every
aggregation strategy operates on). Layout: for each layer, the weight
matrix in C order followed by its bias vector.

`train_rows` runs every local update of a round, benign training and
gradient ascent alike, as rows of one (R, P) parameter stack. Each
mini-batch step is one stacked forward/backward pass over the rows whose
batches have the same length. That grouping is what keeps every row bit for
bit equal to training it alone: a stacked matmul over equal shapes repeats
the 2-D result exactly, but a zero-padded batch does not. Each row carries
its own start, which is also its proximal anchor, so one call can train the
cohorts of several strategies that share a round. Every row it is given
trains: sharing one strategy's rows among several, as `compare`'s round 0
does, is the round's decision (`orchestrator._lockstep_round`), not the
engine's. Rows on the same shard object with the same seed draw the same
permutations: they share one generator and one permuted copy of the shard
per epoch, from which each step gathers its batches. Within a step the ReLU
runs in place on the pre-activation, and its gradient mask is read from the
activation, `a > 0`, which is `z > 0` bit for bit.

Evaluation (`eval_cohort`, and `eval_losses`, its one-model case) runs each
model in turn over all of the rows at once, never in chunks: OpenBLAS
rounds a matmul over fewer rows differently. Each layer writes its matmul
result into a buffer that the whole cohort reuses and applies the bias and
the activation to it in place, which gives the same bits as the
out-of-place formula. The softmax tail then runs on one class-major copy of
the logits, (K, n), so that every reduction over the classes is a handful
of length-n vector operations instead of n tiny length-K ones: the max is
exact in any order, and `class_sums` adds each column in numpy's own order
for a length-K row. Argmax predictions are computed only for the callers
that read them.

Everything runs on the calling thread; the library starts no thread and
never sets OpenBLAS's thread count, which belongs to the process that
starts Python.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
from dataclasses import dataclass

import numpy as np

from fedsim.errors import ConfigurationError

ACTIVATIONS = ("relu", "tanh")

# Probabilities are floored before log so poisoned models with large but
# finite logits yield large finite losses instead of inf.
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
    return _layer_views(params, spec)


def _layer_views(params: np.ndarray, spec: MlpSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """`unpack` for a parameter vector or an (R, P) stack of them, whose
    layers are (R, nin, nout) weights and (R, nout) biases."""
    lead = params.shape[:-1]
    layers = []
    offset = 0
    sizes = spec.layer_sizes
    for nin, nout in zip(sizes[:-1], sizes[1:]):
        w = params[..., offset : offset + nin * nout].reshape(*lead, nin, nout)
        offset += nin * nout
        b = params[..., offset : offset + nout]
        offset += nout
        layers.append((w, b))
    return layers


def _activate(z: np.ndarray, activation: str, out: np.ndarray | None = None) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0, out=out)
    return np.tanh(z, out=out)


def _activate_grad(a: np.ndarray, activation: str) -> np.ndarray:
    """The activation's derivative, read from its output `a`: ReLU's
    `a > 0` is `z > 0` (a NaN `z` gives a NaN `a`), and tanh's is
    `1 - a * a`."""
    if activation == "relu":
        return a > 0.0
    return 1.0 - a * a


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, written over `logits`, which it returns.

    The max is an `np.maximum` chain over the class slices, which gives the
    bits of `logits.max(axis=-1)` up to the sign of a zero, and `exp` makes
    no difference between `z - 0.0` and `z - -0.0`; a NaN still propagates.
    """
    top = np.maximum(logits[..., 0], logits[..., -1])
    for k in range(1, logits.shape[-1] - 1):
        np.maximum(top, logits[..., k], out=top)
    logits -= top[..., None]
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _logits(
    params: np.ndarray, spec: MlpSpec, x: np.ndarray, out: list[np.ndarray] | None = None
) -> np.ndarray:
    """Logits for a batch, shape (n, K).

    Each layer's matmul result goes into `out[layer]` (n, width), or a new
    array without `out`; the bias and the activation are then applied to it
    in place. These are the same operations in the same order as
    `z = a @ w + b; a = act(z)`, so the logits are bit for bit those of the
    out-of-place formula.
    """
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ConfigurationError(
            f"features have shape {x.shape}, spec input dim is {spec.input_dim}"
        )
    a = x
    layers = unpack(params, spec)
    for i, (w, b) in enumerate(layers):
        a = np.matmul(a, w, out=None if out is None else out[i])
        a += b
        if i < len(layers) - 1:
            _activate(a, spec.activation, out=a)
    return a


def class_sums(t: np.ndarray) -> np.ndarray:
    """Column sums of a class-major (K, n) array with the bits of numpy's
    row sums `t.T.sum(axis=-1)`.

    numpy sums a row pairwise: fewer than 8 terms in order; up to 128 in
    eight lanes, each adding every eighth term, which are combined as a tree
    before the remainder is added in order; a longer row is split in two at
    a multiple of 8 below its middle. (Only a sum of negative zeros can
    differ, in its sign.)
    """
    k = len(t)
    if k < 8:
        s = t[0].copy()
        for row in t[1:]:
            s += row
        return s
    if k <= 128:
        lanes = t[:8].copy()
        full = k - k % 8
        for i in range(8, full, 8):
            lanes += t[i : i + 8]
        s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
        s += (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        for row in t[full:]:
            s += row
        return s
    half = k // 2 - k // 2 % 8
    return class_sums(t[:half]) + class_sums(t[half:])


def _backprop(
    layers: list[tuple[np.ndarray, np.ndarray]],
    grads: list[tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    y: np.ndarray,
    activation: str,
) -> np.ndarray:
    """Stacked forward and backward pass of the mean cross-entropy.

    Row g of the stack is one model, (weights (G, nin, nout), biases (G, nout))
    per layer, on its own batch x[g] (n, d) with labels y[g] (n,); every row's
    batch has the same length n. Writes each row's layer gradients into the
    matching views of `grads` and returns the class probabilities (G, n, K).
    Labels must already be known to lie in [0, K).
    """
    g, n = y.shape
    acts = [x]  # input and post-activation outputs
    a = x
    for i, (w, b) in enumerate(layers):
        a = np.matmul(a, w)
        a += b[:, None, :]
        if i < len(layers) - 1:
            _activate(a, activation, out=a)
        acts.append(a)

    probs = _softmax(a)

    # Backward pass; dZ for the softmax+CE head is (p - onehot) / n, the
    # one-hot subtracted at each sample's flat index.
    delta = probs.copy()
    k = delta.shape[-1]
    delta.reshape(-1)[np.arange(0, g * n * k, k) + y.reshape(-1)] -= 1.0
    delta /= n

    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw, gb = grads[i]
        np.matmul(acts[i].transpose(0, 2, 1), delta, out=gw)
        delta.sum(axis=1, out=gb)
        if i > 0:
            delta = np.matmul(delta, w.transpose(0, 2, 1))
            delta *= _activate_grad(acts[i], activation)
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
    # The one-row case of the stacked kernel.
    layers = [(w[None], b[None]) for w, b in unpack(params, spec)]
    grads = [(gw[None], gb[None]) for gw, gb in unpack(grad, spec)]
    probs = _backprop(layers, grads, x[None], y[None], spec.activation)[0]
    loss = float(-np.mean(np.log(np.maximum(probs[np.arange(n), y], PROB_FLOOR))))

    if prox_mu > 0.0:
        if global_params is None:
            raise ValueError("prox_mu > 0 requires global (anchor) parameters")
        diff = params - global_params
        loss += 0.5 * prox_mu * float(diff @ diff)
        grad += prox_mu * diff
    return loss, grad


@dataclass(frozen=True)
class SgdRow:
    """One local update for `train_rows`: `epochs` passes over `data` from
    `start`, each in the order of one permutation drawn from `seed`, with
    steps `params -= step * grad`. A negative step ascends the loss;
    prox_mu > 0 adds the proximal pull toward `start`, the round's global
    model.

    `data` is any object with `features` (n, d) and `labels` (n,) arrays.
    """

    start: np.ndarray
    data: object
    seed: int
    epochs: int
    step: float
    prox_mu: float = 0.0


# Rows that step together are capped so that the widest per-step temporary,
# rows x batch length x widest layer, holds about this many float64s. More
# rows per step save Python calls; past this size a wide model loses that
# saving to memory traffic and peak memory grows.
_STEP_ELEMENTS = 16384


def rows_per_step(spec: MlpSpec, batch_len: int) -> int:
    """How many rows one stacked step over batches of `batch_len` may hold."""
    return max(1, _STEP_ELEMENTS // (batch_len * max(spec.layer_sizes)))


# A diverging row overflows quietly; the caller refuses non-finite results.
@np.errstate(over="ignore", invalid="ignore")
def train_rows(spec: MlpSpec, rows: list[SgdRow], batch_size: int) -> list[np.ndarray]:
    """Run every row's mini-batch SGD from its start; return the trained
    parameters in row order.

    Each row gives bit for bit the parameters that training it alone would
    give, whatever else is in `rows`. Every row trains, a repeated row as
    often as it is given, and each is returned as its own row of one trained
    stack, so no two returned rows share memory. Rows on the same shard
    object with the same seed draw the same permutations, so they share one
    generator and one permuted copy of the shard per epoch. The loss is
    never computed; a run's diverged rows are refused by
    `orchestrator._client_deltas`, which `check_trained`s each one. A row
    with zero epochs returns its start.
    """
    if not rows:
        return []
    # One key per (shard object, seed): its features, labels and generator.
    keys: dict[tuple[int, int], int] = {}
    row_keys, features, labels, rngs = [], [], [], []
    for row in rows:
        key = keys.setdefault((id(row.data), row.seed), len(keys))
        if key == len(labels):
            y = np.asarray(row.data.labels, dtype=np.int64)
            if len(y) == 0:
                raise ValueError("client dataset is empty")
            features.append(np.asarray(row.data.features, dtype=np.float64))
            labels.append(y)
            rngs.append(np.random.default_rng(row.seed))
        if row.epochs:
            _check_labels(labels[key], spec)
        row_keys.append(key)

    # Sorted by shard size, the rows whose batch at a given offset has the
    # same length sit next to each other, so every group is a slice; within
    # a size, the rows of one key sit together and so read one copy.
    order = sorted(range(len(rows)), key=lambda r: (-len(labels[row_keys[r]]), row_keys[r]))
    params = np.stack([rows[r].start for r in order])
    done = 0
    # Rows with fewer epochs drop out after theirs; the rest train on.
    for end in sorted({row.epochs for row in rows} - {0}):
        live = [i for i, r in enumerate(order) if rows[r].epochs >= end]
        work = params if len(live) == len(rows) else params[live]
        _run_epochs(
            work,
            spec,
            [rows[order[i]] for i in live],
            [row_keys[order[i]] for i in live],
            features,
            labels,
            rngs,
            batch_size,
            end - done,
        )
        if work is not params:
            params[live] = work
        done = end

    return [params[i] for i in np.argsort(order)]


def _run_epochs(
    params: np.ndarray,
    spec: MlpSpec,
    rows: list[SgdRow],
    row_keys: list[int],
    features: list[np.ndarray],
    labels: list[np.ndarray],
    rngs: list[np.random.Generator],
    batch_size: int,
    epochs: int,
) -> None:
    """`epochs` epochs of every row of `params` (R, P) in place; the rows are
    sorted by shard size, largest first, and by key, and `features`, `labels`
    and `rngs` are indexed by key."""
    sizes = [len(labels[k]) for k in row_keys]
    keys = np.array(row_keys)
    steps = np.array([row.step for row in rows])[:, None]
    mus = np.array([row.prox_mu for row in rows])[:, None]
    # When any row has a proximal term, every row pulls toward its start; a
    # row with mu 0 adds zeros.
    anchors = np.stack([row.start for row in rows]) if mus.any() else None

    # Every epoch steps through the same groups: (first row, end row, batch
    # offset, batch length), each a run of rows with one batch length.
    groups = []
    for start in range(0, sizes[0], batch_size):
        lo = 0
        for n, run in itertools.groupby(min(s - start, batch_size) for s in sizes if s > start):
            end = lo + len(list(run))
            cap = rows_per_step(spec, n)
            groups += [(first, min(first + cap, end), start, n) for first in range(lo, end, cap)]
            lo = end

    grad = np.empty((max(last - first for first, last, _, _ in groups), params.shape[1]))
    # Each epoch's permuted shards, one slot per key; the batch of a row of
    # key k at offset o is x[k, o : o + n].
    x = np.empty((len(labels), sizes[0], spec.input_dim))
    y = np.empty((len(labels), sizes[0]), dtype=np.int64)
    plan = []
    for first, last, start, n in groups:
        p, g = params[first:last], grad[: last - first]
        prox = (mus[first:last], None if anchors is None else anchors[first:last])
        plan.append((_layer_views(p, spec), _layer_views(g, spec),
                     (keys[first:last], slice(start, start + n)), p, g, steps[first:last], prox))

    for _ in range(epochs):
        for key in dict.fromkeys(row_keys):  # each live key once
            perm = rngs[key].permutation(len(labels[key]))
            features[key].take(perm, axis=0, out=x[key, : len(perm)])
            labels[key].take(perm, out=y[key, : len(perm)])
        for row_layers, row_grads, batch, p, g, step, (mu, anchor) in plan:
            _backprop(row_layers, row_grads, x[batch], y[batch], spec.activation)
            if anchor is not None:
                g += mu * (p - anchor)
            np.multiply(g, step, out=g)
            p -= g


def check_trained(params: np.ndarray, ascent: bool = False) -> np.ndarray:
    """Return `params`, or raise if the local training (with `ascent`, the
    gradient ascent) that gave them diverged to non-finite values."""
    if not np.all(np.isfinite(params)):
        if ascent:
            raise ValueError("ascent diverged: non-finite parameters")
        raise ValueError("training diverged: non-finite parameters (learning rate too high?)")
    return params


def local_row(start: np.ndarray, data, train: TrainSpec) -> SgdRow:
    """The `train_rows` row of plain local training under `train` from `start`."""
    return SgdRow(start, data, train.seed, train.epochs, train.learning_rate, train.prox_mu)


def local_train(
    global_params: np.ndarray,
    spec: MlpSpec,
    data,
    train: TrainSpec,
) -> np.ndarray:
    """Mini-batch SGD from the global model; deterministic for a given seed.

    `data` is any object with `features` (n, d) and `labels` (n,) arrays.
    """
    (params,) = train_rows(spec, [local_row(global_params, data, train)], train.batch_size)
    return check_trained(params)


def eval_losses(
    params: np.ndarray, spec: MlpSpec, data, *, predict: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-sample cross-entropy losses (no proximal term) and, with
    `predict`, argmax predictions; without it the predictions are None.
    The one-model case of `eval_cohort`."""
    (result,) = eval_cohort([params], spec, data, predict=predict)
    return result


def eval_cohort(
    models: list[np.ndarray | tuple[np.ndarray, np.ndarray]],
    spec: MlpSpec,
    data,
    *,
    predict: bool = False,
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """`eval_losses` of every model on `data`, in input order. A model is a
    parameter vector or a `(start, delta)` pair, evaluated as
    `start + delta` without keeping that sum.

    The softmax runs on the class-major logits (K, n): the same shift, exp
    and division per element as the row-wise `_softmax`, and column sums in
    numpy's row order, so losses and predictions are bit for bit the
    row-wise ones. Only the picked probabilities are divided unless the
    predictions need them all. Every model is evaluated in turn into one set
    of buffers.
    """
    n = len(data.labels)
    if n == 0:
        raise ValueError("empty dataset")
    x = np.asarray(data.features, dtype=np.float64)
    # Each sample's own-label entry in the flat class-major logits.
    picks = np.asarray(data.labels, dtype=np.int64) * n + np.arange(n)
    losses = np.empty((len(models), n))
    preds = np.empty((len(models), n), dtype=np.intp) if predict else None

    layers = [np.empty((n, width)) for width in spec.layer_sizes[1:]]
    t, top, summed = np.empty((spec.num_classes, n)), np.empty(n), np.empty(spec.param_count)
    for i, (params, row) in enumerate(zip(models, losses)):
        if isinstance(params, tuple):
            params = np.add(*params, out=summed)
        np.copyto(t, _logits(params, spec, x, layers).T)
        t -= np.max(t, axis=0, out=top)
        np.exp(t, out=t)
        sums = class_sums(t)
        np.take(t, picks, out=row)
        row /= sums
        np.maximum(row, PROB_FLOOR, out=row)
        np.log(row, out=row)
        np.negative(row, out=row)
        if preds is not None:
            t /= sums
            np.argmax(t, axis=0, out=preds[i])
    return [(losses[i], None if preds is None else preds[i]) for i in range(len(models))]


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS library that numpy bundles, opened once, or None when
    numpy brings none. `blas_fingerprint` reads it."""
    root = os.path.dirname(np.__file__)
    for folder in (root + ".libs", os.path.join(root, ".dylibs")):
        try:
            names = sorted(os.listdir(folder))
        except OSError:
            continue
        for name in names:
            if "openblas" not in name:
                continue
            try:
                return ctypes.CDLL(os.path.join(folder, name))
            except OSError:
                continue
    return None


def _openblas_call(name: str, restype):
    """OpenBLAS's argument-free function `name`, called under the name that
    numpy's scipy-openblas build exports (`scipy_<name>64_`) or else its
    own; None when numpy's OpenBLAS has neither."""
    lib = _openblas()
    for symbol in (f"scipy_{name}64_", name):
        function = getattr(lib, symbol, None)
        if function is not None:
            function.argtypes, function.restype = [], restype
            return function()
    return None


def blas_fingerprint() -> dict[str, str | int | list[str] | None]:
    """The numpy and OpenBLAS that a run's bits depend on, for its manifest:
    the numpy version and the SIMD targets its loops run on (the enabled
    ones, else its baseline; None where numpy does not report them),
    OpenBLAS's build string, the kernel it runs and its thread count, and
    the two variables that choose them. The OpenBLAS fields are None where
    numpy bundles no OpenBLAS."""
    try:
        simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    except TypeError:  # numpy before 1.25 has no "dicts" mode
        simd = {}
    config = _openblas_call("openblas_get_config", ctypes.c_char_p)
    corename = _openblas_call("openblas_get_corename", ctypes.c_char_p)
    return {
        "numpy_version": np.__version__,
        "numpy_simd": simd.get("found") or simd.get("baseline") or None,
        "openblas_config": None if config is None else config.decode(),
        "openblas_corename": None if corename is None else corename.decode(),
        "openblas_num_threads": _openblas_call("openblas_get_num_threads", ctypes.c_int),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
    }
