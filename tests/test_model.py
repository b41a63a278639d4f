import ctypes
import itertools
import math
import sys
import threading
from dataclasses import replace as dc_replace
from types import SimpleNamespace

import numpy as np
import pytest

from fedsim import adversary, model
from fedsim.data import Dataset, gen_synthetic
from fedsim.errors import ConfigurationError
from fedsim.model import MlpSpec, TrainSpec


def finite_diff_grad(params, spec, batch, global_params, prox_mu, h=1e-5):
    """Central-difference oracle, independent of the backprop path."""
    grad = np.empty_like(params)
    for i in range(params.shape[0]):
        plus = params.copy()
        plus[i] += h
        minus = params.copy()
        minus[i] -= h
        lp, _ = model.loss_and_grad(plus, spec, batch, global_params, prox_mu)
        lm, _ = model.loss_and_grad(minus, spec, batch, global_params, prox_mu)
        grad[i] = (lp - lm) / (2 * h)
    return grad


class TestInitParams:
    def test_deterministic(self):
        spec = MlpSpec((2, 3, 2), seed=7)
        assert np.array_equal(model.init_params(spec), model.init_params(spec))

    def test_layout_length(self):
        spec = MlpSpec((2, 3, 2))
        assert model.init_params(spec).shape == (2 * 3 + 3 + 3 * 2 + 2,)

    def test_weights_within_fan_in_bound(self):
        spec = MlpSpec((4, 8, 8, 3), seed=11)
        params = model.init_params(spec)
        for (w, b), nin in zip(model.unpack(params, spec), spec.layer_sizes[:-1]):
            assert np.all(np.abs(w) <= 1.0 / math.sqrt(nin))
            assert np.all(b == 0.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            MlpSpec((3,))
        with pytest.raises(ConfigurationError):
            MlpSpec((3, 0, 2))


def probabilities(params, spec, x):
    """The softmax output for one feature vector: `_softmax(_logits(...))`
    on a one-row batch."""
    batch = np.asarray(x, dtype=np.float64)[None, :]
    return model._softmax(model._logits(params, spec, batch))[0]


class TestForward:
    def test_zero_params_uniform(self):
        spec = MlpSpec((2, 3, 4))
        probs = probabilities(np.zeros(spec.param_count), spec, np.array([0.3, -1.2]))
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_sums_to_one(self):
        spec = MlpSpec((3, 5, 4), seed=1)
        rng = np.random.default_rng(0)
        params = model.init_params(spec)
        for _ in range(20):
            probs = probabilities(params, spec, rng.normal(size=3))
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(probs > 0.0)

    def test_huge_logits_stay_finite(self):
        spec = MlpSpec((2, 2))
        # weights push logits to +/- 1e3
        params = np.array([1e3, -1e3, 1e3, -1e3, 0.0, 0.0])
        probs = probabilities(params, spec, np.array([1.0, 1.0]))
        assert np.all(np.isfinite(probs))
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        spec = MlpSpec((3, 2))
        with pytest.raises(ConfigurationError):
            probabilities(np.zeros(spec.param_count), spec, np.array([1.0, 2.0]))


class TestLossAndGrad:
    def test_uniform_prediction_loss_is_log_k(self):
        spec = MlpSpec((4, 10))
        params = np.zeros(spec.param_count)
        x = np.random.default_rng(1).normal(size=(6, 4))
        y = np.arange(6) % 10
        loss, _ = model.loss_and_grad(params, spec, (x, y))
        assert loss == pytest.approx(math.log(10), abs=1e-12)

    def test_prox_vanishes_at_anchor(self):
        spec = MlpSpec((3, 4, 2), seed=5)
        params = model.init_params(spec)
        rng = np.random.default_rng(2)
        batch = (rng.normal(size=(5, 3)), rng.integers(0, 2, 5))
        l0, g0 = model.loss_and_grad(params, spec, batch, params, prox_mu=0.0)
        l5, g5 = model.loss_and_grad(params, spec, batch, params, prox_mu=5.0)
        assert l0 == l5
        assert np.array_equal(g0, g5)

    def test_gradient_matches_finite_differences(self):
        # 20 random draws across architectures/activations, rel err <= 1e-4
        rng = np.random.default_rng(42)
        for trial in range(20):
            layers = tuple(int(s) for s in rng.integers(2, 6, size=rng.integers(2, 4)))
            activation = "relu" if trial % 2 == 0 else "tanh"
            spec = MlpSpec(layers, activation=activation, seed=trial)
            params = model.init_params(spec) + rng.normal(0, 0.4, spec.param_count)
            anchor = model.init_params(spec)
            prox_mu = float(rng.choice([0.0, 0.5, 2.0]))
            batch = (
                rng.normal(size=(8, layers[0])),
                rng.integers(0, layers[-1], 8),
            )
            _, grad = model.loss_and_grad(params, spec, batch, anchor, prox_mu)
            fd = finite_diff_grad(params, spec, batch, anchor, prox_mu)
            mask = np.abs(grad) > 1e-6
            rel = np.abs(fd[mask] - grad[mask]) / np.abs(grad[mask])
            assert rel.max() <= 1e-4

    def test_empty_batch_rejected(self):
        spec = MlpSpec((2, 2))
        with pytest.raises(ValueError):
            model.loss_and_grad(np.zeros(spec.param_count), spec, (np.empty((0, 2)), np.empty(0)))

    def test_label_out_of_range_rejected(self):
        spec = MlpSpec((2, 2))
        with pytest.raises(ValueError):
            model.loss_and_grad(
                np.zeros(spec.param_count), spec, (np.zeros((1, 2)), np.array([2]))
            )


class TestLocalTrain:
    def setup_method(self):
        self.data = gen_synthetic(2, 4, 200, 10.0, seed=13)
        self.spec = MlpSpec((4, 8, 2), seed=3)
        self.start = model.init_params(self.spec)

    def test_zero_epochs_returns_global(self):
        out = model.local_train(self.start, self.spec, self.data, TrainSpec(epochs=0, seed=1))
        assert np.array_equal(out, self.start)

    def test_zero_learning_rate_returns_global(self):
        train = TrainSpec(epochs=3, learning_rate=0.0, seed=1)
        out = model.local_train(self.start, self.spec, self.data, train)
        assert np.array_equal(out, self.start)

    def test_deterministic_given_seed(self):
        train = TrainSpec(epochs=4, batch_size=16, learning_rate=0.05, seed=9)
        a = model.local_train(self.start, self.spec, self.data, train)
        b = model.local_train(self.start, self.spec, self.data, train)
        assert np.array_equal(a, b)

    def test_separable_blobs_reach_high_accuracy(self):
        train = TrainSpec(epochs=10, batch_size=16, learning_rate=0.1, seed=0)
        out = model.local_train(self.start, self.spec, self.data, train)
        _, preds = model.eval_losses(out, self.spec, self.data, predict=True)
        assert (preds == self.data.labels).mean() >= 0.95

    def test_prox_pulls_toward_anchor(self):
        # lr * mu must stay below 2 or the proximal step itself diverges
        train_free = TrainSpec(epochs=1, batch_size=16, learning_rate=1e-7, prox_mu=0.0, seed=4)
        train_prox = TrainSpec(epochs=1, batch_size=16, learning_rate=1e-7, prox_mu=1e6, seed=4)
        free = model.local_train(self.start, self.spec, self.data, train_free)
        pinned = model.local_train(self.start, self.spec, self.data, train_prox)
        assert np.linalg.norm(pinned - self.start) < np.linalg.norm(free - self.start)

    def test_empty_dataset_signaled(self):
        class Empty:
            features = np.empty((0, 4))
            labels = np.empty(0, dtype=np.int64)

        with pytest.raises(ValueError):
            model.local_train(self.start, self.spec, Empty(), TrainSpec())

    def test_divergence_raises_instead_of_returning_nans(self):
        # lr * prox_mu >> 2 makes the proximal recursion blow up geometrically
        train = TrainSpec(epochs=10, batch_size=16, learning_rate=0.05, prox_mu=1e6, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="diverged"):
                model.local_train(self.start, self.spec, self.data, train)


class TestCheckTrained:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_any_non_finite_coordinate_raises(self, bad):
        with pytest.raises(ValueError, match="training diverged"):
            model.check_trained(np.array([0.5, bad, 0.5]))

    def test_finite_params_pass_through(self):
        params = np.array([0.5, -2.0])
        assert model.check_trained(params) is params


def reference_sgd(global_params, spec, data, train, epochs, ascent=False):
    """Plain loop over the public loss_and_grad, one call per mini-batch."""
    params = global_params.copy()
    rng = np.random.default_rng(train.seed)
    n = len(data.labels)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, train.batch_size):
            idx = order[start : start + train.batch_size]
            batch = (data.features[idx], data.labels[idx])
            if ascent:
                _, grad = model.loss_and_grad(params, spec, batch)
                params += train.learning_rate * grad
            else:
                _, grad = model.loss_and_grad(
                    params, spec, batch, global_params=global_params, prox_mu=train.prox_mu
                )
                params -= train.learning_rate * grad
    return params


class TestSgdLoopMatchesReference:
    """local_train and gradient_ascent share one SGD loop that never computes
    the loss; it must match the reference loop bit for bit."""

    # 203 samples in batches of 16: every epoch ends on a batch of 11.
    def setup_method(self):
        self.data = gen_synthetic(3, 5, 203, 4.0, seed=21)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("prox_mu", [0.0, 0.5])
    def test_local_train(self, activation, prox_mu):
        spec = MlpSpec((5, 7, 6, 3), activation=activation, seed=4)
        start = model.init_params(spec)
        train = TrainSpec(epochs=3, batch_size=16, learning_rate=0.05, prox_mu=prox_mu, seed=8)
        out = model.local_train(start, spec, self.data, train)
        assert np.array_equal(out, reference_sgd(start, spec, self.data, train, train.epochs))
        assert not np.array_equal(out, start)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_gradient_ascent(self, activation):
        spec = MlpSpec((5, 7, 3), activation=activation, seed=4)
        start = model.init_params(spec)
        train = TrainSpec(epochs=3, batch_size=16, learning_rate=0.05, prox_mu=0.5, seed=8)
        out = adversary.gradient_ascent(start, spec, self.data, train, epochs=2)
        expected = reference_sgd(start, spec, self.data, train, 2, ascent=True)
        assert np.array_equal(out, expected)
        assert not np.array_equal(out, start)

    def test_label_out_of_range_rejected(self):
        spec = MlpSpec((5, 3), seed=0)
        bad = gen_synthetic(4, 5, 40, 4.0, seed=0)
        with pytest.raises(ValueError, match="labels"):
            model.local_train(model.init_params(spec), spec, bad, TrainSpec(epochs=1))


def reference_step(params, spec, x, y):
    """The gradient and probabilities of one mean cross-entropy step on one
    model, from the out-of-place formulas: `z = a @ w + b`, the activation
    as a new array, a row-wise softmax shifted by `max(axis=-1)`, and the
    ReLU gradient as a `(z > 0)` float mask. Shares no code with
    `model._backprop`."""
    layers = model.unpack(params, spec)
    relu = spec.activation == "relu"
    pre, acts = [], [x]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        pre.append(z)
        if i < len(layers) - 1:
            acts.append(np.maximum(z, 0.0) if relu else np.tanh(z))
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    delta = probs.copy()
    delta[np.arange(len(y)), y] -= 1.0
    delta /= len(y)
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        grads[i] = ((acts[i].T @ delta).ravel(), delta.sum(axis=0))
        if i > 0:
            mask = (pre[i - 1] > 0.0).astype(np.float64) if relu else 1.0 - acts[i] * acts[i]
            delta = (delta @ layers[i][0].T) * mask
    return np.concatenate([part for pair in grads for part in pair]), probs


class TestStackedStepMatchesReference:
    """`_backprop` over a stack of models gives, row for row, the bits of
    `reference_step`: its in-place ReLU with the mask read from the
    activation, its max chain over the class slices and its flat one-hot
    index change no bit."""

    def stack(self, spec, rows, n, seed):
        rng = np.random.default_rng(seed)
        params = np.stack([model.init_params(spec) + 0.5 * rng.normal(size=spec.param_count)
                           for _ in range(rows)])
        # Hidden unit 0 of the first layer has zero weights and a zero bias,
        # and unit 1 zero weights and a -0.0 bias: their pre-activations are
        # exactly zero, where the ReLU mask is 0. (The zero matmul column is
        # +0.0, so both sums are +0.0; the mask test below takes -0.0.)
        w, b = model._layer_views(params, spec)[0]
        w[:, :, :2] = 0.0
        b[:, 0], b[:, 1] = 0.0, -0.0
        x = rng.normal(size=(rows, n, spec.input_dim))
        x[1, 3, 0] = np.nan  # one sample of row 1 reads a NaN feature
        y = rng.integers(0, spec.num_classes, size=(rows, n))
        return params, x, y

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("sizes", [(5, 7, 3), (6, 9, 8, 10)])
    def test_gradients_and_probabilities_bit_identical(self, activation, sizes):
        spec = MlpSpec(sizes, activation=activation, seed=2)
        params, x, y = self.stack(spec, 4, 13, seed=len(sizes))
        grad = np.empty_like(params)
        probs = model._backprop(model._layer_views(params, spec),
                                model._layer_views(grad, spec), x, y, activation)
        for row in range(len(params)):
            want_grad, want_probs = reference_step(params[row], spec, x[row], y[row])
            assert grad[row].tobytes() == want_grad.tobytes()
            assert probs[row].tobytes() == want_probs.tobytes()
        # The NaN spreads through row 1's gradient and no other row's.
        assert np.isnan(grad[1]).any() and np.isfinite(np.delete(grad, 1, axis=0)).all()

    def test_relu_mask_from_the_activation_is_the_pre_activation_mask(self):
        z = np.array([-0.0, 0.0, np.nan, -np.inf, np.inf, 5e-324, -5e-324, 1.5, -2.0])
        a = z.copy()
        model._activate(a, "relu", out=a)
        assert np.array_equal(model._activate_grad(a, "relu"), z > 0.0)

    def test_softmax_max_chain_matches_the_row_max(self):
        # Ties, signed zeros, infinities and a NaN in any class slot.
        rng = np.random.default_rng(3)
        logits = rng.choice([-0.0, 0.0, 1.0, -1.0, 2.5, -np.inf, np.nan], size=(3, 40, 10))
        logits[..., -1] = rng.normal(size=(3, 40))
        with np.errstate(invalid="ignore"):
            want = np.exp(logits - logits.max(axis=-1, keepdims=True))
            want /= want.sum(axis=-1, keepdims=True)
            got = model._softmax(logits.copy())
        assert got.tobytes() == want.tobytes()


class TestCohortEngine:
    """train_rows trains a mixed cohort at once; every row must equal the
    reference loop run on that row alone from its own start, bit for bit,
    in any row order."""

    BATCH = 16
    LR = 0.05

    def starts(self, spec, count):
        # One start per row, as the strategies of a lockstep compare give;
        # each is also that row's proximal anchor.
        return [model.init_params(MlpSpec(spec.layer_sizes, spec.activation, seed=s))
                for s in range(count)]

    def cohort(self, spec):
        # Shards smaller than, equal to, a multiple of and not a multiple of
        # the batch size; three rows share length 45 so they form one group
        # at every batch offset, and the 45-sample shard also carries a
        # PGA-style ascent row on the same seed.
        sizes = {"small": 7, "batch": 16, "double": 32, "odd_a": 45, "odd_b": 45, "long": 203}
        data = {
            name: gen_synthetic(3, 5, n, 4.0, seed=30 + i)
            for i, (name, n) in enumerate(sizes.items())
        }
        # (shard, seed, epochs, ascent, prox_mu)
        specs = [
            ("small", 1, 2, False, 0.0),
            ("batch", 2, 3, False, 0.5),
            ("odd_a", 3, 2, True, 0.0),
            ("odd_a", 3, 3, False, 0.0),
            ("odd_b", 4, 3, False, 0.5),
            ("long", 5, 2, True, 0.0),
            ("double", 6, 3, False, 0.5),
        ]
        return [
            (
                model.SgdRow(start, data[name], seed, epochs, -self.LR if ascent else self.LR, mu),
                TrainSpec(epochs, self.BATCH, self.LR, mu, seed),
                data[name],
                ascent,
            )
            for start, (name, seed, epochs, ascent, mu) in zip(
                self.starts(spec, len(specs)), specs
            )
        ]

    def model_spec(self, wide, activation):
        if wide:
            # Two full batches of this width fill the step budget, so the
            # three-row group of 45-sample shards is split.
            width = model._STEP_ELEMENTS // (2 * self.BATCH)
            return MlpSpec((5, width, 3), activation=activation, seed=4)
        return MlpSpec((5, 7, 6, 3), activation=activation, seed=4)

    def assert_rows_match(self, spec, cohort):
        rows = [row for row, *_ in cohort]
        expected = [
            reference_sgd(row.start, spec, data, train, train.epochs, ascent=ascent)
            for row, train, data, ascent in cohort
        ]
        out = model.train_rows(spec, rows, self.BATCH)
        for got, want, row in zip(out, expected, rows):
            assert np.array_equal(got, want)
            assert not np.array_equal(got, row.start)

        perm = np.random.default_rng(0).permutation(len(rows))
        shuffled = model.train_rows(spec, [rows[i] for i in perm], self.BATCH)
        for got, i in zip(shuffled, perm):
            assert np.array_equal(got, expected[i])

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("wide", [False, True])
    def test_rows_match_reference_in_any_order(self, activation, wide):
        spec = self.model_spec(wide, activation)
        self.assert_rows_match(spec, self.cohort(spec))

    @pytest.mark.parametrize("wide", [False, True])
    def test_copies_of_one_shard_and_seed_share_a_permutation(self, wide):
        # Five strategies' rows for one client: one shard object, one seed,
        # five starts; among them a row of the same shard on another seed,
        # which must draw its own permutations, and one of another shard.
        spec = self.model_spec(wide, "relu")
        shard = gen_synthetic(3, 5, 45, 4.0, seed=40)
        other = gen_synthetic(3, 5, 45, 4.0, seed=41)
        train = TrainSpec(3, self.BATCH, self.LR, 0.5, seed=7)
        reseeded = dc_replace(train, seed=8)
        starts = self.starts(spec, 7)
        cohort = [(model.local_row(start, shard, train), train, shard, False)
                  for start in starts[:5]]
        cohort.insert(2, (model.local_row(starts[5], shard, reseeded), reseeded, shard, False))
        cohort.insert(4, (model.local_row(starts[6], other, train), train, other, False))
        self.assert_rows_match(spec, cohort)

    def test_pga_ascent_and_benign_rows_share_a_permutation(self):
        # An attacker's ascent (5 epochs) and benign reference (10 epochs) on
        # one shard and seed: the shared generator must keep drawing for the
        # benign row after the ascent row drops out.
        spec = self.model_spec(False, "tanh")
        shard = gen_synthetic(3, 5, 45, 4.0, seed=42)
        train = TrainSpec(10, self.BATCH, self.LR, 0.5, seed=9)
        start, other_start = self.starts(spec, 2)
        ascent, benign = adversary.pga_rows(start, shard, train, ascent_epochs=5)
        cohort = [
            (ascent, dc_replace(train, epochs=5), shard, True),
            (benign, dc_replace(train, prox_mu=0.0), shard, False),
            (model.local_row(other_start, shard, train), train, shard, False),
        ]
        self.assert_rows_match(spec, cohort)

    def test_idle_row_on_its_own_shard_beside_trained_rows(self):
        # The idle row's shard is the largest and its key is the first, so
        # the key-indexed batch buffers hold a slot that no phase fills.
        spec = self.model_spec(False, "relu")
        cohort = self.cohort(spec)
        idle_start = model.init_params(spec)
        idle = model.SgdRow(idle_start, gen_synthetic(3, 5, 300, 4.0, seed=43), 1, 0, self.LR)
        out = model.train_rows(spec, [idle] + [row for row, *_ in cohort], self.BATCH)
        assert np.array_equal(out[0], idle_start)
        for got, (row, train, data, ascent) in zip(out[1:], cohort):
            want = reference_sgd(row.start, spec, data, train, train.epochs, ascent=ascent)
            assert np.array_equal(got, want)

    def test_zero_epoch_row_returns_global_and_empty_cohort(self):
        spec = MlpSpec((5, 4, 3), seed=1)
        start = model.init_params(spec)
        data = gen_synthetic(3, 5, 20, 4.0, seed=0)
        idle, busy = model.train_rows(
            spec, [model.SgdRow(start, data, 1, 0, 0.1), model.SgdRow(start, data, 1, 1, 0.1)], 8
        )
        assert np.array_equal(idle, start)
        assert not np.array_equal(busy, start)
        assert model.train_rows(spec, [], 8) == []


def spy_row_steps(monkeypatch):
    """A list whose one entry counts the rows of every stacked `_backprop`
    step taken since the spy was set."""
    counted = [0]
    honest = model._backprop

    def backprop(layers, grads, x, y, activation):
        counted[0] += len(y)
        return honest(layers, grads, x, y, activation)

    monkeypatch.setattr(model, "_backprop", backprop)
    return counted


class TestEveryRowTrains:
    """`train_rows` trains exactly the rows it is given, a repeated row as
    often as it is given; sharing one strategy's rows among several is the
    round's decision (`TestRunExperiments` in tests/test_orchestrator.py)."""

    def test_repeated_rows_each_train_alone_and_apart(self, monkeypatch):
        spec, batch = MlpSpec((5, 7, 3), seed=4), 16
        counted = spy_row_steps(monkeypatch)
        shard = gen_synthetic(3, 5, 45, 4.0, seed=50)
        row = model.SgdRow(model.init_params(spec), shard, 7, 3, 0.05, 0.5)
        # A PGA pair with equal epochs differs only in the sign of the step.
        ascent, benign = adversary.pga_rows(row.start, shard, TrainSpec(3, batch, 0.05, seed=7), 3)
        rows = [row, dc_replace(row, seed=8), row, ascent, benign, row, ascent]
        alone, own_steps = [], []
        for r in rows:
            counted[0] = 0
            alone += model.train_rows(spec, [r], batch)
            own_steps.append(counted[0])

        counted[0] = 0
        out = model.train_rows(spec, rows, batch)
        assert counted[0] == sum(own_steps)
        assert [o.tobytes() for o in out] == [a.tobytes() for a in alone]
        for i, j in itertools.combinations(range(len(out)), 2):
            assert not np.shares_memory(out[i], out[j]), (i, j)


class TestEvalLosses:
    def test_zero_params_loss_is_log_k(self):
        spec = MlpSpec((4, 4))
        data = gen_synthetic(4, 4, 40, 1.0, seed=0)
        losses, _ = model.eval_losses(np.zeros(spec.param_count), spec, data)
        assert np.allclose(losses, math.log(4), atol=1e-12)

    def test_output_lengths(self):
        spec = MlpSpec((4, 5, 4), seed=2)
        data = gen_synthetic(4, 4, 57, 3.0, seed=1)
        params = model.init_params(spec)
        losses, preds = model.eval_losses(params, spec, data, predict=True)
        assert losses.shape == (57,)
        assert preds.shape == (57,)

    def test_mean_matches_loss_and_grad(self):
        spec = MlpSpec((4, 5, 4), seed=2)
        data = gen_synthetic(4, 4, 64, 3.0, seed=1)
        params = model.init_params(spec)
        losses, _ = model.eval_losses(params, spec, data)
        loss, _ = model.loss_and_grad(params, spec, (data.features, data.labels))
        assert losses.mean() == pytest.approx(loss, abs=1e-9)

    def test_saturated_wrong_prediction_costs_the_floor(self):
        # Logits 1000 apart give the true label a probability of exp(-1000),
        # which is 0.0; the floor makes the loss -log(PROB_FLOOR), not inf.
        spec = MlpSpec((2, 2))
        params = np.array([500.0, -500.0, -500.0, 500.0, 0.0, 0.0])
        data = Dataset(np.array([[1.0, 0.0]]), np.array([1]), 2)
        losses, _ = model.eval_losses(params, spec, data)
        loss, _ = model.loss_and_grad(params, spec, (data.features, data.labels))
        assert losses[0] == pytest.approx(-math.log(1e-12), rel=1e-12)
        assert loss == pytest.approx(-math.log(1e-12), rel=1e-12)


def reference_probs(params, spec, x):
    """The out-of-place forward, `z = a @ w + b; a = act(z)` per layer and a
    softmax of fresh arrays, that the in-place one must match bit for bit."""
    a = x
    layers = model.unpack(params, spec)
    for i, (w, b) in enumerate(layers):
        z = a @ w + b
        if i == len(layers) - 1:
            a = z
        else:
            a = np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z)
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reference_eval_losses(params, spec, data):
    probs = reference_probs(params, spec, data.features)
    picked = probs[np.arange(len(data.labels)), data.labels]
    return -np.log(np.maximum(picked, model.PROB_FLOOR)), probs.argmax(axis=1)


class TestInPlaceForwardMatchesReference:
    @pytest.fixture(params=["relu", "tanh"])
    def activation(self, request):
        return request.param

    @pytest.mark.parametrize("n", [1, 2000])
    @pytest.mark.parametrize("sizes", [(16, 128, 10), (4, 8, 8, 3)])
    def test_eval_losses_bit_identical(self, activation, n, sizes):
        spec = MlpSpec(sizes, activation=activation, seed=3)
        data = gen_synthetic(sizes[-1], sizes[0], max(n, 50), 4.0, seed=n).subset(np.arange(n))
        rng = np.random.default_rng(n)
        # The last scale saturates the softmax, so the probability floor and
        # the max shift both matter.
        for scale in (0.0, 0.3, 3.0, 40.0):
            params = model.init_params(spec) + scale * rng.normal(size=spec.param_count)
            losses, preds = model.eval_losses(params, spec, data, predict=True)
            want_losses, want_preds = reference_eval_losses(params, spec, data)
            assert np.array_equal(losses, want_losses)
            assert np.array_equal(preds, want_preds)

    def test_forward_bit_identical(self, activation):
        spec = MlpSpec((16, 128, 10), activation=activation, seed=5)
        rng = np.random.default_rng(8)
        for scale in (0.3, 40.0):
            params = model.init_params(spec) + scale * rng.normal(size=spec.param_count)
            x = rng.normal(size=16)
            got = probabilities(params, spec, x)
            assert np.array_equal(got, reference_probs(params, spec, x[None, :])[0])

    def test_inputs_untouched(self, activation):
        spec = MlpSpec((4, 8, 3), activation=activation, seed=1)
        data = gen_synthetic(3, 4, 30, 4.0, seed=0)
        params = model.init_params(spec)
        features, labels, before = data.features.copy(), data.labels.copy(), params.copy()
        model.eval_losses(params, spec, data)
        assert np.array_equal(data.features, features)
        assert np.array_equal(data.labels, labels)
        assert np.array_equal(params, before)


# Class counts around numpy's pairwise-summation thresholds: rows shorter
# than 8 add in order, rows up to 128 add in eight lanes, and longer rows
# split in two.
TAIL_CLASSES = [1, 2, 3, 7, 8, 9, 10, 17, 129, 300]


def tail_case(k, n=301, seed=0):
    """A 6-16-k relu spec and n random rows with labels in [0, k)."""
    rng = np.random.default_rng(seed)
    spec = MlpSpec((6, 16, k), seed=seed)
    data = SimpleNamespace(
        features=rng.normal(size=(n, 6)), labels=rng.integers(0, k, size=n)
    )
    return spec, data


class TestClassMajorTail:
    @pytest.mark.parametrize("k", TAIL_CLASSES)
    def test_eval_losses_match_reference(self, k):
        spec, data = tail_case(k)
        rng = np.random.default_rng(k)
        base = model.init_params(spec)
        noise = rng.normal(size=spec.param_count)
        cases = [base + scale * noise for scale in (0.0, 0.3, 40.0, 1e200)]
        # One infinite and one NaN weight, in the last layer's weights.
        last = spec.param_count - k - 1
        for bad in (np.inf, np.nan):
            params = base + 0.3 * noise
            params[last] = bad
            cases.append(params)
        for params in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                losses, preds = model.eval_losses(params, spec, data, predict=True)
                want_losses, want_preds = reference_eval_losses(params, spec, data)
            assert np.array_equal(losses, want_losses, equal_nan=True)
            assert np.array_equal(preds, want_preds)

    def test_predictions_only_on_request(self):
        spec, data = tail_case(10)
        params = model.init_params(spec)
        losses, preds = model.eval_losses(params, spec, data)
        assert preds is None
        assert np.array_equal(losses, model.eval_losses(params, spec, data, predict=True)[0])

    @pytest.mark.parametrize("k", TAIL_CLASSES)
    def test_class_sums_match_numpy_row_sums(self, k):
        rng = np.random.default_rng(k)
        for x in (rng.exponential(size=(257, k)), rng.normal(size=(257, k)) * 1e6,
                  np.exp(rng.normal(size=(257, k)) * 30.0)):
            assert np.array_equal(model.class_sums(np.ascontiguousarray(x.T)), x.sum(axis=-1))


def blas_thread_count() -> int | None:
    """OpenBLAS's thread count as `blas_fingerprint` reads it."""
    return model._openblas_call("openblas_get_num_threads", ctypes.c_int)


def set_blas_thread_count(count: int) -> None:
    """Set the thread count of the OpenBLAS that numpy bundles, as starting
    Python with OPENBLAS_NUM_THREADS=count would."""
    lib = model._openblas()
    setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    (setter or lib.openblas_set_num_threads)(count)


def eval_threads(monkeypatch):
    """Record the thread of every model evaluation: `_logits` runs once per
    evaluated model."""
    threads = []
    honest = model._logits

    def spy(*args):
        threads.append(threading.get_ident())
        return honest(*args)

    monkeypatch.setattr(model, "_logits", spy)
    return threads


# The benchmark's wide validation set (2000 rows through 16-128-10) and its
# narrow one (100 rows through 16-32-10).
COHORT_SHAPES = {"wide": ((16, 128, 10), 2000), "narrow": ((16, 32, 10), 100)}


def cohort_case(shape, count, seed=0):
    """A spec, a data set and `count` models around the initial one, every
    other model as a (start, delta) pair."""
    sizes, n = COHORT_SHAPES[shape]
    spec = MlpSpec(sizes, seed=seed)
    data = gen_synthetic(sizes[-1], sizes[0], n, 4.0, seed=seed)
    rng = np.random.default_rng(seed)
    start = model.init_params(spec)
    models = []
    for i in range(count):
        delta = rng.uniform(0.1, 2.0) * rng.normal(size=spec.param_count)
        models.append((start, delta) if i % 2 else start + delta)
    return spec, data, models


def as_array(m):
    return m[0] + m[1] if isinstance(m, tuple) else m


class TestEvalCohort:
    @pytest.mark.parametrize("predict", [False, True])
    @pytest.mark.parametrize("count", [1, 2, 5, 30])
    @pytest.mark.parametrize("shape", ["wide", "narrow"])
    def test_matches_a_sequential_loop(self, monkeypatch, shape, count, predict):
        spec, data, models = cohort_case(shape, count, seed=count)
        threads = eval_threads(monkeypatch)
        got = model.eval_cohort(models, spec, data, predict=predict)
        assert set(threads) == {threading.get_ident()}
        assert len(got) == count
        for m, (losses, preds) in zip(models, got):
            want_losses, want_preds = model.eval_losses(as_array(m), spec, data, predict=predict)
            assert np.array_equal(losses, want_losses)
            assert np.array_equal(losses, reference_eval_losses(as_array(m), spec, data)[0])
            if predict:
                assert np.array_equal(preds, want_preds)
            else:
                assert preds is None and want_preds is None

    def test_pairs_leave_their_parts_untouched(self):
        spec, data, models = cohort_case("wide", 4)
        start, delta = models[1]
        before = start.copy(), delta.copy()
        model.eval_cohort(models, spec, data)
        assert np.array_equal(start, before[0]) and np.array_equal(delta, before[1])

    def test_model_error_reaches_the_caller(self):
        # An error in one model of a cohort reaches the caller, and the next
        # cohort evaluates.
        spec, data, models = cohort_case("wide", 4)
        models[1] = np.zeros(spec.param_count + 1)
        with pytest.raises(ConfigurationError, match="parameter vector has length"):
            model.eval_cohort(models, spec, data)
        models[1] = models[0]
        losses = [l for l, _ in model.eval_cohort(models, spec, data)]
        assert np.array_equal(losses[1], losses[0])

    def test_runs_under_the_callers_error_state(self):
        spec, data, models = cohort_case("wide", 2)
        models[1] = 1e200 * as_array(models[1])  # overflows in the second evaluation
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            model.eval_cohort(models, spec, data)

    def test_concurrent_callers_each_get_their_own_results(self):
        # More calling threads than cores, switching often; each must get the
        # sequential results of its cohort.
        cases = [cohort_case("wide", 5, seed=seed) for seed in range(4)]
        want = [[model.eval_losses(as_array(m), spec, data)[0] for m in models]
                for spec, data, models in cases]
        got = [[] for _ in cases]

        def run(i):
            spec, data, models = cases[i]
            for _ in range(3):
                got[i].append([l for l, _ in model.eval_cohort(models, spec, data)])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
        before = blas_thread_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert blas_thread_count() == before
        for runs, expected in zip(got, want):
            assert len(runs) == 3
            for losses in runs:
                assert all(np.array_equal(a, b) for a, b in zip(losses, expected))
