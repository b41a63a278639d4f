import logging

import numpy as np
import pytest

from fedsim import model
from fedsim.adversary import (
    AttackSpec,
    gradient_ascent,
    pga_combine,
    pga_update,
    place_malicious,
    poison_dataset,
)
from fedsim.data import build_validation, gen_synthetic
from fedsim.errors import ConfigurationError
from fedsim.model import MlpSpec, TrainSpec


class TestPoisonDataset:
    def setup_method(self):
        self.data = gen_synthetic(4, 6, 400, 6.0, seed=17)

    def test_no_source_samples_is_noop(self):
        shard = self.data.subset(np.flatnonzero(self.data.labels != 2))
        poisoned = poison_dataset(shard, 2, 3)
        assert np.array_equal(poisoned.labels, shard.labels)

    def test_exact_relabel_count(self):
        source_count = int((self.data.labels == 1).sum())
        poisoned = poison_dataset(self.data, 1, 0)
        assert len(poisoned) == len(self.data)
        assert (poisoned.labels == 1).sum() == 0
        assert (poisoned.labels == 0).sum() == (self.data.labels == 0).sum() + source_count

    def test_features_and_other_labels_untouched(self):
        poisoned = poison_dataset(self.data, 1, 0)
        assert poisoned.features.tobytes() == self.data.features.tobytes()
        untouched = self.data.labels != 1
        assert np.array_equal(poisoned.labels[untouched], self.data.labels[untouched])

    def test_single_poisoned_client_learns_backdoor(self):
        val, rest = build_validation(self.data, per_label=20, seed=1)
        spec = MlpSpec((6, 12, 4), seed=2)
        g = model.init_params(spec)
        ts = TrainSpec(epochs=10, batch_size=16, learning_rate=0.2, seed=0)
        source_idx = val.label_indices[1]

        clean = model.local_train(g, spec, rest, ts)
        _, clean_preds = model.eval_losses(clean, spec, val.data, predict=True)
        clean_backdoor = (clean_preds[source_idx] == 0).mean()

        poisoned = model.local_train(g, spec, poison_dataset(rest, 1, 0), ts)
        _, backdoor_preds = model.eval_losses(poisoned, spec, val.data, predict=True)
        backdoor = (backdoor_preds[source_idx] == 0).mean()
        assert backdoor > clean_backdoor
        assert backdoor > 0.9  # the lone poisoned trainer fully commits


class TestPgaUpdate:
    def setup_method(self):
        self.data = gen_synthetic(3, 5, 300, 5.0, seed=23)
        self.spec = MlpSpec((5, 8, 3), seed=3)
        self.train = TrainSpec(epochs=2, batch_size=16, learning_rate=0.05, seed=7)
        self.global_params = model.init_params(self.spec)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0, 5.0])
    def test_returned_delta_norm_matches_benign_scaled(self, scale):
        benign = model.local_train(self.global_params, self.spec, self.data, self.train)
        benign_norm = np.linalg.norm(benign - self.global_params)
        out = pga_update(self.global_params, self.spec, self.data, self.train, scale, 2)
        out_norm = np.linalg.norm(out - self.global_params)
        assert out_norm == pytest.approx(scale * benign_norm, rel=1e-6)

    def test_ascent_increases_local_loss_monotonically(self):
        # start from a trained model so ascent has room to climb
        trained = model.local_train(self.global_params, self.spec, self.data, self.train)
        prev = None
        for epochs in range(1, 6):
            ascended = gradient_ascent(
                trained, self.spec, self.data,
                TrainSpec(epochs=1, batch_size=16, learning_rate=0.02, seed=5), epochs,
            )
            losses, _ = model.eval_losses(ascended, self.spec, self.data)
            if prev is not None:
                assert losses.mean() > prev
            prev = losses.mean()

    def test_zero_scale_returns_global(self):
        out = pga_update(self.global_params, self.spec, self.data, self.train, 0.0, 3)
        assert np.array_equal(out, self.global_params)

    def test_deterministic(self):
        a = pga_update(self.global_params, self.spec, self.data, self.train, 2.0, 2)
        b = pga_update(self.global_params, self.spec, self.data, self.train, 2.0, 2)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("zero, message", [
        ("ascent", "pga_combine: degenerate zero ascent delta, returning global model"),
        ("benign", "pga_combine: benign reference delta is zero, returning global model"),
    ])
    def test_zero_delta_returns_a_copy_of_the_global_model(self, caplog, zero, message):
        moved = self.global_params + 0.5
        unmoved = self.global_params.copy()
        ascended, benign = (unmoved, moved) if zero == "ascent" else (moved, unmoved)
        with caplog.at_level(logging.WARNING, logger="fedsim.adversary"):
            out = pga_combine(self.global_params, ascended, benign, 2.0)
        assert np.array_equal(out, self.global_params)
        assert not np.shares_memory(out, self.global_params)
        logged = [(r.levelno, r.getMessage()) for r in caplog.records]
        assert logged == [(logging.WARNING, message)]


class TestPlaceMalicious:
    def test_zero_fraction_empty(self):
        assert place_malicious(40, 0.0, 1) == frozenset()

    def test_eighty_percent_of_forty(self):
        ids = place_malicious(40, 0.8, 3)
        assert len(ids) == 32
        assert all(0 <= i < 40 for i in ids)

    def test_same_seed_same_set(self):
        assert place_malicious(40, 0.4, 9) == place_malicious(40, 0.4, 9)

    def test_floor_semantics(self):
        assert len(place_malicious(10, 0.25, 0)) == 2


class TestAttackSpec:
    def test_label_flip_needs_distinct_labels(self):
        with pytest.raises(ConfigurationError):
            AttackSpec(kind="label_flip", source_label=3, target_label=3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            AttackSpec(kind="gradient_inversion")

    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            AttackSpec(kind="pga", malicious_fraction=1.5)
