import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as hnp

from fedsim import aggregators, fedval, model
from fedsim.aggregators import ClientUpdate, Strategy
from fedsim.data import build_validation, gen_synthetic
from fedsim.errors import ConfigurationError
from fedsim.model import MlpSpec


def make_updates(deltas, samples=None):
    deltas = [np.asarray(d, dtype=np.float64) for d in deltas]
    samples = samples or [1] * len(deltas)
    return [ClientUpdate(i, d, s) for i, (d, s) in enumerate(zip(deltas, samples))]


def brute_force_krum(deltas, remove_fraction):
    """Independent O(n^2) recomputation with explicit loops."""
    n = len(deltas)
    f = math.floor(remove_fraction * n)
    neighbors = max(n - f - 2, 1)
    scores = []
    for i in range(n):
        dists = sorted(
            sum((a - b) ** 2 for a, b in zip(deltas[i], deltas[j]))
            for j in range(n)
            if j != i
        )
        scores.append(sum(dists[:neighbors]))
    order = sorted(range(n), key=lambda i: (scores[i], i))
    return sorted(order[: n - f])


def broadcast_krum(deltas, remove_fraction):
    """multi_krum's selection computed over the whole (n, n, P) difference
    tensor at once, which the row-by-row distances must match exactly."""
    n = len(deltas)
    f = math.floor(remove_fraction * n)
    neighbors = max(n - f - 2, 1)
    sq = np.sum((deltas[:, None, :] - deltas[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(sq, np.inf)
    scores = np.sort(sq, axis=1)[:, :neighbors].sum(axis=1)
    return sorted(int(i) for i in np.argsort(scores, kind="stable")[: n - f])


@st.composite
def delta_stacks(draw):
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 64))
    if draw(st.booleans()):
        # Rows that permute one vector's coordinates: many distances are equal
        # in exact arithmetic and differ only by rounding, so a different
        # summation order changes which clients are kept.
        v = draw(hnp.arrays(np.float64, dim, elements=st.floats(-1e3, 1e3, allow_nan=False)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return np.stack([rng.permutation(v) for _ in range(n)])
    # A small pool of values makes equal distances, and so ties, common.
    elements = st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([0.0, 1.0, -2.5])
    )
    return draw(hnp.arrays(np.float64, (n, dim), elements=elements))


@st.composite
def permuted_cohorts(draw):
    """(global model, deltas (n, P), sample counts, distinct validation
    losses, a permutation of the n clients), every float finite and no zero
    negative."""
    n = draw(st.integers(1, 10))
    dim = draw(st.integers(1, 8))
    values = st.floats(-1e3, 1e3, allow_nan=False).map(lambda v: v + 0.0)
    g = draw(hnp.arrays(np.float64, dim, elements=values))
    deltas = draw(hnp.arrays(np.float64, (n, dim), elements=values))
    samples = draw(st.lists(st.integers(1, 500), min_size=n, max_size=n))
    losses = draw(st.lists(st.floats(0.0, 30.0), min_size=n, max_size=n, unique=True))
    perm = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    return g, deltas, samples, np.array(losses), perm


class TestFedavg:
    def test_equal_sizes_average(self):
        g = np.zeros(3)
        out = aggregators.fedavg(g, make_updates([[2, 0, 4], [0, 2, 0]], [50, 50]))
        assert np.allclose(out, [1, 1, 2], atol=0)

    def test_single_client(self):
        g = np.array([1.0, 1.0])
        out = aggregators.fedavg(g, make_updates([[3.0, -1.0]], [10]))
        assert np.allclose(out, [4.0, 0.0], atol=0)

    def test_three_to_one_weighting(self):
        g = np.zeros(2)
        out = aggregators.fedavg(g, make_updates([[4, 0], [0, 4]], [3, 1]))
        assert np.allclose(out, [3.0, 1.0], atol=1e-15)

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregators.fedavg(np.zeros(2), make_updates([[1, 1]], [0]))


class TestMultiKrum:
    def test_far_outlier_excluded(self):
        base = np.ones(4)
        updates = make_updates([base, base, base, base + 100.0])
        assert aggregators.multi_krum(updates, 0.25) == [0, 1, 2]

    def test_identical_updates_tie_break_by_index(self):
        updates = make_updates([np.ones(3)] * 4)
        assert aggregators.multi_krum(updates, 0.5) == [0, 1]

    def test_matches_brute_force_on_random_fixtures(self):
        rng = np.random.default_rng(12)
        for trial in range(50):
            n = int(rng.integers(3, 9))
            dim = int(rng.integers(2, 6))
            deltas = rng.normal(size=(n, dim))
            frac = float(rng.choice([0.25, 0.4, 0.5]))
            updates = make_updates(deltas)
            assert aggregators.multi_krum(updates, frac) == brute_force_krum(
                [list(d) for d in deltas], frac
            )

    @given(delta_stacks(), st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9]))
    def test_matches_broadcast_distances(self, deltas, remove_fraction):
        got = aggregators.multi_krum(make_updates(deltas), remove_fraction)
        assert got == broadcast_krum(deltas, remove_fraction)

    @pytest.mark.parametrize("dim", [3, 7, 64, 1000, 3466, 10000])
    def test_mirrored_distances_equal_the_full_matrix(self, dim):
        rng = np.random.default_rng(dim)
        for n in range(2, 32):
            deltas = rng.normal(size=(n, dim)) * rng.uniform(1e-3, 1e3, size=(n, 1))
            full = np.stack([np.sum((deltas[i] - deltas) ** 2, axis=1) for i in range(n)])
            assert np.array_equal(aggregators._squared_distances(deltas), full), n

    def test_keeps_at_least_one(self):
        updates = make_updates([np.ones(2)])
        assert aggregators.multi_krum(updates, 0.0) == [0]


class TestLfr:
    def setup_method(self):
        data = gen_synthetic(3, 5, 600, 6.0, seed=21)
        self.val, rest = build_validation(data, per_label=15, seed=3)
        self.spec = MlpSpec((5, 8, 3), seed=6)
        self.global_params = model.init_params(self.spec)
        ts = model.TrainSpec(epochs=3, batch_size=16, learning_rate=0.2, seed=0)
        self.good = model.local_train(self.global_params, self.spec, rest, ts)
        # scaling an imperfect model by 100 blows up its wrong logits
        weak = model.local_train(
            self.global_params, self.spec, rest,
            model.TrainSpec(epochs=1, batch_size=16, learning_rate=0.02, seed=0),
        )
        self.corrupted = weak * 100.0

    def losses(self, updates):
        """Each update's mean validation loss, as the round computes it."""
        models = [(self.global_params, u.delta) for u in updates]
        return fedval.compute_report(models, self.spec, self.val).overall_loss

    def test_corrupted_model_always_dropped(self):
        good_delta = self.good - self.global_params
        updates = make_updates(
            [good_delta, good_delta * 0.9, good_delta * 1.1, good_delta * 0.95,
             self.corrupted - self.global_params],
            samples=[100] * 5,
        )
        # independent oracle: rank by validation loss, keep the 3 lowest
        losses = []
        for u in updates:
            sample_losses, _ = model.eval_losses(
                self.global_params + u.delta, self.spec, self.val.data
            )
            losses.append(float(sample_losses.mean()))
        order = sorted(range(5), key=lambda i: (losses[i], i))
        survivors = sorted(order[:3])
        assert 4 not in survivors  # the corrupted client is always among the dropped
        expected = aggregators.fedavg(self.global_params, [updates[i] for i in survivors])
        out = aggregators.lfr(self.global_params, updates, self.losses(updates), 0.4)
        assert np.allclose(out, expected, atol=1e-12)

    def test_zero_removal_is_fedavg(self):
        rng = np.random.default_rng(2)
        updates = make_updates(rng.normal(0, 0.1, size=(4, self.spec.param_count)),
                               samples=[10, 20, 30, 40])
        out = aggregators.lfr(self.global_params, updates, self.losses(updates), 0.0)
        assert np.array_equal(out, aggregators.fedavg(self.global_params, updates))

    def test_identical_models_tie_break_keeps_aggregate(self):
        delta = self.good - self.global_params
        updates = make_updates([delta] * 5, samples=[10] * 5)
        out = aggregators.lfr(self.global_params, updates, self.losses(updates), 0.4)
        assert np.allclose(out, self.global_params + delta, atol=1e-12)

    def test_dropping_everyone_rejected(self):
        updates = make_updates([np.zeros(self.spec.param_count)], samples=[10])
        with pytest.raises(ConfigurationError):
            aggregators.lfr(self.global_params, updates, self.losses(updates), 0.99)

    def test_one_loss_per_update_required(self):
        updates = make_updates([np.zeros(self.spec.param_count)] * 3, samples=[10] * 3)
        with pytest.raises(ConfigurationError, match="one validation loss per update"):
            aggregators.lfr(self.global_params, updates, self.losses(updates)[:2], 0.0)


class TestTrimmedMean:
    def test_hand_case_with_outlier(self):
        g = np.zeros(1)
        updates = make_updates([[0.0], [1.0], [2.0], [3.0], [100.0]])
        out = aggregators.trimmed_mean(g, updates, 0.2)
        assert np.allclose(out, [2.0], atol=0)

    def test_zero_trim_is_plain_mean(self):
        rng = np.random.default_rng(3)
        deltas = rng.normal(size=(5, 4))
        out = aggregators.trimmed_mean(np.zeros(4), make_updates(deltas), 0.0)
        assert np.allclose(out, deltas.mean(axis=0), atol=1e-15)

    def test_all_equal(self):
        updates = make_updates([[2.5, -1.0]] * 4)
        out = aggregators.trimmed_mean(np.zeros(2), updates, 0.25)
        assert np.allclose(out, [2.5, -1.0], atol=0)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            deltas = rng.normal(size=(n, 5))
            frac = float(rng.uniform(0, 0.45))
            t = math.floor(frac * n)
            if 2 * t >= n:
                continue
            expected = np.stack(
                [np.sort(deltas[:, j])[t : n - t].mean() for j in range(5)]
            )
            out = aggregators.trimmed_mean(np.zeros(5), make_updates(deltas), frac)
            assert np.allclose(out, expected, atol=1e-12)

    def test_over_trimming_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregators.trimmed_mean(np.zeros(2), make_updates([[1, 1], [2, 2]]), 0.5)


class TestPermutationInvariance:
    def test_fedavg_and_trimmed_mean(self):
        rng = np.random.default_rng(5)
        deltas = rng.normal(size=(6, 8))
        samples = [10, 20, 30, 40, 50, 60]
        g = rng.normal(size=8)
        perm = rng.permutation(6)
        a1 = aggregators.fedavg(g, make_updates(deltas, samples))
        a2 = aggregators.fedavg(g, make_updates(deltas[perm], [samples[i] for i in perm]))
        assert np.allclose(a1, a2, atol=1e-12)
        t1 = aggregators.trimmed_mean(g, make_updates(deltas), 0.2)
        t2 = aggregators.trimmed_mean(g, make_updates(deltas[perm]), 0.2)
        assert np.allclose(t1, t2, atol=1e-12)

    # Properties over drawn cohorts: `perm` reorders the clients, and every
    # client carries its delta, sample count and validation loss along.

    @given(permuted_cohorts(), st.floats(0.0, 0.49))
    def test_trimmed_mean_is_bit_identical(self, cohort, trim_fraction):
        g, deltas, _, _, perm = cohort
        assume(2 * math.floor(trim_fraction * len(deltas)) < len(deltas))
        a = aggregators.trimmed_mean(g, make_updates(deltas), trim_fraction)
        b = aggregators.trimmed_mean(g, make_updates(deltas[perm]), trim_fraction)
        assert a.tobytes() == b.tobytes()

    @given(permuted_cohorts(), st.floats(0.0, 0.99))
    def test_fedavg_and_lfr_move_by_rounding_only(self, cohort, remove_fraction):
        g, deltas, samples, losses, perm = cohort
        n = len(deltas)
        updates = make_updates(deltas, samples)
        permuted = make_updates(deltas[perm], [samples[i] for i in perm])
        # Reordering a weighted sum of deltas moves it by rounding alone.
        bound = 1e-12 * (np.abs(g) + np.abs(deltas).max(axis=0))
        a = aggregators.fedavg(g, updates)
        assert np.all(np.abs(a - aggregators.fedavg(g, permuted)) <= bound)
        assume(math.ceil(remove_fraction * n) < n)
        a = aggregators.lfr(g, updates, losses, remove_fraction)
        b = aggregators.lfr(g, permuted, losses[perm], remove_fraction)
        assert np.all(np.abs(a - b) <= bound)

    @given(permuted_cohorts(), st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9]))
    def test_multi_krum_permutes_its_kept_set(self, cohort, remove_fraction):
        _, deltas, _, _, perm = cohort
        n = len(deltas)
        # The Krum scores, which must have no ties for the kept set to follow
        # the clients (a tie goes to the lower index).
        neighbors = max(n - math.floor(remove_fraction * n) - 2, 1)
        sq = aggregators._squared_distances(deltas)
        np.fill_diagonal(sq, np.inf)
        scores = np.sort(sq, axis=1)[:, :neighbors].sum(axis=1)
        assume(len(set(scores.tolist())) == n)
        kept = aggregators.multi_krum(make_updates(deltas), remove_fraction)
        permuted_kept = aggregators.multi_krum(make_updates(deltas[perm]), remove_fraction)
        assert sorted(int(perm[i]) for i in permuted_kept) == kept


class TestStrategyValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Strategy(kind="median")

    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            Strategy(kind="lfr", remove_fraction=1.0)

    def test_unknown_pre_transform_rejected(self):
        with pytest.raises(ConfigurationError):
            Strategy(kind="fedavg", pre_transforms=("quantize",))
