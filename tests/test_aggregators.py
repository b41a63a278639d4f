import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from hypothesis.extra import numpy as hnp

from fedsim import aggregators, fedval, model
from fedsim.aggregators import Strategy
from fedsim.data import build_validation, gen_synthetic
from fedsim.errors import ConfigurationError
from fedsim.model import MlpSpec


def matrix(deltas):
    return np.array(deltas, dtype=np.float64)


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


@st.composite
def shifted_cohorts(draw):
    """(global model, deltas (n, P), sample counts, a shift vector c of
    length P), every float finite."""
    g, deltas, samples, _, _ = draw(permuted_cohorts())
    c = draw(hnp.arrays(np.float64, len(g), elements=st.floats(-1e3, 1e3, allow_nan=False)))
    return g, deltas, samples, c


@st.composite
def poisoned_stacks(draw, fractions, min_finite, rounding=math.floor):
    """(a fraction drawn from `fractions`, deltas (n, P), the indices of the
    non-finite rows). Finite entries lie in [-1e6, 1e6], so no sum of them
    overflows; at most rounding(fraction * n) rows, leaving at least
    `min_finite` rows finite, hold NaN or +-inf in at least one coordinate."""
    fraction = draw(fractions)
    n = draw(st.integers(min_finite, 12))
    dim = draw(st.integers(1, 16))
    deltas = draw(hnp.arrays(np.float64, (n, dim), elements=st.floats(-1e6, 1e6)))
    limit = min(rounding(fraction * n), n - min_finite)
    bad = draw(st.lists(st.integers(0, n - 1), max_size=limit, unique=True))
    for i in bad:
        cols = draw(st.lists(st.integers(0, dim - 1), min_size=1, unique=True))
        for j in cols:
            deltas[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return fraction, deltas, sorted(bad)


class TestFedavg:
    def test_equal_sizes_average(self):
        g = np.zeros(3)
        out = aggregators.fedavg(g, matrix([[2, 0, 4], [0, 2, 0]]), [50, 50])
        assert np.allclose(out, [1, 1, 2], atol=0)

    def test_single_client(self):
        g = np.array([1.0, 1.0])
        out = aggregators.fedavg(g, matrix([[3.0, -1.0]]), [10])
        assert np.allclose(out, [4.0, 0.0], atol=0)

    def test_three_to_one_weighting(self):
        g = np.zeros(2)
        out = aggregators.fedavg(g, matrix([[4, 0], [0, 4]]), [3, 1])
        assert np.allclose(out, [3.0, 1.0], atol=1e-15)

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregators.fedavg(np.zeros(2), matrix([[1, 1]]), [0])


class TestMultiKrum:
    def test_far_outlier_excluded(self):
        base = np.ones(4)
        deltas = matrix([base, base, base, base + 100.0])
        assert aggregators.multi_krum(deltas, 0.25) == [0, 1, 2]

    def test_identical_updates_tie_break_by_index(self):
        assert aggregators.multi_krum(np.ones((4, 3)), 0.5) == [0, 1]

    def test_matches_brute_force_on_random_fixtures(self):
        rng = np.random.default_rng(12)
        for trial in range(50):
            n = int(rng.integers(3, 9))
            dim = int(rng.integers(2, 6))
            deltas = rng.normal(size=(n, dim))
            frac = float(rng.choice([0.25, 0.4, 0.5]))
            assert aggregators.multi_krum(deltas, frac) == brute_force_krum(
                [list(d) for d in deltas], frac
            )

    @given(delta_stacks(), st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9]))
    def test_matches_broadcast_distances(self, deltas, remove_fraction):
        got = aggregators.multi_krum(deltas, remove_fraction)
        assert got == broadcast_krum(deltas, remove_fraction)

    @pytest.mark.parametrize("dim", [3, 7, 64, 1000, 3466, 10000])
    def test_mirrored_distances_equal_the_full_matrix(self, dim):
        rng = np.random.default_rng(dim)
        for n in range(2, 32):
            deltas = rng.normal(size=(n, dim)) * rng.uniform(1e-3, 1e3, size=(n, 1))
            full = np.stack([np.sum((deltas[i] - deltas) ** 2, axis=1) for i in range(n)])
            assert np.array_equal(aggregators._squared_distances(deltas), full), n

    def test_keeps_at_least_one(self):
        assert aggregators.multi_krum(np.ones((1, 2)), 0.0) == [0]

    def test_overflowing_distance_ranks_its_row_last_silently(self):
        # The 1e200 row's squared distances overflow to inf: it is dropped,
        # the kept set is the one a 1e100 row (whose distances are finite)
        # gives, and numpy warns of nothing.
        deltas = np.random.default_rng(4).normal(size=(7, 5))
        deltas[2] = 1e200
        finite = deltas.copy()
        finite[2] = 1e100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kept = aggregators.multi_krum(deltas, 0.5)
        assert 2 not in kept
        assert kept == aggregators.multi_krum(finite, 0.5)

    # Two +-inf rows of one sign in a coordinate subtract to NaN there,
    # silently.
    @given(poisoned_stacks(st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9]), 1))
    # One finite row: every Krum score is inf, so only the finiteness key keeps row 2.
    @example((0.7, np.array([[np.nan], [-np.inf], [0.165]]), [0, 1]))
    def test_keeps_only_finite_updates_when_few_are_not(self, stack):
        # A non-finite row ranks after every finite one, whatever the scores;
        # n - f rows are kept and at least as many are finite.
        remove_fraction, deltas, bad = stack
        kept = aggregators.multi_krum(deltas, remove_fraction)
        assert not set(kept) & set(bad)


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

    def losses(self, deltas):
        """Each row's mean validation loss, as the round computes it."""
        models = [(self.global_params, d) for d in deltas]
        return fedval.compute_report(models, self.spec, self.val).overall_loss

    def test_corrupted_model_always_dropped(self):
        good_delta = self.good - self.global_params
        deltas = np.stack([good_delta, good_delta * 0.9, good_delta * 1.1, good_delta * 0.95,
                           self.corrupted - self.global_params])
        counts = [100] * 5
        # independent oracle: rank by validation loss, keep the 3 lowest
        losses = []
        for d in deltas:
            sample_losses, _ = model.eval_losses(self.global_params + d, self.spec, self.val.data)
            losses.append(float(sample_losses.mean()))
        order = sorted(range(5), key=lambda i: (losses[i], i))
        survivors = sorted(order[:3])
        assert 4 not in survivors  # the corrupted client is always among the dropped
        expected = aggregators.fedavg(self.global_params, deltas[survivors], [100] * 3)
        out = aggregators.lfr(self.global_params, deltas, counts, self.losses(deltas), 0.4)
        assert np.allclose(out, expected, atol=1e-12)

    def test_survivors_keep_their_row_order(self):
        # Rows 1, 2, 4 and 5 survive, ranked in another order by loss: fedavg
        # must still add them in row order, bit for bit.
        rng = np.random.default_rng(9)
        deltas = rng.normal(size=(6, 50)) * [[1.0], [1e8], [1.0], [1e-8], [1e8], [1.0]]
        counts = [1, 3, 5, 7, 11, 13]
        losses = np.array([9.0, 2.0, 4.0, 8.0, 1.0, 3.0])
        out = aggregators.lfr(np.zeros(50), deltas, counts, losses, 0.3)
        expected = aggregators.fedavg(np.zeros(50), deltas[[1, 2, 4, 5]], [3, 5, 11, 13])
        assert out.tobytes() == expected.tobytes()

    def test_zero_removal_is_fedavg(self):
        rng = np.random.default_rng(2)
        deltas = rng.normal(0, 0.1, size=(4, self.spec.param_count))
        counts = [10, 20, 30, 40]
        out = aggregators.lfr(self.global_params, deltas, counts, self.losses(deltas), 0.0)
        assert np.array_equal(out, aggregators.fedavg(self.global_params, deltas, counts))

    def test_identical_models_tie_break_keeps_aggregate(self):
        delta = self.good - self.global_params
        deltas = np.stack([delta] * 5)
        out = aggregators.lfr(self.global_params, deltas, [10] * 5, self.losses(deltas), 0.4)
        assert np.allclose(out, self.global_params + delta, atol=1e-12)

    def test_dropping_everyone_rejected(self):
        deltas = np.zeros((1, self.spec.param_count))
        with pytest.raises(ConfigurationError):
            aggregators.lfr(self.global_params, deltas, [10], self.losses(deltas), 0.99)

    def test_one_loss_per_update_required(self):
        deltas = np.zeros((3, self.spec.param_count))
        with pytest.raises(ConfigurationError, match="one validation loss per update"):
            aggregators.lfr(self.global_params, deltas, [10] * 3, self.losses(deltas)[:2], 0.0)

    @given(poisoned_stacks(st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9]), 1, math.ceil),
           st.data())
    def test_finite_when_at_most_the_dropped_count_are_not(self, stack, data):
        # A non-finite update ranks after every finite one, whatever its loss
        # (a ReLU can mask a -inf bias, so its loss may be the best), and the
        # ceil(fraction * n) dropped take every such update.
        remove_fraction, deltas, _ = stack
        n = len(deltas)
        assume(math.ceil(remove_fraction * n) < n)
        losses = data.draw(hnp.arrays(np.float64, n, elements=st.floats()))
        g = np.zeros(deltas.shape[1])
        out = aggregators.lfr(g, deltas, [1] * n, losses, remove_fraction)
        assert np.all(np.isfinite(out))


class TestTrimmedMean:
    def test_hand_case_with_outlier(self):
        g = np.zeros(1)
        out = aggregators.trimmed_mean(g, matrix([[0.0], [1.0], [2.0], [3.0], [100.0]]), 0.2)
        assert np.allclose(out, [2.0], atol=0)

    def test_zero_trim_is_plain_mean(self):
        rng = np.random.default_rng(3)
        deltas = rng.normal(size=(5, 4))
        out = aggregators.trimmed_mean(np.zeros(4), deltas, 0.0)
        assert np.allclose(out, deltas.mean(axis=0), atol=1e-15)

    def test_all_equal(self):
        out = aggregators.trimmed_mean(np.zeros(2), matrix([[2.5, -1.0]] * 4), 0.25)
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
            out = aggregators.trimmed_mean(np.zeros(5), deltas, frac)
            assert np.allclose(out, expected, atol=1e-12)

    def test_over_trimming_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregators.trimmed_mean(np.zeros(2), matrix([[1, 1], [2, 2]]), 0.5)

    @given(poisoned_stacks(st.floats(0.0, 0.49), 1))
    def test_finite_when_at_most_the_trimmed_count_are_not(self, stack):
        # A coordinate holds at most t non-finite values: -inf sorts into the
        # t trimmed from the bottom, +inf and NaN into the t from the top.
        trim_fraction, deltas, _ = stack
        g = np.zeros(deltas.shape[1])
        out = aggregators.trimmed_mean(g, deltas, trim_fraction)
        assert np.all(np.isfinite(out))


class TestPermutationInvariance:
    def test_fedavg_and_trimmed_mean(self):
        rng = np.random.default_rng(5)
        deltas = rng.normal(size=(6, 8))
        samples = [10, 20, 30, 40, 50, 60]
        g = rng.normal(size=8)
        perm = rng.permutation(6)
        a1 = aggregators.fedavg(g, deltas, samples)
        a2 = aggregators.fedavg(g, deltas[perm], [samples[i] for i in perm])
        assert np.allclose(a1, a2, atol=1e-12)
        t1 = aggregators.trimmed_mean(g, deltas, 0.2)
        t2 = aggregators.trimmed_mean(g, deltas[perm], 0.2)
        assert np.allclose(t1, t2, atol=1e-12)

    # Properties over drawn cohorts: `perm` reorders the clients, and every
    # client carries its delta, sample count and validation loss along.

    @given(permuted_cohorts(), st.floats(0.0, 0.49))
    def test_trimmed_mean_is_bit_identical(self, cohort, trim_fraction):
        g, deltas, _, _, perm = cohort
        assume(2 * math.floor(trim_fraction * len(deltas)) < len(deltas))
        a = aggregators.trimmed_mean(g, deltas, trim_fraction)
        b = aggregators.trimmed_mean(g, deltas[perm], trim_fraction)
        assert a.tobytes() == b.tobytes()

    @given(permuted_cohorts(), st.floats(0.0, 0.99))
    def test_fedavg_and_lfr_move_by_rounding_only(self, cohort, remove_fraction):
        g, deltas, samples, losses, perm = cohort
        n = len(deltas)
        permuted = [samples[i] for i in perm]
        # Reordering a weighted sum of deltas moves it by rounding alone.
        bound = 1e-12 * (np.abs(g) + np.abs(deltas).max(axis=0))
        a = aggregators.fedavg(g, deltas, samples)
        assert np.all(np.abs(a - aggregators.fedavg(g, deltas[perm], permuted)) <= bound)
        assume(math.ceil(remove_fraction * n) < n)
        a = aggregators.lfr(g, deltas, samples, losses, remove_fraction)
        b = aggregators.lfr(g, deltas[perm], permuted, losses[perm], remove_fraction)
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
        kept = aggregators.multi_krum(deltas, remove_fraction)
        permuted_kept = aggregators.multi_krum(deltas[perm], remove_fraction)
        assert sorted(int(perm[i]) for i in permuted_kept) == kept


class TestTranslationEquivariance:
    """Shifting every delta by one vector c shifts fedavg's and
    trimmed_mean's results by c and leaves multi_krum's kept set as it is,
    up to rounding."""

    # A shift moves each added term by rounding alone, a few units in the last
    # place of the largest magnitude involved; fixed before the first run.
    RTOL = 1e-12

    def bound(self, g, deltas, c):
        return self.RTOL * (np.abs(g) + np.abs(deltas).max(axis=0) + np.abs(c))

    @given(shifted_cohorts())
    def test_fedavg_shifts_by_c(self, cohort):
        g, deltas, samples, c = cohort
        a = aggregators.fedavg(g, deltas, samples)
        b = aggregators.fedavg(g, deltas + c, samples)
        assert np.all(np.abs(b - (a + c)) <= self.bound(g, deltas, c))

    @given(shifted_cohorts(), st.floats(0.0, 0.49))
    def test_trimmed_mean_shifts_by_c(self, cohort, trim_fraction):
        g, deltas, _, c = cohort
        assume(2 * math.floor(trim_fraction * len(deltas)) < len(deltas))
        a = aggregators.trimmed_mean(g, deltas, trim_fraction)
        b = aggregators.trimmed_mean(g, deltas + c, trim_fraction)
        assert np.all(np.abs(b - (a + c)) <= self.bound(g, deltas, c))

    @given(shifted_cohorts(), st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9]))
    def test_multi_krum_keeps_the_same_clients(self, cohort, remove_fraction):
        _, deltas, _, c = cohort
        n = len(deltas)
        keep = n - math.floor(remove_fraction * n)
        neighbors = max(keep - 2, 1)
        # Shifting moves each squared distance by rounding alone, at most
        # RTOL times the sum of the squared coordinate scales, and each Krum
        # score by `neighbors` times that. The kept set is the `keep` lowest
        # scores, so it holds when the scores either side of the cut are
        # further apart than both scores can move.
        scale = np.abs(deltas).max(axis=0) + np.abs(c)
        slack = neighbors * self.RTOL * float(np.sum(scale ** 2))
        sq = aggregators._squared_distances(deltas)
        np.fill_diagonal(sq, np.inf)
        scores = np.sort(np.sort(sq, axis=1)[:, :neighbors].sum(axis=1))
        assume(keep == n or scores[keep] - scores[keep - 1] > 2 * slack)
        kept = aggregators.multi_krum(deltas, remove_fraction)
        assert aggregators.multi_krum(deltas + c, remove_fraction) == kept


@pytest.mark.parametrize("aggregate", [
    lambda d: aggregators.fedavg(np.zeros(2), d, [1] * len(d)),
    lambda d: aggregators.multi_krum(d, 0.0),
    lambda d: aggregators.lfr(np.zeros(2), d, [1] * len(d), np.zeros(len(d)), 0.0),
    lambda d: aggregators.trimmed_mean(np.zeros(2), d, 0.0),
])
def test_deltas_must_be_a_non_empty_matrix(aggregate):
    with pytest.raises(ConfigurationError, match="flat vectors"):
        aggregate(np.zeros((1, 2, 1)))
    with pytest.raises(ConfigurationError, match="no client updates"):
        aggregate(np.zeros((0, 2)))


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
