import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedsim import aggregators, fedval, model
from fedsim.aggregators import ClientUpdate
from fedsim.data import Dataset, ValidationSet, build_validation, gen_synthetic
from fedsim.fedval import ScoreParams, ValidationReport
from fedsim.model import MlpSpec, TrainSpec
from test_model import reference_eval_losses


def report_from_losses(per_label, overall):
    """Build a report straight from loss matrices (cross-client stats derived)."""
    per_label = np.asarray(per_label, dtype=np.float64)
    overall = np.asarray(overall, dtype=np.float64)
    return ValidationReport(
        per_label_loss=per_label,
        overall_loss=overall,
        label_mean=per_label.mean(axis=0),
        overall_mean=float(overall.mean()),
        label_mad=np.abs(per_label - per_label.mean(axis=0)).mean(axis=0),
        overall_mad=float(np.abs(overall - overall.mean()).mean()),
    )


def make_updates(deltas, samples=None):
    samples = samples or [100] * len(deltas)
    return [ClientUpdate(i, np.asarray(d, dtype=np.float64), s)
            for i, (d, s) in enumerate(zip(deltas, samples))]


@st.composite
def finite_reports(draw):
    """A validation report as `compute_report` derives it from finite
    per-label losses in the range a floored cross-entropy can take, each
    client's overall loss the mean of its labels', with recall columns for
    up to three groups or none."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 6))
    losses = st.floats(0.0, -np.log(model.PROB_FLOOR))
    per_label = np.array(draw(st.lists(st.lists(losses, min_size=k, max_size=k),
                                       min_size=n, max_size=n)))
    report = report_from_losses(per_label, per_label.mean(axis=1))
    groups = draw(st.integers(0, 3))
    if groups:
        recall = np.array(draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=groups,
                                                 max_size=groups), min_size=n, max_size=n)))
        report.group_recall = recall
        report.group_keys = tuple(range(groups))
        report.group_mean = recall.mean(axis=0)
        report.group_mad = np.abs(recall - recall.mean(axis=0)).mean(axis=0)
        report.overall_recall_mean = draw(st.floats(0.0, 1.0))
    return report


def score_params():
    """Scoring hyperparameters that `ScoreParams` accepts, with a
    non-negative clamp floor."""
    return st.builds(
        ScoreParams,
        s1_label=st.floats(1e-3, 10.0),
        s1_avg=st.floats(0.0, 10.0),
        s2=st.floats(fedval.S2_MIN, 10.0),
        s2_recall=st.floats(0.0, 30.0),
        baseline_c=st.floats(0.0, 10.0),
        clamp_floor=st.floats(0.0, 10.0),
    )


class TestMad:
    def test_constant(self):
        assert fedval.mad([4.2, 4.2, 4.2]) == 0.0

    def test_one_two_three(self):
        assert fedval.mad([1, 2, 3]) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_four(self):
        assert fedval.mad([0, 4]) == pytest.approx(2.0, abs=1e-12)


class TestComputeReport:
    def setup_method(self):
        data = gen_synthetic(3, 5, 600, 5.0, seed=8)
        self.val, rest = build_validation(data, per_label=15, seed=2)
        self.spec = MlpSpec((5, 8, 3), seed=4)
        self.train_data = rest
        self.params = model.init_params(self.spec)

    def test_identical_clients_have_zero_deviation(self):
        report = fedval.compute_report([self.params] * 3, self.spec, self.val)
        assert np.allclose(report.label_mad, 0.0, atol=1e-15)
        assert report.overall_mad == pytest.approx(0.0, abs=1e-15)
        div = report.label_mean - report.per_label_loss
        assert np.allclose(div, 0.0, atol=1e-12)

    def test_cross_client_means_are_arithmetic_means(self):
        models = []
        for seed in range(4):
            ts = TrainSpec(epochs=2, batch_size=16, learning_rate=0.1, seed=seed)
            models.append(model.local_train(self.params, self.spec, self.train_data, ts))
        report = fedval.compute_report(models, self.spec, self.val)
        assert np.allclose(report.label_mean, report.per_label_loss.mean(axis=0), atol=1e-9)
        assert report.overall_mean == pytest.approx(report.overall_loss.mean(), abs=1e-9)
        # per-label means agree with direct slicing of eval losses
        losses, _ = model.eval_losses(models[0], self.spec, self.val.data)
        for k in range(3):
            expected = losses[self.val.label_indices[k]].mean()
            assert report.per_label_loss[0, k] == pytest.approx(expected, abs=1e-12)

    def test_missing_validation_label_rejected(self):
        rng = np.random.default_rng(0)
        skewed = Dataset(rng.normal(size=(30, 5)), np.zeros(30, dtype=np.int64), 3)
        with pytest.raises(Exception, match="label"):
            fedval.compute_report([self.params], self.spec, ValidationSet(skewed))

    def test_zero_positive_group_dropped(self, caplog):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(40, 5))
        labels = np.concatenate([np.ones(20, dtype=np.int64), np.zeros(20, dtype=np.int64)])
        # group 1 holds only negatives: its recall dimension is undefined
        groups = np.concatenate([np.zeros(20, dtype=np.int64), np.ones(20, dtype=np.int64)])
        val = ValidationSet(Dataset(features, labels, 2, groups))
        spec = MlpSpec((5, 2), seed=0)
        with caplog.at_level(logging.WARNING):
            report = fedval.compute_report(
                [model.init_params(spec)], spec, val, recall_dim=True
            )
        assert report.group_keys == (0,)
        assert "dropped" in caplog.text


class TestScore:
    def test_identical_clients_get_baseline(self):
        k = 4
        report = report_from_losses(np.full((3, k), 0.7), np.full(3, 0.7))
        table = fedval.score(report, ScoreParams())
        expected = k * 3.0 * 3.0 + 3.0 * 5.0  # K*C*s1_label + C*s1_avg
        assert np.allclose(table.raw, expected, atol=1e-9)
        assert np.allclose(table.weights, 1.0 / 3.0, atol=1e-12)

    def test_two_client_hand_case(self):
        # per-label losses {1, 3}: mean 2, div +/-1, mad 1; reducer is 1
        report = report_from_losses([[1.0], [3.0]], [1.0, 3.0])
        assert report.label_mean[0] == 2.0
        assert report.label_mad[0] == 1.0
        table = fedval.score(report, ScoreParams())
        # label: +/-(3*1)/1 + 9 ; overall: +/-(5*1)/1 + 15
        assert table.raw[0] == pytest.approx(12.0 + 20.0, abs=1e-9)
        assert table.raw[1] == pytest.approx(6.0 + 10.0, abs=1e-9)
        assert table.weights[0] == pytest.approx(32.0 / 48.0, abs=1e-12)

    def test_bias_reducer_doubled_label_mean(self):
        # label mean is twice the overall mean: reducer = 2**3 = 8
        report = report_from_losses([[3.0], [5.0]], [1.0, 3.0])
        assert report.label_mean[0] / report.overall_mean == pytest.approx(2.0)
        table = fedval.score(report, ScoreParams(s2=3.0))
        # label: 8*(3*div)/1 + 9 ; overall: (5*div)/1 + 15
        assert table.raw[0] == pytest.approx(24.0 + 9.0 + 5.0 + 15.0, abs=1e-9)
        assert table.raw[1] == pytest.approx(-24.0 + 9.0 - 5.0 + 15.0, abs=1e-9)
        # the lagging client went negative: clamped out entirely
        assert table.clamped[1] == 0.0
        assert table.weights.tolist() == [1.0, 0.0]

    def test_reducer_is_one_when_label_not_lagging(self):
        baseline = report_from_losses([[1.0], [3.0]], [1.0, 3.0])
        ahead = report_from_losses([[1.0], [3.0]], [2.0, 6.0])  # label mean below avg
        t1 = fedval.score(baseline, ScoreParams(s2=7.0))
        t2 = fedval.score(ahead, ScoreParams(s2=7.0))
        # slope identical in both: reducer clamps to 1 whenever ratio <= 1
        label_term1 = t1.raw - (5.0 * (baseline.overall_mean - baseline.overall_loss)
                                / baseline.overall_mad + 15.0)
        label_term2 = t2.raw - (5.0 * (ahead.overall_mean - ahead.overall_loss)
                                / ahead.overall_mad + 15.0)
        assert np.allclose(label_term1, label_term2, atol=1e-9)

    def test_catastrophic_client_clamped_to_zero_weight(self):
        # single outlier among n clients sits at div/MAD = -n/2 on every
        # dimension, far below the constant baseline for a realistic cohort
        per_label = np.vstack([np.full((7, 2), 0.5), [[40.0, 40.0]]])
        overall = np.concatenate([np.full(7, 0.5), [40.0]])
        table = fedval.score(report_from_losses(per_label, overall), ScoreParams())
        assert table.raw[7] < 0.0
        assert table.weights[7] == 0.0
        assert table.weights[:7].sum() == pytest.approx(1.0, abs=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        per_label = rng.uniform(0.2, 2.0, size=(6, 5))
        overall = per_label.mean(axis=1)
        report = report_from_losses(per_label, overall)
        table = fedval.score(report, ScoreParams())
        perm = rng.permutation(6)
        permuted = fedval.score(
            report_from_losses(per_label[perm], overall[perm]), ScoreParams()
        )
        assert np.allclose(permuted.raw, table.raw[perm], atol=1e-12)
        assert np.allclose(permuted.weights, table.weights[perm], atol=1e-12)

    def test_monotone_in_own_loss_holding_stats_fixed(self):
        rng = np.random.default_rng(4)
        per_label = rng.uniform(0.5, 1.5, size=(4, 3))
        report = report_from_losses(per_label, per_label.mean(axis=1))
        base = fedval.score(report, ScoreParams()).raw[2]
        # lower client 2's loss on label 1 while freezing cross-client stats
        better = replace(report)
        better.per_label_loss = per_label.copy()
        better.per_label_loss[2, 1] -= 0.2
        improved = fedval.score(better, ScoreParams()).raw[2]
        assert improved > base

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            per_label = rng.uniform(0.1, 3.0, size=(rng.integers(2, 8), rng.integers(1, 6)))
            report = report_from_losses(per_label, per_label.mean(axis=1))
            table = fedval.score(report, ScoreParams())
            assert np.all(table.weights >= 0.0)
            if table.clamped.sum() > 0:
                assert table.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_scores_yield_zero_weights(self):
        # no baseline and zero deviation: every raw score is exactly zero
        report = report_from_losses(np.full((3, 2), 1.0), np.full(3, 1.0))
        table = fedval.score(report, ScoreParams(baseline_c=0.0))
        assert table.all_zero
        assert np.all(table.weights == 0.0)

    def test_recall_dimension_hand_case(self):
        # one lagging group: deviation sign flips relative to losses (higher
        # recall is better) and the reducer uses the mean-over-group ratio
        report = report_from_losses(np.full((2, 1), 1.0), np.full(2, 1.0))
        report.group_recall = np.array([[0.2], [0.4]])
        report.group_keys = (0,)
        report.group_mean = np.array([0.3])
        report.group_mad = np.array([0.1])
        report.overall_recall_mean = 0.6
        params = ScoreParams(s2_recall=2.0)
        inactive = fedval.score(replace(report, group_recall=None), params)
        assert np.allclose(inactive.raw, [24.0, 24.0], atol=1e-12)  # baselines only
        active = fedval.score(report, params)
        # reducer (0.6/0.3)^2 = 4; slope 4*3*(+-0.1)/0.1 = +-12; baseline 9
        assert np.allclose(active.raw, [24.0 + 9.0 - 12.0, 24.0 + 9.0 + 12.0], atol=1e-9)

    @given(finite_reports(), score_params())
    def test_weights_are_a_distribution_or_all_zero(self, report, params):
        table = fedval.score(report, params)
        assert np.all(np.isfinite(table.weights))
        if table.all_zero:
            assert np.all(table.weights == 0.0)
        else:
            assert np.all(table.weights >= 0.0)
            assert abs(table.weights.sum() - 1.0) <= 1e-12


class TestAggregate:
    def test_uniform_weights_match_fedavg(self):
        rng = np.random.default_rng(6)
        g = rng.normal(size=30)
        updates = make_updates(rng.normal(size=(4, 30)))
        ours = fedval.aggregate(g, updates, np.full(4, 0.25))
        oracle = aggregators.fedavg(g, updates)
        assert np.max(np.abs(ours - oracle)) <= 1e-12

    def test_single_client_full_weight(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=10)
        delta = rng.normal(size=10)
        out = fedval.aggregate(g, make_updates([delta]), np.array([1.0]))
        assert np.allclose(out, g + delta, atol=0)

    def test_zero_weight_client_ignored(self):
        rng = np.random.default_rng(8)
        g = rng.normal(size=10)
        d0, d1 = rng.normal(size=10), rng.normal(size=10)
        out = fedval.aggregate(g, make_updates([d0, d1]), np.array([1.0, 0.0]))
        assert np.allclose(out, g + d0, atol=0)


class TestAdaptS2:
    def fixture(self):
        data = gen_synthetic(2, 4, 800, 4.0, seed=11)
        val, rest = build_validation(data, per_label=20, seed=1)
        spec = MlpSpec((4, 8, 2), seed=5)
        g = model.init_params(spec)
        return data, val, rest, spec, g

    def test_candidate_set_from_three(self):
        assert fedval.s2_candidates(3.0) == [3.0, 3.5, 2.5, 0.5, 8.0]

    def test_candidate_set_clamps_and_dedups(self):
        assert fedval.s2_candidates(0.5) == [0.5, 1.0, 5.5]

    def test_homogeneous_clients_keep_current_s2(self):
        _, val, rest, spec, g = self.fixture()
        ts = TrainSpec(epochs=1, batch_size=32, learning_rate=0.05, seed=3)
        trained = model.local_train(g, spec, rest, ts)
        updates = make_updates([trained - g] * 3)
        report = fedval.compute_report([trained] * 3, spec, val)
        choice = fedval.adapt_s2(g, updates, report, ScoreParams(s2=3.0), spec, val)
        assert choice.s2 == 3.0

    def test_steep_reducer_wins_when_it_helps(self):
        # one client trained on both labels, one missing label 1: the
        # label-1 dimension lags and the steepest exponent upweights the
        # complete client the most
        _, val, rest, spec, g = self.fixture()
        balanced = rest.subset(np.arange(200))
        only0 = rest.subset(np.flatnonzero(rest.labels == 0)[:100])
        ts = TrainSpec(epochs=2, batch_size=16, learning_rate=0.1, seed=0)
        a = model.local_train(g, spec, balanced, ts)
        b = model.local_train(g, spec, only0, ts)
        updates = make_updates([a - g, b - g])
        report = fedval.compute_report([a, b], spec, val)
        choice = fedval.adapt_s2(g, updates, report, ScoreParams(s2=3.0), spec, val)
        assert choice.s2 == 8.0
        assert choice.table.weights[0] > 0.9

    def test_all_zero_round_returns_unchanged_global(self):
        _, val, rest, spec, g = self.fixture()
        trained = model.local_train(
            g, spec, rest, TrainSpec(epochs=1, batch_size=32, learning_rate=0.05, seed=3)
        )
        updates = make_updates([trained - g] * 2)
        report = fedval.compute_report([trained] * 2, spec, val)
        choice = fedval.adapt_s2(
            g, updates, report, ScoreParams(s2=3.0, baseline_c=0.0), spec, val
        )
        assert choice.table.all_zero
        assert np.array_equal(choice.global_params, g)


def loop_recall(labels, preds, num_classes):
    """The per-class loop that `_cohort_recall`'s counting must match
    exactly, row by row."""
    if num_classes == 2:
        pos = labels == 1
        if not pos.any():
            return None
        return float((preds[pos] == 1).mean())
    per_class = []
    for k in range(num_classes):
        sel = labels == k
        if sel.any():
            per_class.append(float((preds[sel] == k).mean()))
    if not per_class:
        return None
    return float(np.mean(per_class))


@st.composite
def labelled_predictions(draw):
    """(labels, preds, num_classes), with labels drawn from a random subset of
    the classes so that some are absent, and possibly no samples at all."""
    k = draw(st.integers(2, 7))
    present = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    n = draw(st.integers(0, 60))
    labels = draw(st.lists(st.sampled_from(present), min_size=n, max_size=n))
    preds = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return np.array(labels, dtype=np.int64), np.array(preds, dtype=np.int64), k


def one_row_recall(labels, preds, num_classes):
    """`_cohort_recall` on the one row `preds`, as a float or None."""
    recall = fedval._cohort_recall(labels, preds[None], num_classes)
    return None if recall is None else float(recall[0])


class TestRecall:
    @given(labelled_predictions())
    def test_matches_per_class_loop(self, case):
        labels, preds, k = case
        got = one_row_recall(labels, preds, k)
        want = loop_recall(labels, preds, k)
        assert got == want
        assert type(got) is type(want)

    def test_no_positive_sample_is_none(self):
        labels = np.zeros(5, dtype=np.int64)
        assert one_row_recall(labels, labels, 2) is None
        assert one_row_recall(labels[:0], labels[:0], 4) is None

    def test_absent_classes_are_left_out_of_the_macro_mean(self):
        labels = np.array([0, 0, 2, 2, 2, 2])
        preds = np.array([0, 1, 2, 2, 2, 0])
        assert one_row_recall(labels, preds, 4) == (0.5 + 0.75) / 2


def loop_report(client_models, spec, val, recall_dim):
    """`compute_report` as one loop per client, label and group over the
    reference forward and the per-class recall loop; the report must match
    it exactly."""
    k = spec.num_classes
    results = [reference_eval_losses(p, spec, val.data) for p in client_models]
    n = len(client_models)
    per_label = np.empty((n, k))
    overall = np.empty(n)
    for i, (losses, _) in enumerate(results):
        overall[i] = losses.mean()
        for label in range(k):
            per_label[i, label] = losses[val.label_indices[label]].mean()
    report = ValidationReport(
        per_label_loss=per_label,
        overall_loss=overall,
        label_mean=per_label.mean(axis=0),
        overall_mean=float(overall.mean()),
        label_mad=np.abs(per_label - per_label.mean(axis=0)).mean(axis=0),
        overall_mad=fedval.mad(overall),
    )
    if recall_dim:
        labels = val.data.labels
        overall_recall = np.array([loop_recall(labels, preds, k) or 0.0 for _, preds in results])
        columns = {}
        for g in sorted(val.group_indices):
            idx = val.group_indices[g]
            recalls = [loop_recall(labels[idx], preds[idx], k) for _, preds in results]
            if None not in recalls:
                columns[g] = np.array(recalls)
        if columns:
            matrix = np.stack([columns[g] for g in sorted(columns)], axis=1)
            report.group_recall = matrix
            report.group_keys = tuple(sorted(columns))
            report.group_mean = matrix.mean(axis=0)
            report.group_mad = np.abs(matrix - matrix.mean(axis=0)).mean(axis=0)
            report.overall_recall_mean = float(overall_recall.mean())
    return report


def perturbed_models(spec, count, seed):
    """`count` models spread around the initial one, so that their losses and
    predictions differ."""
    rng = np.random.default_rng(seed)
    base = model.init_params(spec)
    return [base + rng.uniform(0.2, 2.0) * rng.normal(size=spec.param_count)
            for _ in range(count)]


def grouped_set(classes, per_label, balanced, seed, groups=4):
    """A validation set of a `classes`-label blob task with `groups` groups,
    balanced per label or not."""
    data = gen_synthetic(classes, 16, 6000, 3.0, seed=seed)
    rng = np.random.default_rng(seed)
    data.group_ids = rng.integers(0, groups, size=len(data))
    val, _ = build_validation(data, per_label=per_label, balanced=balanced, seed=seed)
    return val


class TestComputeReportMatchesLoop:
    def assert_reports_equal(self, got, want):
        for name in ("per_label_loss", "overall_loss", "label_mean", "label_mad"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.overall_mean == want.overall_mean
        assert got.overall_mad == want.overall_mad
        assert got.group_keys == want.group_keys
        assert got.overall_recall_mean == want.overall_recall_mean
        for name in ("group_recall", "group_mean", "group_mad"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert np.array_equal(a, b), name

    @pytest.mark.parametrize("balanced", [True, False])
    @pytest.mark.parametrize("recall_dim", [False, True])
    def test_wide_cohort(self, balanced, recall_dim):
        # 30 clients on 2000 rows of 10 labels: 200 rows per label when
        # balanced, uneven label slices otherwise.
        spec = MlpSpec((16, 12, 10), seed=1)
        val = grouped_set(10, 200, balanced, seed=3)
        models = perturbed_models(spec, 30, seed=4)
        got = fedval.compute_report(models, spec, val, recall_dim=recall_dim)
        self.assert_reports_equal(got, loop_report(models, spec, val, recall_dim))

    def test_binary_recall(self):
        spec = MlpSpec((16, 8, 2), seed=2)
        val = grouped_set(2, 150, False, seed=5, groups=3)
        models = perturbed_models(spec, 7, seed=6)
        got = fedval.compute_report(models, spec, val, recall_dim=True)
        self.assert_reports_equal(got, loop_report(models, spec, val, True))
        assert got.group_keys == (0, 1, 2)

    def test_multiclass_recall_with_an_absent_class(self):
        spec = MlpSpec((16, 8, 4), seed=3)
        val = grouped_set(4, 40, True, seed=7, groups=2)
        # Group 1 loses every sample of label 2, so its macro recall
        # averages over three classes.
        labels, groups = val.data.labels, val.data.group_ids.copy()
        groups[labels == 2] = 0
        val = ValidationSet(Dataset(val.data.features, labels, 4, groups))
        models = perturbed_models(spec, 6, seed=8)
        got = fedval.compute_report(models, spec, val, recall_dim=True)
        self.assert_reports_equal(got, loop_report(models, spec, val, True))

    def test_group_without_positive_sample_dropped(self, caplog):
        spec = MlpSpec((16, 8, 2), seed=4)
        val = grouped_set(2, 60, True, seed=9, groups=3)
        labels, groups = val.data.labels, val.data.group_ids.copy()
        groups[(groups == 1) & (labels == 1)] = 2
        val = ValidationSet(Dataset(val.data.features, labels, 2, groups))
        models = perturbed_models(spec, 5, seed=10)
        with caplog.at_level(logging.WARNING):
            got = fedval.compute_report(models, spec, val, recall_dim=True)
        self.assert_reports_equal(got, loop_report(models, spec, val, True))
        assert got.group_keys == (0, 2)
        assert "recall undefined for group 1; dimension dropped" in caplog.text
