import numpy as np
import pytest

from fedsim.data import Dataset, ValidationSet, gen_synthetic
from fedsim.fedval import mad
from fedsim.metrics import MetricRecord, evaluate, summarize
from fedsim.model import MlpSpec

def one_hot_classifier():
    """Linear 2-class model that predicts the argmax feature exactly."""
    spec = MlpSpec((2, 2))
    params = np.array([10.0, -10.0, -10.0, 10.0, 0.0, 0.0])
    return spec, params

class TestEvaluate:
    def test_perfect_classifier(self):
        spec, params = one_hot_classifier()
        features = np.array([[1.0, 0.0]] * 5 + [[0.0, 1.0]] * 5)
        labels = np.array([0] * 5 + [1] * 5)
        test = ValidationSet(Dataset(features, labels, 2))
        record = evaluate(params, spec, test, backdoor=(0, 1))
        assert record.overall_accuracy == 1.0
        assert record.per_label_accuracy == [1.0, 1.0]
        assert record.label_accuracy_mad == 0.0
        assert record.backdoor_accuracy == 0.0

    def test_constant_predictor_mad(self):
        # zero parameters predict class 0 everywhere on a balanced K=10 set
        spec = MlpSpec((10, 10))
        data = gen_synthetic(10, 10, 200, 5.0, seed=2)
        record = evaluate(np.zeros(spec.param_count), spec, ValidationSet(data))
        assert record.overall_accuracy == pytest.approx(0.1, abs=1e-12)
        assert record.per_label_accuracy == [1.0] + [0.0] * 9
        assert record.label_accuracy_mad == pytest.approx(0.18, abs=1e-12)

    def test_backdoor_ratio(self):
        # predicts label 1 exactly when the single feature is positive
        spec = MlpSpec((1, 2))
        params = np.array([0.0, 1.0, 0.0, 0.0])
        source_x = np.concatenate([np.linspace(0.5, 2, 20), np.linspace(-2, -0.5, 30)])
        features = np.concatenate([source_x, [-1.0, 1.0]])[:, None]
        labels = np.array([0] * 50 + [1, 1])
        test = ValidationSet(Dataset(features, labels, 2))
        record = evaluate(params, spec, test, backdoor=(0, 1))
        assert record.backdoor_accuracy == pytest.approx(0.4, abs=1e-12)

    def test_per_label_weighted_matches_overall(self):
        spec = MlpSpec((5, 8, 4), seed=3)
        data = gen_synthetic(4, 5, 333, 2.0, seed=4)
        from fedsim import model

        record = evaluate(model.init_params(spec), spec, ValidationSet(data))
        counts = np.bincount(data.labels, minlength=4)
        weighted = np.dot(record.per_label_accuracy, counts) / counts.sum()
        assert weighted == pytest.approx(record.overall_accuracy, abs=1e-9)

    def test_mad_invariant_under_label_permutation(self):
        accs = [0.9, 0.1, 0.5, 0.7]
        assert mad(accs) == mad(list(reversed(accs)))

    def test_group_recall_binary(self):
        spec, params = one_hot_classifier()
        features = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 1, 1, 1])  # last sample mispredicted as 0
        groups = np.array([0, 0, 1, 1])
        record = evaluate(params, spec, ValidationSet(Dataset(features, labels, 2, groups)))
        assert record.per_group_recall == {0: 1.0, 1: 0.5}

    def test_missing_label_rejected(self):
        spec, params = one_hot_classifier()
        with pytest.raises(ValueError):
            data = ValidationSet(Dataset(np.array([[1.0, 0.0]]), np.array([0]), 2))
            evaluate(params, spec, data)

class TestSummarize:
    def records(self, values):
        return [
            MetricRecord(
                round=i,
                overall_accuracy=v,
                per_label_accuracy=[v, v],
                label_accuracy_mad=0.0,
                mean_validation_loss=1.0 - v,
            )
            for i, v in enumerate(values)
        ]

    def test_window_one_is_last_record(self):
        out = summarize(self.records([0.2, 0.9]), window=1)
        assert out["overall_accuracy"] == 0.9

    def test_constant_series(self):
        out = summarize(self.records([0.7] * 5), window=5)
        assert out["overall_accuracy"] == pytest.approx(0.7, abs=1e-12)

    def test_three_point_mean(self):
        out = summarize(self.records([0.2, 0.4, 0.6]), window=3)
        assert out["overall_accuracy"] == pytest.approx(0.4, abs=1e-12)
        assert out["mean_validation_loss"] == pytest.approx(0.6, abs=1e-12)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            summarize(self.records([0.5]), window=2)
