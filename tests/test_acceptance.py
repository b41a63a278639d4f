"""Acceptance suite.

Each test prints one pass/fail line for its criterion. The scaled
federated experiments (criteria 5-8) run on frozen seeds; their thresholds
were pinned from baseline runs under the same configs.
"""

import csv as csv_module
import math
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from fedsim import aggregators, cli, fedval, model
from fedsim.adversary import AttackSpec
from fedsim.aggregators import Strategy
from fedsim.data import PartitionSpec
from fedsim.fedval import ScoreParams, ValidationReport
from fedsim.model import MlpSpec, TrainSpec
from fedsim.orchestrator import (
    CsvTask,
    ExperimentConfig,
    HoldoutSpec,
    SyntheticTask,
    malicious_round_probability,
    run_experiment,
    run_experiments,
)
from fedsim.privacy import DpState, adapt_bound, add_noise, clip


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def final5(result) -> dict:
    """Means over the last 5 records of the fields the criteria read."""
    tail = result.records[-5:]
    assert len(tail) == 5, f"{len(tail)} records, need 5"
    out = {
        "overall_accuracy": float(np.mean([r.overall_accuracy for r in tail])),
        "per_label_accuracy": np.mean([r.per_label_accuracy for r in tail], axis=0).tolist(),
    }
    if all(r.backdoor_accuracy is not None for r in tail):
        out["backdoor_accuracy"] = float(np.mean([r.backdoor_accuracy for r in tail]))
    return out


# ---------------------------------------------------------------- criteria 5+8b

PGA_BASE = dict(
    task=SyntheticTask(classes=10, features=16, samples=4000, separation=5.0, seed=0),
    partition=PartitionSpec("iid", client_count=40, seed=0),
    model=MlpSpec((16, 32, 10), seed=0),
    train=TrainSpec(epochs=10, batch_size=32, learning_rate=0.02, seed=0),
    rounds=60,
    clients_per_round=10,
    selection_seed=0,
    validation=HoldoutSpec(per_label=10, seed=2),
    test=HoldoutSpec(per_label=50, seed=1),
)


def pga_attack(fraction: float) -> AttackSpec:
    return AttackSpec(kind="pga", scale_factor=2.0, ascent_epochs=5,
                      malicious_fraction=fraction, placement_seed=7)


@pytest.fixture(scope="module")
def pga_runs():
    def run(kinds, fraction, per_label=10):
        """Final accuracy of each strategy in `kinds`, trained in lockstep."""
        configs = [
            ExperimentConfig(
                strategy=Strategy(kind=kind),
                attack=pga_attack(fraction) if fraction else AttackSpec(),
                **{**PGA_BASE, "validation": HoldoutSpec(per_label=per_label, seed=2)},
            )
            for kind in kinds
        ]
        return [final5(r)["overall_accuracy"] for r in run_experiments(configs)]

    fedval_clean, fedavg_clean = run(["fedval", "fedavg"], 0.0)
    fedval_40, fedavg_40 = run(["fedval", "fedavg"], 0.4)
    (fedval_80,) = run(["fedval"], 0.8)
    (fedval_clean_v1,) = run(["fedval"], 0.0, per_label=1)
    (fedval_40_v1,) = run(["fedval"], 0.4, per_label=1)
    return {
        "fedval_clean": fedval_clean,
        "fedval_40": fedval_40,
        "fedval_80": fedval_80,
        "fedavg_clean": fedavg_clean,
        "fedavg_40": fedavg_40,
        "fedval_clean_v1": fedval_clean_v1,
        "fedval_40_v1": fedval_40_v1,
    }


# ---------------------------------------------------------------- criteria 6+8a

BACKDOOR_BASE = dict(
    task=SyntheticTask(classes=10, features=16, samples=2000, separation=5.0, seed=0),
    partition=PartitionSpec("lda", client_count=40, seed=0, alpha=0.2),
    model=MlpSpec((16, 32, 10), seed=0),
    train=TrainSpec(epochs=10, batch_size=32, learning_rate=0.05, seed=0),
    rounds=60,
    clients_per_round=10,
    selection_seed=0,
    validation=HoldoutSpec(per_label=10, seed=2),
    test=HoldoutSpec(per_label=50, seed=1),
    backdoor_eval=(4, 5),
)

FLIP = AttackSpec(kind="label_flip", source_label=4, target_label=5,
                  malicious_fraction=0.2, placement_seed=5)


@pytest.fixture(scope="module")
def backdoor_runs():
    strategies = {
        "fedavg": Strategy(kind="fedavg"),
        "fedval": Strategy(kind="fedval"),
        "lfr": Strategy(kind="lfr", remove_fraction=0.4),
    }
    out = {}
    for suffix, attack in [("clean", AttackSpec()), ("attacked", FLIP)]:
        # The strategies train in lockstep on one set-up.
        configs = [
            ExperimentConfig(strategy=strategy, attack=attack, **BACKDOOR_BASE)
            for strategy in strategies.values()
        ]
        for name, result in zip(strategies, run_experiments(configs)):
            out[f"{name}_{suffix}"] = final5(result)["backdoor_accuracy"]
    return out


# ---------------------------------------------------------------- criterion 7

def write_minority_pair_csv(path, major_count=210, minor_count=70, dim=16,
                            separation=6.0, pair_distance=2.5, seed=3):
    """Blob task whose classes 4/5 are a close, underrepresented pair."""
    rng = np.random.default_rng(seed)
    frame, _ = np.linalg.qr(rng.standard_normal((dim, 10)))
    slots = frame.T * (separation / np.sqrt(2.0))
    means = slots.copy()
    means[4] = slots[4] + (pair_distance / 2.0) * frame[:, 5]
    means[5] = slots[4] - (pair_distance / 2.0) * frame[:, 5]
    rows = []
    for label in range(10):
        count = minor_count if label in (4, 5) else major_count
        for _ in range(count):
            rows.append((means[label] + rng.standard_normal(dim), label))
    order = rng.permutation(len(rows))
    with open(path, "w", newline="") as fh:
        writer = csv_module.writer(fh)
        writer.writerow([f"f{i}" for i in range(dim)] + ["label"])
        for i in order:
            x, y = rows[i]
            writer.writerow([f"{v:.6f}" for v in x] + [y])


@pytest.fixture(scope="module")
def missing_label_runs(tmp_path_factory):
    path = tmp_path_factory.mktemp("fairness") / "minority_pair.csv"
    write_minority_pair_csv(path)
    base = dict(
        task=CsvTask(path=str(path),
                     feature_columns=tuple(f"f{i}" for i in range(16)),
                     label_column="label"),
        partition=PartitionSpec("missing_labels", client_count=40, seed=0,
                                missing=(4, 5), affected_fraction=0.7),
        model=MlpSpec((16, 32, 10), seed=0),
        rounds=60,
        clients_per_round=10,
        selection_seed=0,
        validation=HoldoutSpec(per_label=10, seed=2),
        test=HoldoutSpec(per_label=30, seed=1),
    )

    def run(kind, prox):
        config = ExperimentConfig(
            strategy=Strategy(kind=kind),
            train=TrainSpec(epochs=10, batch_size=32, learning_rate=0.01,
                            prox_mu=prox, seed=0),
            **base,
        )
        summary = final5(run_experiment(config))
        per_label = summary["per_label_accuracy"]
        return (per_label[4] + per_label[5]) / 2

    return {
        "fedavg": run("fedavg", 0.0),
        "fedval": run("fedval", 0.0),
        "fedprox_1": run("fedavg", 1.0),
        "fedprox_5": run("fedavg", 5.0),
    }


# ---------------------------------------------------------------- criterion 1

class TestCriterion1ScoreFunction:
    def test_score_unit_suite(self):
        tol = 1e-9

        # mean absolute deviation hand values
        assert fedval.mad([7.0, 7.0, 7.0]) == 0.0
        assert abs(fedval.mad([1, 2, 3]) - 2.0 / 3.0) <= tol
        assert abs(fedval.mad([0, 4]) - 2.0) <= tol

        def make_report(per_label, overall):
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

        # zero-deviation clients score the closed-form baseline, K*C*s1 + C*s1_avg
        k = 4
        table = fedval.score(make_report(np.full((3, k), 0.6), np.full(3, 0.6)), ScoreParams())
        assert np.max(np.abs(table.raw - (k * 9.0 + 15.0))) <= tol
        assert np.max(np.abs(table.weights - 1.0 / 3.0)) <= tol

        # hand case: losses {1,3} on one label -> div +/-1, MAD 1, reducer 1
        table = fedval.score(make_report([[1.0], [3.0]], [1.0, 3.0]), ScoreParams())
        assert abs(table.raw[0] - 32.0) <= tol
        assert abs(table.raw[1] - 16.0) <= tol

        # bias reducer: label mean at twice the overall mean, s2=3 -> 2^3 = 8
        doubled = make_report([[3.0], [5.0]], [1.0, 3.0])
        assert abs(doubled.label_mean[0] / doubled.overall_mean - 2.0) <= tol
        table = fedval.score(doubled, ScoreParams(s2=3.0))
        assert abs(table.raw[0] - (8.0 * 3.0 + 9.0 + 5.0 + 15.0)) <= tol
        assert abs(table.raw[1] - (-8.0 * 3.0 + 9.0 - 5.0 + 15.0)) <= tol
        assert table.clamped[1] == 0.0 and table.weights[1] == 0.0

        # catastrophic client among 8: clamped to zero weight
        per_label = np.vstack([np.full((7, 2), 0.5), [[40.0, 40.0]]])
        overall = np.concatenate([np.full(7, 0.5), [40.0]])
        table = fedval.score(make_report(per_label, overall), ScoreParams())
        assert table.raw[7] < 0.0 and table.weights[7] == 0.0

        # aggregation identities
        rng = np.random.default_rng(0)
        g = rng.normal(size=20)
        deltas = rng.normal(size=(3, 20))
        single = fedval.aggregate(g, deltas[:1], np.array([1.0]))
        assert np.array_equal(single, g + deltas[0])
        masked = fedval.aggregate(g, deltas[:2], np.array([1.0, 0.0]))
        assert np.array_equal(masked, g + deltas[0])

        # candidate exponent set from the initial value 3
        assert fedval.s2_candidates(3.0) == [3.0, 3.5, 2.5, 0.5, 8.0]

        report(1, True, "score-function unit suite exact at 1e-9")


# ---------------------------------------------------------------- criterion 2

class TestCriterion2Gradients:
    def test_finite_difference_checks(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(20):
            sizes = tuple(int(s) for s in rng.integers(2, 6, size=rng.integers(2, 4)))
            spec = MlpSpec(sizes, activation="relu" if trial % 2 else "tanh", seed=trial)
            params = model.init_params(spec) + rng.normal(0, 0.4, spec.param_count)
            anchor = model.init_params(spec)
            prox_mu = float(rng.choice([0.0, 1.0]))
            batch = (rng.normal(size=(8, sizes[0])), rng.integers(0, sizes[-1], 8))
            _, grad = model.loss_and_grad(params, spec, batch, anchor, prox_mu)
            h = 1e-5
            for i in range(spec.param_count):
                plus, minus = params.copy(), params.copy()
                plus[i] += h
                minus[i] -= h
                lp, _ = model.loss_and_grad(plus, spec, batch, anchor, prox_mu)
                lm, _ = model.loss_and_grad(minus, spec, batch, anchor, prox_mu)
                fd = (lp - lm) / (2 * h)
                if abs(grad[i]) > 1e-6:
                    worst = max(worst, abs(fd - grad[i]) / abs(grad[i]))
        report(2, worst <= 1e-4, f"20 finite-difference checks, worst rel err {worst:.2e}")


# ---------------------------------------------------------------- criterion 3

class TestCriterion3AggregatorOracles:
    def test_oracles(self):
        rng = np.random.default_rng(3)

        # multi-Krum vs explicit-loop recomputation on 50 fixtures
        def brute(deltas, fraction):
            n = len(deltas)
            f = math.floor(fraction * n)
            neighbors = max(n - f - 2, 1)
            scores = []
            for i in range(n):
                dists = sorted(
                    float(np.sum((deltas[i] - deltas[j]) ** 2)) for j in range(n) if j != i
                )
                scores.append(sum(dists[:neighbors]))
            order = sorted(range(n), key=lambda i: (scores[i], i))
            return sorted(order[: n - f])

        for _ in range(50):
            n = int(rng.integers(3, 9))
            deltas = rng.normal(size=(n, int(rng.integers(2, 6))))
            fraction = float(rng.choice([0.25, 0.4, 0.5]))
            assert aggregators.multi_krum(deltas, fraction) == brute(deltas, fraction)

        # trimmed mean vs sort-based oracle
        for _ in range(20):
            n = int(rng.integers(3, 10))
            deltas = rng.normal(size=(n, 6))
            fraction = float(rng.uniform(0.0, 0.45))
            t = math.floor(fraction * n)
            if 2 * t >= n:
                continue
            expected = np.stack([np.sort(deltas[:, j])[t : n - t].mean() for j in range(6)])
            got = aggregators.trimmed_mean(np.zeros(6), deltas, fraction)
            assert np.max(np.abs(got - expected)) <= 1e-12

        # score-weighted aggregation with uniform weights == fedavg
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(2, 9))
            g = rng.normal(size=25)
            deltas = rng.normal(size=(n, 25))
            uniform = fedval.aggregate(g, deltas, np.full(n, 1.0 / n))
            oracle = aggregators.fedavg(g, deltas, [7] * n)
            worst = max(worst, float(np.max(np.abs(uniform - oracle))))
        assert worst <= 1e-12

        report(3, True, f"krum/trim oracles match; uniform-vs-fedavg gap {worst:.1e} <= 1e-12")


# ---------------------------------------------------------------- criterion 4

class TestCriterion4BinomialAnalysis:
    def test_tail_probabilities(self):
        per_round, at_least_once = malicious_round_probability(30, 0.1, k0=9, rounds=25_000)
        exact = sum(
            (comb(30, k) * Fraction(1, 10) ** k * Fraction(9, 10) ** (30 - k)
             for k in range(9, 31)),
            start=Fraction(0),
        )
        rel = abs(per_round - float(exact)) / float(exact)
        ok = rel <= 1e-9 and at_least_once > 0.99
        report(4, ok,
               f"per-round tail {per_round:.6e} (rel err {rel:.1e}), "
               f"25k-round probability {at_least_once:.4f} > 0.99")


# ---------------------------------------------------------------- criterion 5

class TestCriterion5UntargetedRobustness:
    def test_pga_attack(self, pga_runs):
        r = pga_runs
        ok_40 = r["fedval_40"] >= 0.9 * r["fedval_clean"]
        ok_80 = r["fedval_80"] >= 0.9 * r["fedval_clean"]
        drop = r["fedavg_clean"] - r["fedavg_40"]
        report(
            5,
            ok_40 and ok_80 and drop >= 0.20,
            f"fedval clean={r['fedval_clean']:.3f} 40%={r['fedval_40']:.3f} "
            f"80%={r['fedval_80']:.3f}; fedavg drop under 40% = {drop:.3f}",
        )


# ---------------------------------------------------------------- criterion 6

class TestCriterion6Backdoor:
    def test_label_flip(self, backdoor_runs):
        r = backdoor_runs
        fedavg_rise = r["fedavg_attacked"] - r["fedavg_clean"]
        fedval_gap = abs(r["fedval_attacked"] - r["fedval_clean"])
        lfr_gap = abs(r["lfr_attacked"] - r["lfr_clean"])
        report(
            6,
            fedavg_rise >= 0.20 and fedval_gap <= 0.05 and lfr_gap <= 0.05,
            f"fedavg backdoor rise {fedavg_rise:.3f} >= 0.20; "
            f"fedval gap {fedval_gap:.3f}, lfr gap {lfr_gap:.3f} <= 0.05",
        )


# ---------------------------------------------------------------- criterion 7

class TestCriterion7MissingLabelFairness:
    def test_missing_classes(self, missing_label_runs):
        r = missing_label_runs
        ok = (
            r["fedavg"] <= 0.15
            and r["fedval"] >= 0.5
            and r["fedprox_1"] <= 0.2
            and r["fedprox_5"] <= 0.2
        )
        report(
            7,
            ok,
            f"missing-class accuracy: fedavg={r['fedavg']:.3f} fedval={r['fedval']:.3f} "
            f"fedprox(1)={r['fedprox_1']:.3f} fedprox(5)={r['fedprox_5']:.3f}",
        )


# ---------------------------------------------------------------- criterion 8

class TestCriterion8ValidationSize:
    def test_ten_per_class_backdoor(self, backdoor_runs):
        # the backdoor defense pass already runs on 10 validation elements/class
        gap = abs(backdoor_runs["fedval_attacked"] - backdoor_runs["fedval_clean"])
        report(8, gap <= 0.05,
               f"10 elements/class: fedval backdoor gap {gap:.3f} <= 0.05")

    def test_single_element_untargeted(self, pga_runs):
        r = pga_runs
        ok = r["fedval_40_v1"] >= 0.9 * r["fedval_clean_v1"]
        report(8, ok,
               f"1 element/class: fedval 40% PGA {r['fedval_40_v1']:.3f} >= "
               f"0.9 x clean {r['fedval_clean_v1']:.3f}")


# ---------------------------------------------------------------- criterion 9

class TestCriterion9Determinism:
    def test_byte_identical_metrics(self, tmp_path):
        # PGA on uneven shards under fedval; also a golden input of
        # tests/test_golden_outputs.py.
        path = Path(__file__).resolve().parents[1] / "configs" / "determinism.json"
        outputs = []
        for name in ("a", "b", "c"):
            cli.cmd_run(str(path), str(tmp_path / name))
            outputs.append((tmp_path / name / "metrics.csv").read_bytes())
        ok = outputs[0] == outputs[1] == outputs[2]
        report(9, ok, "metrics.csv byte-identical across three reruns")


# ---------------------------------------------------------------- criterion 10

class TestCriterion10DpPipeline:
    def test_dp_properties(self):
        rng = np.random.default_rng(10)
        worst_excess = -np.inf
        for _ in range(10_000):
            delta = rng.normal(0, rng.uniform(0.1, 10.0), size=6)
            bound = rng.uniform(0.05, 4.0)
            clipped, _ = clip(delta, bound)
            worst_excess = max(worst_excess, float(np.linalg.norm(clipped)) - bound)
        clip_ok = worst_excess <= 1e-9

        state = DpState(clip_bound=3.0, target_quantile=0.5, adapt_rate=0.2)
        fixed_point = abs(adapt_bound(state, [True, False] * 5) - 3.0) <= 1e-12

        noisy = add_noise(np.zeros(10_000), 0.7, 2.0, round_seed=99, participants=4)
        target = 0.7 * 2.0 / 4
        std_ok = abs(noisy.std() - target) / target < 0.05

        report(
            10,
            clip_ok and fixed_point and std_ok,
            f"clip excess {worst_excess:.1e} <= 1e-9; bound fixed point at target "
            f"quantile; noise std {noisy.std():.4f} vs target {target:.4f}",
        )
