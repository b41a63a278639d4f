
import logging
from dataclasses import replace as dc_replace
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest

from fedsim import fedval, model, orchestrator
from fedsim.adversary import AttackSpec
from fedsim.aggregators import ClientUpdate, Strategy
from fedsim.data import Dataset, PartitionSpec
from fedsim.errors import ConfigurationError

from fedsim.model import MlpSpec, TrainSpec
from fedsim.orchestrator import (
    CsvTask,
    ExperimentConfig,
    HoldoutSpec,
    SyntheticTask,
    malicious_round_probability,
    run_experiment,
    run_round,
    select_clients,
    setup_experiment,
)
from fedsim.privacy import DpState
from test_model import blas_thread_count, reference_sgd, set_blas_thread_count

def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        task=SyntheticTask(classes=3, features=5, samples=900, separation=6.0, seed=0),
        partition=PartitionSpec("iid", client_count=8, seed=0),
        model=MlpSpec((5, 8, 3), seed=0),
        train=TrainSpec(epochs=2, batch_size=16, learning_rate=0.1, seed=0),
        strategy=Strategy(kind="fedavg"),
        rounds=4,
        clients_per_round=4,
        selection_seed=5,
        validation=HoldoutSpec(per_label=10, seed=2),
        test=HoldoutSpec(per_label=20, seed=1),
    )
    base.update(overrides)
    return ExperimentConfig(**base)

def exact_binomial_tail(n: int, k0: int, p: Fraction) -> Fraction:
    return sum(
        (comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(k0, n + 1)),
        start=Fraction(0),
    )

class TestSelectClients:
    def test_full_population(self):
        assert sorted(select_clients(6, 6, 0, 3)) == list(range(6))

    def test_repeatable(self):
        assert select_clients(40, 10, 7, 9) == select_clients(40, 10, 7, 9)

    def test_varies_by_round(self):
        streams = {tuple(select_clients(40, 10, r, 9)) for r in range(20)}
        assert len(streams) > 1

    def test_rejects_oversized_count(self):
        with pytest.raises(ConfigurationError):
            select_clients(4, 5, 0, 0)

class TestRunRound:
    def test_corrupted_client_gets_zero_weight(self):
        # a PGA client with a hugely scaled delta must be clamped out
        config = small_config(
            strategy=Strategy(kind="fedval"),
            attack=AttackSpec(kind="pga", scale_factor=20.0, ascent_epochs=2,
                              malicious_fraction=0.2, placement_seed=1),
            clients_per_round=8,
        )
        state = setup_experiment(config)
        assert state.malicious
        log = run_round(state, config)
        for client in state.malicious:
            assert log.weights[client] == 0.0

    def test_nan_delta_leaves_global_finite_and_logs_zero_update(self, monkeypatch):
        # A NaN client model makes every fedval score NaN; the round must be a
        # logged no-op instead of writing 0 * NaN into the global model.
        config = small_config(strategy=Strategy(kind="fedval"), clients_per_round=6)
        state = setup_experiment(config)
        poisoned = select_clients(8, 6, 0, config.selection_seed)[2]
        honest_updates = orchestrator._client_updates

        def updates(state, config, selected, trained):
            return [
                ClientUpdate(u.client_id, np.full_like(u.delta, np.nan), u.num_samples)
                if u.client_id == poisoned
                else u
                for u in honest_updates(state, config, selected, trained)
            ]

        monkeypatch.setattr(orchestrator, "_client_updates", updates)
        before = state.global_params.copy()
        with np.errstate(invalid="ignore"):
            log = run_round(state, config)
        assert np.all(np.isfinite(state.global_params))
        assert np.array_equal(state.global_params, before)
        assert log.zero_update
        losses, _ = model.eval_losses(before, config.model, state.val.data)
        assert log.val_loss == float(losses.mean())

    def test_no_op_round_is_logged_once_per_round(self, monkeypatch, caplog):
        # With a NaN client every s2 candidate's table is all zero; the round
        # is logged as a no-op once, for the table that the search keeps.
        config = small_config(strategy=Strategy(kind="fedval"), clients_per_round=6)
        state = setup_experiment(config)
        honest_updates = orchestrator._client_updates

        def updates(state, config, selected, trained):
            first, *rest = honest_updates(state, config, selected, trained)
            nan = np.full_like(first.delta, np.nan)
            return [ClientUpdate(first.client_id, nan, first.num_samples), *rest]

        monkeypatch.setattr(orchestrator, "_client_updates", updates)
        with np.errstate(invalid="ignore"), caplog.at_level(logging.WARNING, "fedsim.fedval"):
            logs = [run_round(state, config) for _ in range(2)]
        assert all(log.zero_update for log in logs)
        assert [r.getMessage() for r in caplog.records if r.name == "fedsim.fedval"] == [
            "all client scores clamped to zero; round becomes a no-op"] * 2

    @pytest.mark.parametrize("kind", ["fedval", "fedavg"])
    def test_val_loss_is_the_new_global_models(self, kind):
        # fedval takes it from the s2 search, which has already evaluated the
        # model it chose; the others evaluate the new global model.
        config = small_config(strategy=Strategy(kind=kind))
        state = setup_experiment(config)
        for _ in range(3):
            log = run_round(state, config)
            losses, _ = model.eval_losses(state.global_params, config.model, state.val.data)
            assert log.val_loss == float(losses.mean())

    @pytest.mark.parametrize("kind, recall_dim", [("lfr", False), ("fedval", True)])
    def test_cohort_evaluated_once_through_the_report(self, monkeypatch, kind, recall_dim):
        # lfr ranks its clients by the validation report that fedval scores:
        # the round evaluates its cohort once, inside `compute_report`, which
        # computes recall for fedval alone.
        config = small_config(strategy=Strategy(kind=kind, remove_fraction=0.4),
                              recall_dim=True)
        state = setup_experiment(config)
        honest_report, honest_eval = fedval.compute_report, model.eval_cohort
        reports, inside, cohorts = [], [], []

        def report_spy(*args, recall_dim=False):
            reports.append(recall_dim)
            inside.append(True)
            try:
                return honest_report(*args, recall_dim=recall_dim)
            finally:
                inside.pop()

        def eval_spy(models, *args, **kwargs):
            cohorts.append((bool(inside), len(models)))
            return honest_eval(models, *args, **kwargs)

        monkeypatch.setattr(fedval, "compute_report", report_spy)
        monkeypatch.setattr(model, "eval_cohort", eval_spy)
        run_round(state, config)
        assert reports == [recall_dim]
        # One evaluation inside the report, of the whole cohort.
        assert [c for c in cohorts if c[0]] == [(True, config.clients_per_round)]
        if kind == "lfr":  # and one of the new global model alone
            assert cohorts == [(True, config.clients_per_round), (False, 1)]

    def test_weights_sum_to_one_or_zero_update(self):
        config = small_config(strategy=Strategy(kind="fedval"))
        state = setup_experiment(config)
        for _ in range(3):
            log = run_round(state, config)
            total = sum(log.weights.values())
            assert log.zero_update or total == pytest.approx(1.0, abs=1e-9)

    def test_fedavg_and_fedval_agree_on_homogeneous_clients(self):
        results = {}
        for kind in ("fedavg", "fedval"):
            config = small_config(strategy=Strategy(kind=kind), rounds=6)
            results[kind] = run_experiment(config)
        a = results["fedavg"].round_logs[-1].val_loss
        b = results["fedval"].round_logs[-1].val_loss
        assert abs(a - b) / max(a, b) < 0.10


def pga_lda_config(**overrides) -> ExperimentConfig:
    base = dict(
        partition=PartitionSpec("lda", client_count=8, seed=0, alpha=0.5),
        train=TrainSpec(epochs=2, batch_size=16, learning_rate=0.1, prox_mu=0.2, seed=0),
        attack=AttackSpec(kind="pga", scale_factor=2.0, ascent_epochs=1,
                          malicious_fraction=0.25, placement_seed=1),
        clients_per_round=6,
    )
    base.update(overrides)
    return small_config(**base)


def spy_updates(monkeypatch):
    """Record every list of updates that run_round aggregates."""
    seen = []
    honest_updates = orchestrator._client_updates

    def updates(state, config, selected, trained):
        seen.append(honest_updates(state, config, selected, trained))
        return seen[-1]

    monkeypatch.setattr(orchestrator, "_client_updates", updates)
    return seen


def spy_train_rows(monkeypatch):
    """Record the row count of every train_rows call."""
    row_counts = []
    honest_train_rows = model.train_rows

    def train_rows(spec, rows, batch_size):
        row_counts.append(len(rows))
        return honest_train_rows(spec, rows, batch_size)

    monkeypatch.setattr(model, "train_rows", train_rows)
    return row_counts


class TestCohortTraining:
    """run_round trains the cohort in one engine call; each client's delta and
    each error must be what training the clients one by one gives."""

    def test_deltas_match_per_client_reference(self, monkeypatch):
        config = pga_lda_config()
        state = setup_experiment(config)
        seen = spy_updates(monkeypatch)
        g = state.global_params.copy()
        selected = select_clients(8, 6, 0, config.selection_seed)
        attackers = [c for c in selected if c in state.malicious]
        assert attackers and len(attackers) < len(selected)
        assert len({len(state.shards[c]) for c in selected}) > 1

        run_round(state, config)
        (updates,) = seen
        assert [u.client_id for u in updates] == selected
        for u in updates:
            shard = state.shards[u.client_id]
            seed = orchestrator.derive_seed(
                config.train.seed, orchestrator._TRAIN_STREAM, 0, u.client_id
            )
            train = dc_replace(config.train, seed=seed)
            if u.client_id in state.malicious:
                ascended = reference_sgd(
                    g, config.model, shard, train, config.attack.ascent_epochs, ascent=True
                )
                benign = reference_sgd(
                    g, config.model, shard, dc_replace(train, prox_mu=0.0), train.epochs
                )
                malicious_delta = ascended - g
                scale = (
                    config.attack.scale_factor
                    * float(np.linalg.norm(benign - g))
                    / float(np.linalg.norm(malicious_delta))
                )
                expected = (g + scale * malicious_delta) - g
            else:
                expected = reference_sgd(g, config.model, shard, train, train.epochs) - g
            assert np.array_equal(u.delta, expected)
            assert u.num_samples == len(shard)

    def test_zero_scale_attacker_trains_no_rows(self, monkeypatch):
        config = pga_lda_config(
            attack=AttackSpec(kind="pga", scale_factor=0.0, ascent_epochs=1,
                              malicious_fraction=0.25, placement_seed=1),
        )
        state = setup_experiment(config)
        seen = spy_updates(monkeypatch)
        row_counts = spy_train_rows(monkeypatch)
        run_round(state, config)
        (updates,) = seen
        attackers = [u for u in updates if u.client_id in state.malicious]
        assert attackers
        assert row_counts == [len(updates) - len(attackers)]
        for u in attackers:
            assert not np.any(u.delta)

    def test_empty_shard_rejected(self):
        config = pga_lda_config()
        state = setup_experiment(config)
        client = select_clients(8, 6, 0, config.selection_seed)[3]
        state.shards[client] = SimpleNamespace(
            features=np.empty((0, 5)), labels=np.empty(0, dtype=np.int64)
        )
        with pytest.raises(ValueError, match="client dataset is empty"):
            run_round(state, config)

    def test_label_out_of_range_rejected(self):
        config = pga_lda_config()
        state = setup_experiment(config)
        client = select_clients(8, 6, 0, config.selection_seed)[4]
        shard = state.shards[client]
        labels = shard.labels.copy()
        labels[0] = 3
        state.shards[client] = SimpleNamespace(features=shard.features, labels=labels)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            run_round(state, config)

    @pytest.mark.parametrize("attacker_first", [False, True])
    def test_first_diverging_client_in_selection_order_is_reported(self, attacker_first):
        # No PGA attacker is placed; one of the two blown-up clients is made
        # one, so the two divergence messages tell the clients apart.
        config = pga_lda_config(
            attack=AttackSpec(kind="pga", scale_factor=2.0, ascent_epochs=1)
        )
        state = setup_experiment(config)
        selected = select_clients(8, 6, 0, config.selection_seed)
        first, second = selected[1], selected[4]
        state.malicious = frozenset({first if attacker_first else second})
        for client in (first, second):
            shard = state.shards[client]
            state.shards[client] = Dataset(
                shard.features * 1e200, shard.labels, shard.num_classes
            )
        message = "ascent diverged" if attacker_first else "training diverged"
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=message):
                run_round(state, config)


class TestRunExperiment:
    def test_zero_rounds_returns_initial_model(self):
        config = small_config(rounds=0)
        result = run_experiment(config)
        assert result.round_logs == []
        assert result.records == []
        from fedsim import model

        assert np.array_equal(result.final_params, model.init_params(config.model))

    def test_replay_determinism(self):
        config = small_config(strategy=Strategy(kind="fedval"))
        a = run_experiment(config)
        b = run_experiment(config)
        assert np.array_equal(a.final_params, b.final_params)
        assert [r.as_dict() for r in a.round_logs] == [r.as_dict() for r in b.round_logs]
        assert [m.__dict__ for m in a.records] == [m.__dict__ for m in b.records]

    def test_selection_stream_independent_of_strategy_and_attack(self):
        variants = [
            small_config(strategy=Strategy(kind="fedavg")),
            small_config(strategy=Strategy(kind="fedval")),
            small_config(strategy=Strategy(kind="multi_krum", remove_fraction=0.5)),
            small_config(
                strategy=Strategy(kind="fedavg"),
                attack=AttackSpec(kind="pga", scale_factor=2.0, ascent_epochs=1,
                                  malicious_fraction=0.25, placement_seed=3),
            ),
        ]
        streams = [
            [log.selected for log in run_experiment(c).round_logs] for c in variants
        ]
        assert all(s == streams[0] for s in streams[1:])

    @pytest.mark.parametrize("kind", ["fedavg", "fedval", "trimmed_mean"])
    def test_zero_malicious_fraction_matches_no_attack_bitwise(self, kind):
        strategy = Strategy(kind=kind, trim_fraction=0.25 if kind == "trimmed_mean" else 0.0)
        clean = run_experiment(small_config(strategy=strategy))
        disarmed = run_experiment(
            small_config(
                strategy=strategy,
                attack=AttackSpec(kind="pga", scale_factor=5.0, ascent_epochs=2,
                                  malicious_fraction=0.0, placement_seed=1),
            )
        )
        assert np.array_equal(clean.final_params, disarmed.final_params)

    def test_dp_pipeline_runs_and_adapts_bound(self):
        config = small_config(
            strategy=Strategy(kind="fedavg", pre_transforms=("norm_bound", "dp_noise")),
            dp=DpState(clip_bound=0.5, noise_multiplier=0.1),
        )
        state = setup_experiment(config)
        start_bound = state.dp.clip_bound
        run_round(state, config)
        assert state.dp.clip_bound != start_bound

    def test_fork_runs_without_touching_the_original(self):
        config = small_config(
            strategy=Strategy(kind="fedavg", pre_transforms=("norm_bound",)),
            dp=DpState(clip_bound=0.5),
            rounds=3,  # the bound ends at 0.55, not where it started
        )
        shared = setup_experiment(config)
        params, bound = shared.global_params.copy(), shared.dp.clip_bound
        forked = run_experiment(config, shared.fork())
        assert np.array_equal(shared.global_params, params)
        assert shared.dp.clip_bound == bound
        assert shared.round_index == 0
        alone = run_experiment(config)
        assert np.array_equal(forked.final_params, alone.final_params)
        assert [r.as_dict() for r in forked.round_logs] == [r.as_dict() for r in alone.round_logs]

    def test_pre_transforms_without_dp_rejected(self):
        config = small_config(strategy=Strategy(kind="fedavg", pre_transforms=("norm_bound",)))
        with pytest.raises(ConfigurationError, match="dp"):
            run_experiment(config)

    def test_mismatched_model_rejected(self):
        config = small_config(model=MlpSpec((5, 8, 4), seed=0))
        with pytest.raises(ConfigurationError, match="output dim"):
            run_experiment(config)

    def test_oversubscribed_round_rejected(self):
        config = small_config(clients_per_round=9)
        with pytest.raises(ConfigurationError, match="clients_per_round"):
            run_experiment(config)

    def test_metrics_cadence(self):
        config = small_config(rounds=7, metrics_every=5)
        result = run_experiment(config)
        # every 5th round plus the final round
        assert [r.round for r in result.records] == [4, 6]

    def test_recall_dimension_end_to_end(self, tmp_path):
        # binary task with a demographic group column: the recall dimension
        # flows from csv -> validation groups -> scoring -> metric records
        rng = np.random.default_rng(5)
        rows = ["f0,f1,y,g"]
        for _ in range(300):
            g = int(rng.random() < 0.3)
            y = int(rng.random() < 0.5)
            center = (2.0 if y else -2.0) * (1.0 if g == 0 else -1.0)
            x = rng.normal(center, 1.0, size=2)
            rows.append(f"{x[0]:.5f},{x[1]:.5f},{y},{'A' if g == 0 else 'B'}")
        path = tmp_path / "grouped.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")

        config = ExperimentConfig(
            task=CsvTask(path=str(path), feature_columns=("f0", "f1"),
                         label_column="y", group_column="g"),
            partition=PartitionSpec("iid", client_count=6, seed=0),
            model=MlpSpec((2, 8, 2), seed=0),
            train=TrainSpec(epochs=3, batch_size=16, learning_rate=0.1, seed=0),
            strategy=Strategy(kind="fedval"),
            rounds=4,
            clients_per_round=3,
            selection_seed=2,
            validation=HoldoutSpec(per_label=15, seed=2),
            test=HoldoutSpec(per_label=25, seed=1),
            recall_dim=True,
        )
        result = run_experiment(config)
        record = result.records[-1]
        assert record.per_group_recall is not None
        assert set(record.per_group_recall) == {0, 1}
        assert all(0.0 <= v <= 1.0 for v in record.per_group_recall.values())
        assert result.round_logs[-1].weights is not None


STRATEGIES = (
    Strategy(kind="fedavg"),
    Strategy(kind="fedval"),
    Strategy(kind="multi_krum", remove_fraction=0.5),
    Strategy(kind="lfr", remove_fraction=0.4),
    Strategy(kind="trimmed_mean", trim_fraction=0.2),
)


class TestRunExperiments:
    """All strategies advance in lockstep; each must give what it gives alone."""

    def wide_config(self):
        # 16-128-10 at batch 32: a full-batch step holds 4 rows, fewer than
        # the 5 strategies, so they train one after another.
        return small_config(
            task=SyntheticTask(classes=10, features=16, samples=1000, separation=6.0, seed=0),
            model=MlpSpec((16, 128, 10), seed=0),
            train=TrainSpec(epochs=1, batch_size=32, learning_rate=0.1, seed=0),
            rounds=2,
        )

    @pytest.mark.parametrize("wide", [False, True])
    def test_engine_calls_per_round(self, monkeypatch, wide):
        config = self.wide_config() if wide else pga_lda_config()
        joint = model.rows_per_step(config.model, config.train.batch_size) >= len(STRATEGIES)
        assert joint is not wide
        configs = [dc_replace(config, strategy=s) for s in STRATEGIES]
        alone = [run_experiment(c) for c in configs]
        row_counts = spy_train_rows(monkeypatch)

        results = orchestrator.run_experiments(configs)
        calls_per_round = 1 if joint else len(STRATEGIES)
        assert len(row_counts) == config.rounds * calls_per_round
        for got, want in zip(results, alone):
            assert np.array_equal(got.final_params, want.final_params)
            assert [r.as_dict() for r in got.round_logs] == [r.as_dict() for r in want.round_logs]
            assert [m.__dict__ for m in got.records] == [m.__dict__ for m in want.records]

    @pytest.mark.parametrize("wide", [False, True])
    def test_training_seeds_derived_once_per_round(self, monkeypatch, wide):
        config = self.wide_config() if wide else pga_lda_config()
        configs = [dc_replace(config, strategy=s) for s in STRATEGIES]
        derived = []
        real = orchestrator.derive_seed

        def spy(*parts):
            derived.append(parts)
            return real(*parts)

        monkeypatch.setattr(orchestrator, "derive_seed", spy)
        orchestrator.run_experiments(configs)
        train = [p for p in derived if p[1] == orchestrator._TRAIN_STREAM]
        assert len(train) == config.rounds * config.clients_per_round
        assert len(set(train)) == len(train)

    def test_configs_differing_beyond_strategy_rejected(self):
        config = small_config()
        other = dc_replace(config, strategy=Strategy(kind="fedval"), selection_seed=6)
        with pytest.raises(ConfigurationError, match="more than strategy"):
            orchestrator.run_experiments([config, other])

    @pytest.mark.parametrize("given_state", [False, True])
    def test_each_config_validated_once(self, monkeypatch, given_state):
        config = small_config(rounds=1)
        configs = [dc_replace(config, strategy=Strategy(kind)) for kind in ("fedavg", "fedval")]
        state = setup_experiment(config) if given_state else None
        validated = []
        honest = orchestrator.validate_config

        def spy(config):
            validated.append(config)
            honest(config)

        monkeypatch.setattr(orchestrator, "validate_config", spy)
        orchestrator.run_experiments(configs, state)
        assert sorted(map(id, validated)) == sorted(map(id, configs))

    def test_setup_experiment_alone_validates(self):
        with pytest.raises(ConfigurationError, match="clients_per_round"):
            setup_experiment(small_config(clients_per_round=99))

    @pytest.mark.skipif(model._openblas() is None, reason="numpy bundles no OpenBLAS")
    @pytest.mark.parametrize("fails", [False, True])
    def test_blas_thread_count_restored(self, monkeypatch, fails):
        # A program that embeds fedsim keeps its own OpenBLAS thread count,
        # on its other threads too, since numpy's OpenBLAS holds one count
        # for the whole process.
        during = []
        honest = orchestrator._lockstep_round

        def lockstep_round(states, configs):
            during.append(blas_thread_count())
            if fails:
                raise RuntimeError("round failed")
            return honest(states, configs)

        monkeypatch.setattr(orchestrator, "_lockstep_round", lockstep_round)
        config = small_config(rounds=2)
        before = blas_thread_count()
        set_blas_thread_count(2)
        try:
            if fails:
                with pytest.raises(RuntimeError, match="round failed"):
                    orchestrator.run_experiments([config])
            else:
                orchestrator.run_experiments([config])
            assert during == ([2] if fails else [2, 2])
            assert blas_thread_count() == 2
        finally:
            set_blas_thread_count(before)

    @pytest.mark.skipif(model._openblas() is None, reason="numpy bundles no OpenBLAS")
    def test_openblas_thread_count_restored(self):
        # The CLI's start-up count: OpenBLAS on one thread.
        before = blas_thread_count()
        set_blas_thread_count(1)
        try:
            orchestrator.run_experiments([small_config(rounds=1, strategy=Strategy("fedval"))])
            assert blas_thread_count() == 1
        finally:
            set_blas_thread_count(before)

    def test_state_left_as_it_was(self):
        config = small_config(
            strategy=Strategy(kind="fedavg", pre_transforms=("norm_bound",)),
            dp=DpState(clip_bound=0.5),
        )
        shared = setup_experiment(config)
        params, bound = shared.global_params.copy(), shared.dp.clip_bound
        orchestrator.run_experiments([config, dc_replace(config, strategy=Strategy("fedval"))],
                                     shared)
        assert np.array_equal(shared.global_params, params)
        assert shared.dp.clip_bound == bound
        assert shared.round_index == 0


class TestMaliciousRoundProbability:
    def test_matches_exact_oracle(self):
        per_round, _ = malicious_round_probability(30, 0.1, rounds=1, k0=9)
        exact = exact_binomial_tail(30, 9, Fraction(1, 10))
        assert abs(per_round - float(exact)) / float(exact) < 1e-9

    def test_default_k0_reproduces_nine(self):
        with_threshold, _ = malicious_round_probability(30, 0.1, threshold_fraction=0.4)
        with_k0, _ = malicious_round_probability(30, 0.1, k0=9)
        assert with_threshold == with_k0

    def test_long_horizon_is_near_certain(self):
        _, at_least_once = malicious_round_probability(30, 0.1, k0=9, rounds=25_000)
        assert at_least_once > 0.99

    def test_zero_probability(self):
        per_round, at_least_once = malicious_round_probability(30, 0.0, k0=9, rounds=100)
        assert per_round == 0.0
        assert at_least_once == 0.0

    def test_monotone_in_rounds(self):
        values = [
            malicious_round_probability(30, 0.1, k0=9, rounds=r)[1]
            for r in (1, 100, 25_000)
        ]
        assert values == sorted(values)

    def test_random_fixtures_match_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            k0 = int(rng.integers(0, n + 1))
            num = int(rng.integers(1, 100))
            p = Fraction(num, 100)
            per_round, _ = malicious_round_probability(n, num / 100, rounds=1, k0=k0)
            exact = float(exact_binomial_tail(n, k0, p))
            if exact > 0:
                assert abs(per_round - exact) / exact < 1e-9
            else:
                assert per_round == 0.0
