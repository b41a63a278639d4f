
import logging
import weakref
from dataclasses import FrozenInstanceError, replace as dc_replace
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest

from fedsim import aggregators, fedval, model, orchestrator
from fedsim.adversary import AttackSpec
from fedsim.aggregators import Strategy
from fedsim.data import Dataset, PartitionSpec
from fedsim.errors import ConfigurationError

from fedsim.model import MlpSpec, TrainSpec
from fedsim.orchestrator import (
    CsvTask,
    ExperimentConfig,
    HoldoutSpec,
    SyntheticTask,
    initial_state,
    malicious_round_probability,
    run_experiment,
    run_round,
    select_clients,
    setup_experiment,
)
from fedsim.privacy import DpState
from test_model import blas_thread_count, reference_sgd, set_blas_thread_count, spy_row_steps

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


def start(config):
    """The set-up and the initial round state of `config`."""
    return setup_experiment(config), initial_state(config)


def with_shard(setup, client, shard):
    """`setup` with `client`'s shard replaced by `shard`."""
    shards = list(setup.shards)
    shards[client] = shard
    return dc_replace(setup, shards=tuple(shards))

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
        setup, state = start(config)
        assert setup.malicious
        _, log = run_round(setup, state, config)
        for client in setup.malicious:
            assert log.weights[client] == 0.0

    def test_nan_delta_leaves_global_finite_and_logs_zero_update(self, monkeypatch):
        # A NaN client model makes every fedval score NaN; the round must be a
        # logged no-op instead of writing 0 * NaN into the global model.
        config = small_config(strategy=Strategy(kind="fedval"), clients_per_round=6)
        setup, state = start(config)
        honest_deltas = orchestrator._client_deltas

        def deltas(*args):
            out = honest_deltas(*args)
            out[2] = np.nan  # the third selected client's row
            return out

        monkeypatch.setattr(orchestrator, "_client_deltas", deltas)
        before = state.global_params.copy()
        with np.errstate(invalid="ignore"):
            state, log = run_round(setup, state, config)
        assert np.all(np.isfinite(state.global_params))
        assert np.array_equal(state.global_params, before)
        assert log.zero_update
        losses, _ = model.eval_losses(before, config.model, setup.val.data)
        assert log.val_loss == float(losses.mean())

    def test_no_op_round_is_logged_once_per_round(self, monkeypatch, caplog):
        # With a NaN client every s2 candidate's table is all zero; the round
        # is logged as a no-op once, for the table that the search keeps.
        config = small_config(strategy=Strategy(kind="fedval"), clients_per_round=6)
        setup, state = start(config)
        honest_deltas = orchestrator._client_deltas

        def deltas(*args):
            out = honest_deltas(*args)
            out[0] = np.nan
            return out

        monkeypatch.setattr(orchestrator, "_client_deltas", deltas)
        logs = []
        with np.errstate(invalid="ignore"), caplog.at_level(logging.WARNING, "fedsim.fedval"):
            for _ in range(2):
                state, log = run_round(setup, state, config)
                logs.append(log)
        assert all(log.zero_update for log in logs)
        assert [r.getMessage() for r in caplog.records if r.name == "fedsim.fedval"] == [
            "all client scores clamped to zero; round becomes a no-op"] * 2

    @pytest.mark.parametrize("kind", ["fedval", "fedavg"])
    def test_val_loss_is_the_new_global_models(self, kind):
        # fedval takes it from the s2 search, which has already evaluated the
        # model it chose; the others evaluate the new global model.
        config = small_config(strategy=Strategy(kind=kind))
        setup, state = start(config)
        for _ in range(3):
            state, log = run_round(setup, state, config)
            losses, _ = model.eval_losses(state.global_params, config.model, setup.val.data)
            assert log.val_loss == float(losses.mean())

    @pytest.mark.parametrize("kind, recall_dim", [("lfr", False), ("fedval", True)])
    def test_cohort_evaluated_once_through_the_report(self, monkeypatch, kind, recall_dim):
        # lfr ranks its clients by the validation report that fedval scores:
        # the round evaluates its cohort once, inside `compute_report`, which
        # computes recall for fedval alone.
        config = small_config(strategy=Strategy(kind=kind, remove_fraction=0.4),
                              recall_dim=True)
        setup, state = start(config)
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
        run_round(setup, state, config)
        assert reports == [recall_dim]
        # One evaluation inside the report, of the whole cohort.
        assert [c for c in cohorts if c[0]] == [(True, config.clients_per_round)]
        if kind == "lfr":  # and one of the new global model alone
            assert cohorts == [(True, config.clients_per_round), (False, 1)]

    def test_weights_sum_to_one_or_zero_update(self):
        config = small_config(strategy=Strategy(kind="fedval"))
        setup, state = start(config)
        for _ in range(3):
            state, log = run_round(setup, state, config)
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


def spy_deltas(monkeypatch):
    """Record a copy of every delta matrix that run_round aggregates."""
    seen = []
    honest_deltas = orchestrator._client_deltas

    def deltas(*args):
        out = honest_deltas(*args)
        seen.append(out.copy())
        return out

    monkeypatch.setattr(orchestrator, "_client_deltas", deltas)
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
        setup, state = start(config)
        seen = spy_deltas(monkeypatch)
        counts = []
        honest_fedavg = aggregators.fedavg

        def fedavg(global_params, deltas, sample_counts):
            counts.append(list(sample_counts))
            return honest_fedavg(global_params, deltas, sample_counts)

        monkeypatch.setattr(aggregators, "fedavg", fedavg)
        g = state.global_params.copy()
        selected = select_clients(8, 6, 0, config.selection_seed)
        attackers = [c for c in selected if c in setup.malicious]
        assert attackers and len(attackers) < len(selected)
        assert len({len(setup.shards[c]) for c in selected}) > 1

        run_round(setup, state, config)
        (deltas,) = seen
        # One row per selected client, in selection order.
        assert deltas.shape == (len(selected), len(g))
        assert counts == [[len(setup.shards[c]) for c in selected]]
        for client, delta in zip(selected, deltas):
            shard = setup.shards[client]
            seed = orchestrator.derive_seed(
                config.train.seed, orchestrator._TRAIN_STREAM, 0, client
            )
            train = dc_replace(config.train, seed=seed)
            if client in setup.malicious:
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
            assert np.array_equal(delta, expected)

    def test_zero_scale_attacker_trains_no_rows(self, monkeypatch):
        config = pga_lda_config(
            attack=AttackSpec(kind="pga", scale_factor=0.0, ascent_epochs=1,
                              malicious_fraction=0.25, placement_seed=1),
        )
        setup, state = start(config)
        seen = spy_deltas(monkeypatch)
        row_counts = spy_train_rows(monkeypatch)
        selected = select_clients(8, 6, 0, config.selection_seed)
        run_round(setup, state, config)
        (deltas,) = seen
        attackers = [i for i, c in enumerate(selected) if c in setup.malicious]
        assert attackers
        assert row_counts == [len(selected) - len(attackers)]
        assert not np.any(deltas[attackers])

    def test_empty_shard_rejected(self):
        config = pga_lda_config()
        setup, state = start(config)
        client = select_clients(8, 6, 0, config.selection_seed)[3]
        setup = with_shard(setup, client, SimpleNamespace(
            features=np.empty((0, 5)), labels=np.empty(0, dtype=np.int64)
        ))
        with pytest.raises(ValueError, match="client dataset is empty"):
            run_round(setup, state, config)

    def test_label_out_of_range_rejected(self):
        config = pga_lda_config()
        setup, state = start(config)
        client = select_clients(8, 6, 0, config.selection_seed)[4]
        shard = setup.shards[client]
        labels = shard.labels.copy()
        labels[0] = 3
        setup = with_shard(setup, client, SimpleNamespace(features=shard.features, labels=labels))
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            run_round(setup, state, config)

    @pytest.mark.parametrize("attacker_first", [False, True])
    def test_first_diverging_client_in_selection_order_is_reported(self, attacker_first):
        # No PGA attacker is placed; one of the two blown-up clients is made
        # one, so the two divergence messages tell the clients apart.
        config = pga_lda_config(
            attack=AttackSpec(kind="pga", scale_factor=2.0, ascent_epochs=1)
        )
        setup, state = start(config)
        selected = select_clients(8, 6, 0, config.selection_seed)
        first, second = selected[1], selected[4]
        setup = dc_replace(setup, malicious=frozenset({first if attacker_first else second}))
        for client in (first, second):
            shard = setup.shards[client]
            setup = with_shard(setup, client, Dataset(
                shard.features * 1e200, shard.labels, shard.num_classes
            ))
        message = "ascent diverged" if attacker_first else "training diverged"
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=message):
                run_round(setup, state, config)

    def test_attacker_with_a_diverged_benign_reference_is_refused(self, monkeypatch):
        # Only the benign reference row is non-finite; its ascent row is
        # checked first and passes.
        config = pga_lda_config()
        setup, state = start(config)
        attacker = select_clients(8, 6, 0, config.selection_seed)[1]
        setup = dc_replace(setup, malicious=frozenset({attacker}))
        honest_train_rows = model.train_rows

        def train_rows(spec, rows, batch_size):
            trained = honest_train_rows(spec, rows, batch_size)
            (ascent,) = [i for i, row in enumerate(rows) if row.step < 0]
            trained[ascent + 1] = np.full_like(trained[ascent + 1], np.nan)
            return trained

        monkeypatch.setattr(model, "train_rows", train_rows)
        with pytest.raises(ValueError, match="training diverged"):
            run_round(setup, state, config)


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
        setup, state = start(config)
        start_bound = state.dp.clip_bound
        state, _ = run_round(setup, state, config)
        assert state.dp.clip_bound != start_bound

    def test_rounds_leave_their_start_state_as_it_was(self):
        config = small_config(
            strategy=Strategy(kind="fedavg", pre_transforms=("norm_bound",)),
            dp=DpState(clip_bound=0.5),
            rounds=3,  # the bound ends at 0.55, not where it started
        )
        setup, shared = start(config)
        params, bound = shared.global_params.copy(), shared.dp.clip_bound
        state, logs = shared, []
        for _ in range(config.rounds):
            state, log = run_round(setup, state, config)
            logs.append(log)
        assert np.array_equal(shared.global_params, params)
        assert shared.dp.clip_bound == bound
        assert shared.round_index == 0
        alone = run_experiment(config)
        assert np.array_equal(state.global_params, alone.final_params)
        assert [r.as_dict() for r in logs] == [r.as_dict() for r in alone.round_logs]

    def test_round_replays_from_the_same_state(self):
        # A round is a function of (setup, state, config): run twice from one
        # state it gives equal states and logs, and that state cannot be
        # written to.
        config = small_config(
            strategy=Strategy(kind="fedval", pre_transforms=("norm_bound", "dp_noise")),
            dp=DpState(clip_bound=0.5, noise_multiplier=0.1),
        )
        setup, state = start(config)
        state, _ = run_round(setup, state, config)
        (a, log_a), (b, log_b) = (run_round(setup, state, config) for _ in range(2))
        assert np.array_equal(a.global_params, b.global_params)
        assert (a.s2, a.dp, a.round_index) == (b.s2, b.dp, b.round_index)
        assert a.dp != state.dp and a.round_index == 2
        assert log_a.as_dict() == log_b.as_dict()
        for s in (state, a):
            with pytest.raises(ValueError, match="read-only"):
                s.global_params[0] = 0.0
            with pytest.raises(FrozenInstanceError):
                s.s2 = 1.0

    def test_pre_transforms_without_dp_rejected(self):
        config = small_config(strategy=Strategy(kind="fedavg", pre_transforms=("norm_bound",)))
        with pytest.raises(ConfigurationError, match="dp"):
            run_experiment(config)

    def test_mismatched_model_rejected(self):
        config = small_config(model=MlpSpec((5, 8, 4), seed=0))
        with pytest.raises(ConfigurationError, match="output dim"):
            run_experiment(config)

    @pytest.mark.parametrize("layer_sizes, named",
                             [((5, 8, 2), "output dim 2"), ((4, 8, 3), "input dim 4")])
    def test_too_narrow_model_rejected(self, layer_sizes, named):
        config = small_config(model=MlpSpec(layer_sizes, seed=0))
        with pytest.raises(ConfigurationError, match=named):
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

    def test_round_zero_trains_one_strategys_rows(self, monkeypatch):
        # Every strategy starts round 0 from one read-only initial model, so
        # their rows there are equal and train once; from round 1 on each
        # strategy trains from its own model.
        config = pga_lda_config()
        counted, per_call = spy_row_steps(monkeypatch), []
        honest_train_rows = model.train_rows

        def train_rows(spec, rows, batch_size):
            counted[0] = 0
            trained = honest_train_rows(spec, rows, batch_size)
            per_call.append(counted[0])
            return trained

        monkeypatch.setattr(model, "train_rows", train_rows)
        run_experiment(config)
        alone = per_call[:]
        per_call.clear()
        orchestrator.run_experiments([dc_replace(config, strategy=s) for s in STRATEGIES])
        assert len(alone) == config.rounds > 1
        assert per_call == [alone[0]] + [len(STRATEGIES) * steps for steps in alone[1:]]

    def test_wide_model_trains_every_strategys_rows(self, monkeypatch):
        # Strategies that train in turn share no rows, in round 0 either.
        config = self.wide_config()
        counted, per_call = spy_row_steps(monkeypatch), []
        honest_train_rows = model.train_rows

        def train_rows(spec, rows, batch_size):
            counted[0] = 0
            trained = honest_train_rows(spec, rows, batch_size)
            per_call.append(counted[0])
            return trained

        monkeypatch.setattr(model, "train_rows", train_rows)
        run_experiment(config)
        alone = per_call[:]
        per_call.clear()
        orchestrator.run_experiments([dc_replace(config, strategy=s) for s in STRATEGIES])
        assert len(alone) == config.rounds > 1
        assert per_call == [steps for steps in alone for _ in STRATEGIES]

    @pytest.mark.parametrize("wide", [False, True])
    def test_trained_stack_freed_before_aggregation(self, monkeypatch, wide):
        # Each strategy's delta matrix is a copy: the stack of trained rows
        # that train_rows returns views into is dead before any strategy
        # aggregates.
        config = dc_replace(self.wide_config() if wide else pga_lda_config(), rounds=1)
        stacks = []
        honest_train_rows, honest_finish = model.train_rows, orchestrator._finish_round

        def train_rows(spec, rows, batch_size):
            trained = honest_train_rows(spec, rows, batch_size)
            stacks.append(weakref.ref(trained[0].base))
            return trained

        def finish_round(*args):
            assert stacks and all(ref() is None for ref in stacks)
            return honest_finish(*args)

        monkeypatch.setattr(model, "train_rows", train_rows)
        monkeypatch.setattr(orchestrator, "_finish_round", finish_round)
        orchestrator.run_experiments([dc_replace(config, strategy=s) for s in STRATEGIES])
        assert len(stacks) == (len(STRATEGIES) if wide else 1)

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

    def test_each_config_validated_once(self, monkeypatch):
        config = small_config(rounds=1)
        configs = [dc_replace(config, strategy=Strategy(kind)) for kind in ("fedavg", "fedval")]
        validated = []
        honest = orchestrator.validate_config

        def spy(config):
            validated.append(config)
            honest(config)

        monkeypatch.setattr(orchestrator, "validate_config", spy)
        orchestrator.run_experiments(configs)
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

        def lockstep_round(*args):
            during.append(blas_thread_count())
            if fails:
                raise RuntimeError("round failed")
            return honest(*args)

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
        # One set-up and one initial state serve several strategies, each of
        # which gives what run_experiments gives that strategy.
        config = small_config(
            strategy=Strategy(kind="fedavg", pre_transforms=("norm_bound",)),
            dp=DpState(clip_bound=0.5),
            rounds=1,
        )
        configs = [config, dc_replace(config, strategy=Strategy("fedval"))]
        setup, shared = start(config)
        params, bound = shared.global_params.copy(), shared.dp.clip_bound
        rounds = [run_round(setup, shared, c) for c in configs]
        assert np.array_equal(shared.global_params, params)
        assert shared.dp.clip_bound == bound
        assert shared.round_index == 0
        for (state, log), result in zip(rounds, orchestrator.run_experiments(configs)):
            assert np.array_equal(state.global_params, result.final_params)
            assert [log.as_dict()] == [r.as_dict() for r in result.round_logs]


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
