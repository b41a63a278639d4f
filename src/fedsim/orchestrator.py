"""The communication-round loop, for one strategy or for several in lockstep.

Seeded client selection, local training with attack substitution, the DP
pre-transform pipeline, strategy dispatch, and metric capture. Every source
of randomness is derived from explicit seeds so a config replays
byte-identically.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace as dc_replace

import numpy as np

from fedsim import adversary, aggregators, fedval, metrics, model, privacy
from fedsim.adversary import AttackSpec
from fedsim.aggregators import ClientUpdate, Strategy
from fedsim.data import (
    CsvTask,
    Dataset,
    PartitionSpec,
    ValidationSet,
    build_validation,
    gen_synthetic,
    load_csv,
    partition,
)
from fedsim.errors import ConfigurationError
from fedsim.fedval import ScoreParams
from fedsim.metrics import MetricRecord
from fedsim.model import MlpSpec, TrainSpec
from fedsim.privacy import DpState

# Stream tags keep independently-consumed seed streams from colliding.
_TRAIN_STREAM = 1
_NOISE_STREAM = 2


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed from a tuple of integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class SyntheticTask:
    """Gaussian-blob classification task parameters."""

    classes: int = 10
    features: int = 16
    samples: int = 4000
    separation: float = 6.0
    seed: int = 0


@dataclass(frozen=True)
class HoldoutSpec:
    """Parameters for carving a validation or test holdout."""

    per_label: int = 10
    balanced: bool = True
    seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    """Full declarative description of one run."""

    task: SyntheticTask | CsvTask
    partition: PartitionSpec
    model: MlpSpec
    train: TrainSpec
    strategy: Strategy
    rounds: int
    clients_per_round: int
    selection_seed: int = 0
    score_params: ScoreParams = field(default_factory=ScoreParams)
    attack: AttackSpec = field(default_factory=AttackSpec)
    dp: DpState | None = None
    validation: HoldoutSpec = field(default_factory=lambda: HoldoutSpec(seed=2))
    test: HoldoutSpec = field(default_factory=lambda: HoldoutSpec(per_label=50, seed=1))
    metrics_every: int = 1
    recall_dim: bool = False
    backdoor_eval: tuple[int, int] | None = None


def validate_config(config: ExperimentConfig) -> None:
    """Cross-field feasibility checks, surfaced before round 1."""
    if config.rounds < 0:
        raise ConfigurationError("rounds: must be >= 0")
    if config.metrics_every < 1:
        raise ConfigurationError("metrics_every: must be >= 1")
    if config.clients_per_round < 1:
        raise ConfigurationError("clients_per_round: must be >= 1")
    if config.clients_per_round > config.partition.client_count:
        raise ConfigurationError(
            "clients_per_round: exceeds partition.client_count "
            f"({config.clients_per_round} > {config.partition.client_count})"
        )
    # numpy refuses a negative seed only once set-up draws from it. A csv
    # task has no seed.
    for key in ("task.seed", "partition.seed", "model.seed", "train.seed",
                "attack.placement_seed", "validation.seed", "test.seed", "selection_seed"):
        section, _, name = key.rpartition(".")
        if getattr(getattr(config, section) if section else config, name, 0) < 0:
            raise ConfigurationError(f"{key}: must be >= 0")
    # The aggregators refuse these too, but only once a round has trained.
    strategy, cpr = config.strategy, config.clients_per_round
    if strategy.kind == "lfr" and math.ceil(strategy.remove_fraction * cpr) >= cpr:
        raise ConfigurationError(f"strategy.remove_fraction: lfr would drop all {cpr} clients")
    if strategy.kind == "trimmed_mean" and 2 * math.floor(strategy.trim_fraction * cpr) >= cpr:
        raise ConfigurationError(f"strategy.trim_fraction: would over-trim {cpr} updates")
    if config.strategy.pre_transforms and config.dp is None:
        raise ConfigurationError("strategy.pre_transforms: requires a dp section")
    k = config.model.num_classes
    if isinstance(config.task, SyntheticTask):
        if k != config.task.classes:
            raise ConfigurationError(
                f"model.layer_sizes: output dim {k} != task classes {config.task.classes}"
            )
        if config.model.input_dim != config.task.features:
            raise ConfigurationError(
                f"model.layer_sizes: input dim {config.model.input_dim} "
                f"!= task features {config.task.features}"
            )
    # The model's classes are the task's: checked above for a synthetic task,
    # and when the file is read for a CSV one.
    labels = []
    if config.attack.kind == "label_flip":
        labels += [("attack.source_label", config.attack.source_label),
                   ("attack.target_label", config.attack.target_label)]
    if config.backdoor_eval is not None:
        if len(config.backdoor_eval) != 2 or len(set(config.backdoor_eval)) != 2:
            raise ConfigurationError(
                "backdoor_eval: needs two distinct labels [source, target], "
                f"got {list(config.backdoor_eval)}"
            )
        labels += [(f"backdoor_eval[{i}]", v) for i, v in enumerate(config.backdoor_eval)]
    for key, label in labels:
        if not 0 <= label < k:
            raise ConfigurationError(f"{key}: label {label} outside the model's {k} classes")


@dataclass
class RoundLog:
    """Per-round record: who was selected, how they were weighted, and the
    validation loss of the resulting global model."""

    round: int
    selected: list[int]
    malicious_selected: int
    val_loss: float
    s2: float | None = None
    scores: dict[int, float] | None = None
    weights: dict[int, float] | None = None
    zero_update: bool = False

    def as_dict(self) -> dict:
        """Every field, with client ids as string keys, which
        `json.dumps(sort_keys=True)` orders as text, not as numbers."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["selected"] = list(self.selected)
        for name in ("scores", "weights"):
            out[name] = {str(k): v for k, v in out[name].items()} if out[name] else None
        return out


@dataclass
class ExperimentState:
    """Mutable run state threaded through the round loop."""

    global_params: np.ndarray
    shards: list[Dataset]
    val: ValidationSet
    test: ValidationSet
    malicious: frozenset[int]
    s2: float
    dp: DpState | None
    round_index: int = 0

    def fork(self) -> ExperimentState:
        """A copy that shares the data, which no round writes, but owns its
        model and DP state, so running it leaves this state as it was."""
        return dc_replace(
            self,
            global_params=self.global_params.copy(),
            dp=dc_replace(self.dp) if self.dp else None,
        )


@dataclass
class ExperimentResult:
    records: list[MetricRecord]
    round_logs: list[RoundLog]
    final_params: np.ndarray


def select_clients(
    population: int, count: int, round_index: int, selection_seed: int
) -> list[int]:
    """Uniform sample without replacement, a function of (seed, round) only."""
    if count > population:
        raise ConfigurationError("cannot select more clients than exist")
    rng = np.random.default_rng([selection_seed, round_index])
    return [int(i) for i in rng.choice(population, size=count, replace=False)]


def _holdout(source: Dataset, spec: HoldoutSpec, section: str) -> tuple[ValidationSet, Dataset]:
    """`build_validation` of the holdout `spec`, its refusals named by the
    config `section` that holds it."""
    try:
        return build_validation(source, spec.per_label, spec.balanced, spec.seed)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{section}: {exc}") from None


def setup_experiment(config: ExperimentConfig) -> ExperimentState:
    """Materialize data, holdouts, shards, and the initial model. A holdout
    that lacks some label is refused here, before any round trains."""
    validate_config(config)
    if isinstance(config.task, SyntheticTask):
        t = config.task
        source = gen_synthetic(t.classes, t.features, t.samples, t.separation, t.seed)
    else:
        source = load_csv(config.task)
        if source.num_classes != config.model.num_classes:
            raise ConfigurationError(
                f"model.layer_sizes: output dim {config.model.num_classes} "
                f"!= csv classes {source.num_classes}"
            )

    test_holdout, rest = _holdout(source, config.test, "test")
    val_set, train_source = _holdout(rest, config.validation, "validation")
    shards = partition(train_source, config.partition)

    malicious: frozenset[int] = frozenset()
    if config.attack.kind != "none" and config.attack.malicious_fraction > 0:
        malicious = adversary.place_malicious(
            config.partition.client_count,
            config.attack.malicious_fraction,
            config.attack.placement_seed,
        )
    if config.attack.kind == "label_flip":
        shards = [
            adversary.poison_dataset(s, config.attack.source_label, config.attack.target_label)
            if c in malicious
            else s
            for c, s in enumerate(shards)
        ]

    return ExperimentState(
        global_params=model.init_params(config.model),
        shards=shards,
        val=val_set,
        test=test_holdout,
        malicious=malicious,
        s2=config.score_params.s2,
        dp=dc_replace(config.dp) if config.dp else None,
    )


def _pga_attackers(state: ExperimentState, config: ExperimentConfig) -> frozenset[int]:
    return state.malicious if config.attack.kind == "pga" else frozenset()


def _client_rows(
    state: ExperimentState,
    config: ExperimentConfig,
    selected: list[int],
    seeds: list[int],
) -> list[model.SgdRow]:
    """The `train_rows` rows of every selected client, from the state's global
    model and on the client's training seed in `seeds`: one per benign
    client, an ascent and a benign-reference row per PGA attacker (none when
    scale_factor is 0)."""
    g = state.global_params
    attackers = _pga_attackers(state, config)
    rows = []
    for client, seed in zip(selected, seeds):
        shard = state.shards[client]
        train = dc_replace(config.train, seed=seed)
        if client not in attackers:
            rows.append(model.local_row(g, shard, train))
        elif config.attack.scale_factor != 0.0:
            rows.extend(adversary.pga_rows(g, shard, train, config.attack.ascent_epochs))
    return rows


def _client_updates(
    state: ExperimentState,
    config: ExperimentConfig,
    selected: list[int],
    trained: Iterator[np.ndarray],
) -> list[ClientUpdate]:
    """Every selected client's update, taking its trained rows from `trained`
    in the order `_client_rows` gave them."""
    g = state.global_params
    attack = config.attack
    attackers = _pga_attackers(state, config)
    updates = []
    for client in selected:
        if client not in attackers:
            params = model.check_trained(next(trained), config.train.epochs)
            # The row becomes the delta in place, so the round holds one copy
            # of the cohort's parameters, not two.
            delta = np.subtract(params, g, out=params)
        elif attack.scale_factor != 0.0:
            delta = adversary.pga_combine(g, next(trained), next(trained), attack.scale_factor) - g
        else:  # a zero-scale attacker sends the global model back
            delta = g - g
        updates.append(ClientUpdate(client, delta, len(state.shards[client])))
    return updates


def _apply_pre_transforms(
    updates: list[ClientUpdate], state: ExperimentState, config: ExperimentConfig
) -> list[ClientUpdate]:
    for transform in config.strategy.pre_transforms:
        if transform == "norm_bound":
            flags = []
            clipped = []
            for u in updates:
                delta, was_clipped = privacy.clip(u.delta, state.dp.clip_bound)
                flags.append(was_clipped)
                clipped.append(dc_replace(u, delta=delta))
            new_bound = privacy.adapt_bound(state.dp, flags)
            updates = clipped
            state.dp.clip_bound = new_bound
        else:  # dp_noise
            updates = [
                dc_replace(
                    u,
                    delta=privacy.add_noise(
                        u.delta,
                        state.dp.noise_multiplier,
                        state.dp.clip_bound,
                        derive_seed(
                            config.train.seed, _NOISE_STREAM, state.round_index, u.client_id
                        ),
                        participants=len(updates),
                    ),
                )
                for u in updates
            ]
    return updates


def _finish_round(
    state: ExperimentState,
    config: ExperimentConfig,
    selected: list[int],
    trained: Iterator[np.ndarray],
) -> RoundLog:
    """Aggregate one strategy's round from its trained rows, advancing the
    state in place."""
    updates = _client_updates(state, config, selected, trained)

    updates = _apply_pre_transforms(updates, state, config)

    strategy = config.strategy
    log = RoundLog(
        round=state.round_index,
        selected=selected,
        malicious_selected=sum(1 for c in selected if c in state.malicious),
        val_loss=float("nan"),
    )

    if strategy.kind in ("fedval", "lfr"):  # one cohort evaluation serves both
        report = fedval.compute_report(
            [(state.global_params, u.delta) for u in updates], config.model, state.val,
            recall_dim=config.recall_dim and strategy.kind == "fedval",  # lfr reads no recall
        )
    if strategy.kind == "fedavg":
        new_global = aggregators.fedavg(state.global_params, updates)
    elif strategy.kind == "multi_krum":
        chosen = aggregators.multi_krum(updates, strategy.remove_fraction)
        uniform = np.full(len(chosen), 1.0 / len(chosen))
        new_global = fedval.aggregate(
            state.global_params, [updates[i] for i in chosen], uniform
        )
    elif strategy.kind == "lfr":
        new_global = aggregators.lfr(
            state.global_params, updates, report.overall_loss, strategy.remove_fraction
        )
    elif strategy.kind == "trimmed_mean":
        new_global = aggregators.trimmed_mean(
            state.global_params, updates, strategy.trim_fraction
        )
    else:  # fedval
        choice = fedval.adapt_s2(
            state.global_params,
            updates,
            report,
            dc_replace(config.score_params, s2=state.s2),
            config.model,
            state.val,
        )
        new_global = choice.global_params
        state.s2 = choice.s2
        log.s2 = choice.s2
        log.zero_update = choice.table.all_zero
        log.scores = {u.client_id: float(s) for u, s in zip(updates, choice.table.raw)}
        log.weights = {u.client_id: float(w) for u, w in zip(updates, choice.table.weights)}
        # adapt_s2 has already evaluated the model it chose.
        log.val_loss = choice.val_loss

    if strategy.kind != "fedval":
        val_losses, _ = model.eval_losses(new_global, config.model, state.val.data)
        log.val_loss = float(val_losses.mean())
    state.global_params = new_global
    state.round_index += 1
    return log


def _lockstep_round(
    states: list[ExperimentState], configs: list[ExperimentConfig]
) -> list[RoundLog]:
    """One round of every strategy, each advancing its own state in place.

    The clients and their training seeds are drawn once: every config shares
    `train.seed` and every state the round. When one full-batch step can
    hold a row of every strategy, all their rows train in one `train_rows`
    call, so the short tail batches of every strategy step together. With a
    wider model, whose full batches already fill a step, that would save few
    steps and hold every strategy's trained cohort at once, so each strategy
    trains in turn. Either way the strategies are finished in list order.
    """
    first = configs[0]
    round_index = states[0].round_index
    selected = select_clients(
        first.partition.client_count,
        first.clients_per_round,
        round_index,
        first.selection_seed,
    )
    seeds = [derive_seed(first.train.seed, _TRAIN_STREAM, round_index, c) for c in selected]
    spec, batch_size = first.model, first.train.batch_size
    pairs = list(zip(states, configs))
    together = model.rows_per_step(spec, batch_size) >= len(pairs)
    logs = []
    for group in [pairs] if together else [[pair] for pair in pairs]:
        rows = [row for s, c in group for row in _client_rows(s, c, selected, seeds)]
        trained = iter(model.train_rows(spec, rows, batch_size))
        logs += [_finish_round(s, c, selected, trained) for s, c in group]
        # Drop this cohort before the next group trains its own.
        del trained
    return logs


def run_round(state: ExperimentState, config: ExperimentConfig) -> RoundLog:
    """Execute one communication round, advancing the state in place."""
    (log,) = _lockstep_round([state], [config])
    return log


def run_experiments(
    configs: list[ExperimentConfig], state: ExperimentState | None = None
) -> list[ExperimentResult]:
    """Run several strategies on one set-up in lockstep, round by round, and
    return their results in the order of `configs`.

    The configs may differ only in `strategy`, and each is validated once,
    before any data is built. Each strategy runs on its own fork of `state`
    (`setup_experiment(configs[0])` by default), which is left as it was,
    and gives bit for bit the result of running it alone. An error in any
    strategy stops them all.
    """
    if not configs:
        raise ConfigurationError("run_experiments: no configs")
    first = configs[0]
    for config in configs:
        if dc_replace(config, strategy=first.strategy) != first:
            raise ConfigurationError("run_experiments: configs differ in more than strategy")
    # `setup_experiment` validates the first config itself.
    for config in configs[1:] if state is None else configs:
        validate_config(config)
    if state is None:
        state = setup_experiment(first)
    states = [state.fork() for _ in configs]
    backdoor = first.backdoor_eval
    if backdoor is None and first.attack.kind == "label_flip":
        backdoor = (first.attack.source_label, first.attack.target_label)

    results = [ExperimentResult([], [], s.global_params) for s in states]
    for r in range(first.rounds):
        for s, result, log in zip(states, results, _lockstep_round(states, configs)):
            result.round_logs.append(log)
            result.final_params = s.global_params
            if (r + 1) % first.metrics_every == 0 or r == first.rounds - 1:
                result.records.append(
                    metrics.evaluate(
                        s.global_params,
                        first.model,
                        s.test,
                        backdoor=backdoor,
                        round_index=r,
                        validation_loss=log.val_loss,
                    )
                )
    return results


def run_experiment(
    config: ExperimentConfig, state: ExperimentState | None = None
) -> ExperimentResult:
    """Run the full round loop of one strategy, recording metrics at the
    configured cadence: the one-strategy case of `run_experiments`, which
    leaves `state` as it was."""
    (result,) = run_experiments([config], state)
    return result


def malicious_round_probability(
    n_selected: int,
    malicious_fraction: float,
    threshold_fraction: float | None = None,
    rounds: int = 1,
    k0: int | None = None,
) -> tuple[float, float]:
    """Binomial tail analysis of malicious presence in a selection round.

    Returns (per_round_p, at_least_once_p): the probability that at least k0
    of n_selected independently-compromised picks are malicious, and the
    probability that happens in at least one of `rounds` rounds. When k0 is
    not given it defaults to ceil(threshold_fraction * n * 0.75), matching
    the convention that protection margins sit below the nominal threshold.
    """
    if not 0.0 <= malicious_fraction <= 1.0:
        raise ConfigurationError("malicious_fraction must lie in [0, 1]")
    if n_selected < 1:
        raise ConfigurationError("n_selected must be >= 1")
    if rounds < 0:
        raise ConfigurationError("rounds must be >= 0")
    if k0 is None:
        if threshold_fraction is None:
            raise ConfigurationError("need threshold_fraction or k0")
        if not 0.0 <= threshold_fraction <= 1.0:
            raise ConfigurationError("threshold_fraction must lie in [0, 1]")
        k0 = math.ceil(threshold_fraction * n_selected * 0.75)

    p = malicious_fraction
    n = n_selected
    if k0 <= 0:
        per_round = 1.0
    elif k0 > n or p == 0.0:
        per_round = 0.0
    elif p == 1.0:
        per_round = 1.0
    else:
        # Exact tail sum in log space.
        log_p, log_q = math.log(p), math.log1p(-p)
        terms = [
            math.lgamma(n + 1)
            - math.lgamma(kk + 1)
            - math.lgamma(n - kk + 1)
            + kk * log_p
            + (n - kk) * log_q
            for kk in range(k0, n + 1)
        ]
        peak = max(terms)
        per_round = math.exp(peak) * sum(math.exp(t - peak) for t in terms)
        per_round = min(per_round, 1.0)

    if rounds == 0 or per_round == 0.0:
        at_least_once = 0.0
    elif per_round >= 1.0:
        at_least_once = 1.0
    else:
        at_least_once = -math.expm1(rounds * math.log1p(-per_round))
    return per_round, at_least_once
