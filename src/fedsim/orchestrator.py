"""The communication-round loop, for one strategy or for several in lockstep.

Seeded client selection, local training with attack substitution, the DP
pre-transform pipeline, strategy dispatch, and metric capture. Every source
of randomness is derived from explicit seeds so a config replays
byte-identically. A run is one read-only `Setup` and, per strategy, a frozen
`RoundState`; a round maps round states to the next ones and never writes
into either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace as dc_replace

import numpy as np

from fedsim import adversary, aggregators, fedval, metrics, model, privacy
from fedsim.adversary import AttackSpec
from fedsim.aggregators import Strategy
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
    if isinstance(config.task, SyntheticTask) and k != config.task.classes:
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
        """Every field in strict JSON form: a non-finite float (a NaN score
        or loss) as None, and client ids as string keys, which
        `json.dumps(sort_keys=True)` orders as text, not as numbers."""
        def finite(v):
            return None if isinstance(v, float) and not math.isfinite(v) else v
        out = {f.name: finite(getattr(self, f.name)) for f in fields(self)}
        out["selected"] = list(self.selected)
        for name in ("scores", "weights"):
            out[name] = {str(k): finite(v) for k, v in out[name].items()} if out[name] else None
        return out


@dataclass(frozen=True, eq=False)
class Setup:
    """What every round reads and none changes: the client shards, the
    validation and test holdouts, and the malicious clients."""

    shards: tuple[Dataset, ...]
    val: ValidationSet
    test: ValidationSet
    malicious: frozenset[int]


@dataclass(frozen=True, eq=False)
class RoundState:
    """What a round changes: the global model, which is made read-only, the
    fedval exponent s2, the dp section with its current clip bound, and the
    index of the next round."""

    global_params: np.ndarray
    s2: float
    dp: DpState | None
    round_index: int = 0

    def __post_init__(self):
        self.global_params.flags.writeable = False


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


def setup_experiment(config: ExperimentConfig) -> Setup:
    """Materialize data, holdouts, shards and the malicious clients. A
    holdout that lacks some label is refused here, before any round trains."""
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
    return Setup(tuple(shards), val_set, test_holdout, malicious)


def initial_state(config: ExperimentConfig) -> RoundState:
    """The state before round 0: the initial model, the configured s2 and
    the configured dp section."""
    return RoundState(model.init_params(config.model), config.score_params.s2, config.dp)


def _client_rows(
    setup: Setup,
    state: RoundState,
    config: ExperimentConfig,
    selected: list[int],
    seeds: list[int],
) -> list[tuple[model.SgdRow, ...]]:
    """The `train_rows` rows of each selected client, from the state's global
    model and on the client's seed in `seeds`, one tuple per client in
    selection order: `(local_row,)` if benign, `pga_rows` for a PGA attacker
    and `()` for one whose scale_factor is 0. No other round code decides
    which clients attack."""
    g, attack = state.global_params, config.attack
    rows = []
    for client, seed in zip(selected, seeds):
        shard, train = setup.shards[client], dc_replace(config.train, seed=seed)
        if attack.kind != "pga" or client not in setup.malicious:
            rows.append((model.local_row(g, shard, train),))
        elif attack.scale_factor != 0.0:
            rows.append(adversary.pga_rows(g, shard, train, attack.ascent_epochs))
        else:
            rows.append(())
    return rows


def _client_deltas(
    state: RoundState, config: ExperimentConfig, trained: list[tuple[np.ndarray, ...]]
) -> np.ndarray:
    """The round's (n, P) delta matrix: each selected client's model minus
    the global model, from its tuple of `_client_rows`, trained. One row is
    a benign model; two are a PGA attacker's ascent and benign reference,
    which `pga_combine` joins; none is a zero-scale attacker, whose row
    stays zero. Each trained row is refused here if it diverged, as it is
    taken: the first diverged client in selection order, ascent row first,
    is named."""
    g = state.global_params
    deltas = np.zeros((len(trained), len(g)))
    for row, client_rows in zip(deltas, trained):
        if len(client_rows) == 1:
            np.subtract(model.check_trained(client_rows[0]), g, out=row)
        elif client_rows:
            ascended, benign = client_rows
            malicious = adversary.pga_combine(g, model.check_trained(ascended, ascent=True),
                                              model.check_trained(benign),
                                              config.attack.scale_factor)
            np.subtract(malicious, g, out=row)
    return deltas


def _finish_round(
    setup: Setup,
    state: RoundState,
    config: ExperimentConfig,
    selected: list[int],
    deltas: np.ndarray,
) -> tuple[RoundState, RoundLog]:
    """Aggregate one strategy's round from its `_client_deltas` matrix, which
    the DP pre-transforms change in place, and return the next state and the
    round's log."""
    strategy = config.strategy
    g, s2, dp = state.global_params, state.s2, state.dp
    if strategy.pre_transforms:
        seeds = [derive_seed(config.train.seed, _NOISE_STREAM, state.round_index, c)
                 for c in selected]
        dp = privacy.apply_pre_transforms(strategy.pre_transforms, deltas, dp, seeds,
                                           state.round_index)
    counts = [len(setup.shards[c]) for c in selected]

    if strategy.kind in ("fedval", "lfr"):  # one cohort evaluation serves both
        report = fedval.compute_report(
            [(g, d) for d in deltas], config.model, setup.val,
            recall_dim=config.recall_dim and strategy.kind == "fedval",  # lfr reads no recall
        )
    if strategy.kind == "fedavg":
        new_global = aggregators.fedavg(g, deltas, counts)
    elif strategy.kind == "multi_krum":
        chosen = aggregators.multi_krum(deltas, strategy.remove_fraction)
        new_global = aggregators.fedavg(g, deltas[chosen], np.ones(len(chosen)))
    elif strategy.kind == "lfr":
        new_global = aggregators.lfr(g, deltas, counts, report.overall_loss,
                                     strategy.remove_fraction)
    elif strategy.kind == "trimmed_mean":
        new_global = aggregators.trimmed_mean(g, deltas, strategy.trim_fraction)
    else:  # fedval
        choice = fedval.adapt_s2(g, deltas, report, dc_replace(config.score_params, s2=s2),
                                 config.model, setup.val)
        new_global, s2 = choice.global_params, choice.s2
        # adapt_s2 has already evaluated the model it chose.
        logged = dict(s2=s2, zero_update=choice.table.all_zero, val_loss=choice.val_loss,
                      scores=dict(zip(selected, choice.table.raw.tolist())),
                      weights=dict(zip(selected, choice.table.weights.tolist())))
    if strategy.kind != "fedval":
        val_losses, _ = model.eval_losses(new_global, config.model, setup.val.data)
        logged = dict(val_loss=float(val_losses.mean()))
    log = RoundLog(round=state.round_index, selected=selected,
                   malicious_selected=sum(1 for c in selected if c in setup.malicious),
                   **logged)
    return RoundState(new_global, s2, dp, state.round_index + 1), log


def _lockstep_round(
    setup: Setup, states: list[RoundState], configs: list[ExperimentConfig]
) -> tuple[list[RoundState], list[RoundLog]]:
    """One round of every strategy, each from its own state: the next states
    and the round's logs, in the order of `configs`.

    The clients and their training seeds are drawn once: every config shares
    `train.seed` and every state the round. When one full-batch step can
    hold a row of every strategy, all their rows train in one `train_rows`
    call, so the short tail batches of every strategy step together. With a
    wider model, whose full batches already fill a step, that would save few
    steps and hold every strategy's trained cohort at once, so each strategy
    trains in turn. The configs differ only in `strategy`, which
    `_client_rows` never reads, so a group trains each distinct state's rows
    once, flattened in client order, and regroups the trained rows into the
    same per-client tuples, from which every strategy of that state builds
    its delta matrix: in round 0, where every strategy holds the initial
    state, a joint call trains one strategy's rows. Either way each
    strategy's delta matrix is built and the trained rows are freed before
    any strategy aggregates, and the strategies are finished in list order.
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
    finished = []
    for group in [pairs] if together else [[pair] for pair in pairs]:
        rows = {s: _client_rows(setup, s, c, selected, seeds) for s, c in dict(group).items()}
        flat = [row for ts in rows.values() for t in ts for row in t]
        trained = iter(model.train_rows(spec, flat, batch_size))
        own = {s: [tuple(next(trained) for _ in t) for t in ts] for s, ts in rows.items()}
        matrices = [_client_deltas(s, c, own[s]) for s, c in group]
        # The trained stack is garbage once the matrices are built.
        del trained, own
        finished += [_finish_round(setup, s, c, selected, d)
                     for (s, c), d in zip(group, matrices)]
    next_states, logs = zip(*finished)
    return list(next_states), list(logs)


def run_round(
    setup: Setup, state: RoundState, config: ExperimentConfig
) -> tuple[RoundState, RoundLog]:
    """Execute one communication round: the next state and the round's log."""
    (state,), (log,) = _lockstep_round(setup, [state], [config])
    return state, log


def run_experiments(configs: list[ExperimentConfig]) -> list[ExperimentResult]:
    """Run several strategies on one set-up in lockstep, round by round, and
    return their results in the order of `configs`.

    The configs may differ only in `strategy`, and each is validated once,
    before any data is built. Every strategy starts from one read-only
    initial state and gives bit for bit the result of running it alone. An
    error in any strategy stops them all.
    """
    if not configs:
        raise ConfigurationError("run_experiments: no configs")
    first = configs[0]
    for config in configs:
        if dc_replace(config, strategy=first.strategy) != first:
            raise ConfigurationError("run_experiments: configs differ in more than strategy")
    # `setup_experiment` validates the first config itself.
    for config in configs[1:]:
        validate_config(config)
    setup, start = setup_experiment(first), initial_state(first)
    states = [start] * len(configs)
    backdoor = first.backdoor_eval
    if backdoor is None and first.attack.kind == "label_flip":
        backdoor = (first.attack.source_label, first.attack.target_label)

    results = [ExperimentResult([], [], start.global_params) for _ in configs]
    for r in range(first.rounds):
        states, logs = _lockstep_round(setup, states, configs)
        for s, result, log in zip(states, results, logs):
            result.round_logs.append(log)
            result.final_params = s.global_params
            if (r + 1) % first.metrics_every == 0 or r == first.rounds - 1:
                result.records.append(metrics.evaluate(
                    s.global_params, first.model, setup.test, backdoor=backdoor,
                    round_index=r, validation_loss=log.val_loss))
    return results


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full round loop of one strategy, recording metrics at the
    configured cadence: the one-strategy case of `run_experiments`."""
    (result,) = run_experiments([config])
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
