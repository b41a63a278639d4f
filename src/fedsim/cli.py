"""Command-line front end.

Subcommands: `run` executes one experiment from a JSON config, `compare`
runs the same config under several strategies in lockstep, with identical
seeds, on data that it builds once, and `prob` prints the
malicious-selection tail probabilities. Configs are strict: unknown keys are
errors, and the canonicalized config (all defaults made explicit) is hashed
into the run manifest.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fedsim
from fedsim.adversary import AttackSpec
from fedsim.aggregators import Strategy
from fedsim.data import PartitionSpec
from fedsim.errors import ConfigurationError
from fedsim.fedval import ScoreParams
from fedsim.metrics import MetricRecord
from fedsim.model import MlpSpec, TrainSpec
from fedsim.orchestrator import (
    CsvTask,
    ExperimentConfig,
    ExperimentResult,
    HoldoutSpec,
    SyntheticTask,
    malicious_round_probability,
    run_experiment,
    run_experiments,
    setup_experiment,
    validate_config,
)
from fedsim.privacy import DpState

# Conventional removal fractions applied when `compare` switches a config to
# a strategy kind the base config did not parameterize.
COMPARE_DEFAULTS = {
    "multi_krum": {"remove_fraction": 0.5},
    "lfr": {"remove_fraction": 0.4},
    "trimmed_mean": {"trim_fraction": 0.2},
}


def _check_keys(section: str, given: dict, allowed: set[str]) -> None:
    unknown = set(given) - allowed
    if unknown:
        raise ConfigurationError(f"{section}: unknown keys {sorted(unknown)}")


def _require(section: str, given: dict, key: str):
    if key not in given:
        raise ConfigurationError(f"{section}.{key}: missing required key")
    return given[key]


def _parse_task(raw: dict) -> SyntheticTask | CsvTask:
    kind = _require("task", raw, "type")
    if kind == "synthetic":
        _check_keys("task", raw, {"type", "classes", "features", "samples", "separation", "seed"})
        return SyntheticTask(
            classes=int(raw.get("classes", 10)),
            features=int(raw.get("features", 16)),
            samples=int(raw.get("samples", 4000)),
            separation=float(raw.get("separation", 6.0)),
            seed=int(raw.get("seed", 0)),
        )
    if kind == "csv":
        _check_keys("task", raw, {"type", "path", "feature_columns", "label_column", "group_column"})
        return CsvTask(
            path=str(_require("task", raw, "path")),
            feature_columns=tuple(_require("task", raw, "feature_columns")),
            label_column=str(_require("task", raw, "label_column")),
            group_column=raw.get("group_column"),
        )
    raise ConfigurationError(f"task.type: unknown type {kind!r}")


def _parse_partition(raw: dict) -> PartitionSpec:
    _check_keys(
        "partition", raw, {"scheme", "client_count", "seed", "alpha", "missing", "affected_fraction"}
    )
    return PartitionSpec(
        scheme=str(_require("partition", raw, "scheme")),
        client_count=int(_require("partition", raw, "client_count")),
        seed=int(raw.get("seed", 0)),
        alpha=float(raw.get("alpha", 1.0)),
        missing=tuple(raw.get("missing", ())),
        affected_fraction=float(raw.get("affected_fraction", 0.0)),
    )


def _parse_model(raw: dict) -> MlpSpec:
    _check_keys("model", raw, {"layer_sizes", "activation", "seed"})
    return MlpSpec(
        layer_sizes=tuple(_require("model", raw, "layer_sizes")),
        activation=str(raw.get("activation", "relu")),
        seed=int(raw.get("seed", 0)),
    )


def _parse_train(raw: dict) -> TrainSpec:
    _check_keys("train", raw, {"epochs", "batch_size", "learning_rate", "prox_mu", "seed"})
    return TrainSpec(
        epochs=int(raw.get("epochs", 10)),
        batch_size=int(raw.get("batch_size", 32)),
        learning_rate=float(raw.get("learning_rate", 0.005)),
        prox_mu=float(raw.get("prox_mu", 0.0)),
        seed=int(raw.get("seed", 0)),
    )


def _parse_strategy(raw: dict) -> Strategy:
    _check_keys("strategy", raw, {"kind", "remove_fraction", "trim_fraction", "pre_transforms"})
    return Strategy(
        kind=str(_require("strategy", raw, "kind")),
        remove_fraction=float(raw.get("remove_fraction", 0.0)),
        trim_fraction=float(raw.get("trim_fraction", 0.0)),
        pre_transforms=tuple(raw.get("pre_transforms", ())),
    )


def _parse_score_params(raw: dict) -> ScoreParams:
    _check_keys(
        "score_params", raw, {"s1_label", "s1_avg", "s2", "s2_recall", "baseline_c", "clamp_floor"}
    )
    return ScoreParams(
        s1_label=float(raw.get("s1_label", 3.0)),
        s1_avg=float(raw.get("s1_avg", 5.0)),
        s2=float(raw.get("s2", 3.0)),
        s2_recall=float(raw.get("s2_recall", 30.0)),
        baseline_c=float(raw.get("baseline_c", 3.0)),
        clamp_floor=float(raw.get("clamp_floor", 0.0)),
    )


def _parse_attack(raw: dict) -> AttackSpec:
    _check_keys(
        "attack",
        raw,
        {
            "kind",
            "source_label",
            "target_label",
            "scale_factor",
            "ascent_epochs",
            "malicious_fraction",
            "placement_seed",
        },
    )
    return AttackSpec(
        kind=str(raw.get("kind", "none")),
        source_label=int(raw.get("source_label", 0)),
        target_label=int(raw.get("target_label", 0)),
        scale_factor=float(raw.get("scale_factor", 1.0)),
        ascent_epochs=int(raw.get("ascent_epochs", 1)),
        malicious_fraction=float(raw.get("malicious_fraction", 0.0)),
        placement_seed=int(raw.get("placement_seed", 0)),
    )


def _parse_dp(raw: dict | None) -> DpState | None:
    if raw is None:
        return None
    _check_keys("dp", raw, {"clip_bound", "target_quantile", "adapt_rate", "noise_multiplier"})
    return DpState(
        clip_bound=float(raw.get("clip_bound", 1.0)),
        target_quantile=float(raw.get("target_quantile", 0.5)),
        adapt_rate=float(raw.get("adapt_rate", 0.2)),
        noise_multiplier=float(raw.get("noise_multiplier", 0.0)),
    )


def _parse_holdout(section: str, raw: dict, default_seed: int, default_per_label: int) -> HoldoutSpec:
    _check_keys(section, raw, {"per_label", "balanced", "seed"})
    return HoldoutSpec(
        per_label=int(raw.get("per_label", default_per_label)),
        balanced=bool(raw.get("balanced", True)),
        seed=int(raw.get("seed", default_seed)),
    )


TOP_LEVEL_KEYS = {
    "task",
    "partition",
    "model",
    "train",
    "strategy",
    "score_params",
    "attack",
    "dp",
    "rounds",
    "clients_per_round",
    "selection_seed",
    "validation",
    "test",
    "metrics_every",
    "recall_dim",
    "backdoor_eval",
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be an object")
    _check_keys("config", raw, TOP_LEVEL_KEYS)
    for section in ("task", "partition", "model", "train", "strategy"):
        if section not in raw:
            raise ConfigurationError(f"{section}: missing required section")
    backdoor = raw.get("backdoor_eval")
    return ExperimentConfig(
        task=_parse_task(raw["task"]),
        partition=_parse_partition(raw["partition"]),
        model=_parse_model(raw["model"]),
        train=_parse_train(raw["train"]),
        strategy=_parse_strategy(raw["strategy"]),
        score_params=_parse_score_params(raw.get("score_params", {})),
        attack=_parse_attack(raw.get("attack", {})),
        dp=_parse_dp(raw.get("dp")),
        rounds=int(_require("config", raw, "rounds")),
        clients_per_round=int(_require("config", raw, "clients_per_round")),
        selection_seed=int(raw.get("selection_seed", 0)),
        validation=_parse_holdout("validation", raw.get("validation", {}), 2, 10),
        test=_parse_holdout("test", raw.get("test", {}), 1, 50),
        metrics_every=int(raw.get("metrics_every", 1)),
        recall_dim=bool(raw.get("recall_dim", False)),
        backdoor_eval=tuple(int(v) for v in backdoor) if backdoor is not None else None,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    return config_from_dict(raw)


def canonical_dict(config: ExperimentConfig) -> dict:
    """Nested plain-dict form with every default materialized."""
    task: dict[str, object]
    if isinstance(config.task, SyntheticTask):
        task = {
            "type": "synthetic",
            "classes": config.task.classes,
            "features": config.task.features,
            "samples": config.task.samples,
            "separation": config.task.separation,
            "seed": config.task.seed,
        }
    else:
        task = {
            "type": "csv",
            "path": config.task.path,
            "feature_columns": list(config.task.feature_columns),
            "label_column": config.task.label_column,
            "group_column": config.task.group_column,
        }
    return {
        "task": task,
        "partition": {
            "scheme": config.partition.scheme,
            "client_count": config.partition.client_count,
            "seed": config.partition.seed,
            "alpha": config.partition.alpha,
            "missing": list(config.partition.missing),
            "affected_fraction": config.partition.affected_fraction,
        },
        "model": {
            "layer_sizes": list(config.model.layer_sizes),
            "activation": config.model.activation,
            "seed": config.model.seed,
        },
        "train": {
            "epochs": config.train.epochs,
            "batch_size": config.train.batch_size,
            "learning_rate": config.train.learning_rate,
            "prox_mu": config.train.prox_mu,
            "seed": config.train.seed,
        },
        "strategy": {
            "kind": config.strategy.kind,
            "remove_fraction": config.strategy.remove_fraction,
            "trim_fraction": config.strategy.trim_fraction,
            "pre_transforms": list(config.strategy.pre_transforms),
        },
        "score_params": {
            "s1_label": config.score_params.s1_label,
            "s1_avg": config.score_params.s1_avg,
            "s2": config.score_params.s2,
            "s2_recall": config.score_params.s2_recall,
            "baseline_c": config.score_params.baseline_c,
            "clamp_floor": config.score_params.clamp_floor,
        },
        "attack": {
            "kind": config.attack.kind,
            "source_label": config.attack.source_label,
            "target_label": config.attack.target_label,
            "scale_factor": config.attack.scale_factor,
            "ascent_epochs": config.attack.ascent_epochs,
            "malicious_fraction": config.attack.malicious_fraction,
            "placement_seed": config.attack.placement_seed,
        },
        "dp": None
        if config.dp is None
        else {
            "clip_bound": config.dp.clip_bound,
            "target_quantile": config.dp.target_quantile,
            "adapt_rate": config.dp.adapt_rate,
            "noise_multiplier": config.dp.noise_multiplier,
        },
        "rounds": config.rounds,
        "clients_per_round": config.clients_per_round,
        "selection_seed": config.selection_seed,
        "validation": {
            "per_label": config.validation.per_label,
            "balanced": config.validation.balanced,
            "seed": config.validation.seed,
        },
        "test": {
            "per_label": config.test.per_label,
            "balanced": config.test.balanced,
            "seed": config.test.seed,
        },
        "metrics_every": config.metrics_every,
        "recall_dim": config.recall_dim,
        "backdoor_eval": list(config.backdoor_eval) if config.backdoor_eval else None,
    }


def canonical_json(config: ExperimentConfig) -> str:
    return json.dumps(canonical_dict(config), sort_keys=True, indent=2) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    compact = json.dumps(canonical_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    config_hash: str
    artifacts: dict[str, str]
    tool_version: str
    duration_seconds: float

    def as_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "artifacts": self.artifacts,
            "tool_version": self.tool_version,
            "duration_seconds": self.duration_seconds,
        }


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return "|".join(repr(float(v)) for v in value)
    if isinstance(value, dict):
        return "|".join(f"{k}:{float(v)!r}" for k, v in sorted(value.items()))
    return str(value)


def write_metrics_csv(path: Path, records: list[MetricRecord]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MetricRecord.FIELDS)
        for r in records:
            writer.writerow([_format_cell(getattr(r, f)) for f in MetricRecord.FIELDS])


def _finite_or_null(value):
    """`value` with every non-finite float (a NaN score or loss) replaced by
    None, so that the round log stays strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def _write_run(
    out: Path, config: ExperimentConfig, result: ExperimentResult, duration: float
) -> RunManifest:
    """Write one run's artifacts and manifest into `out`, which must exist."""
    metrics_path = out / "metrics.csv"
    rounds_path = out / "rounds.jsonl"
    model_path = out / "final_model.npz"
    write_metrics_csv(metrics_path, result.records)
    with rounds_path.open("w", encoding="utf-8") as fh:
        for log in result.round_logs:
            line = json.dumps(_finite_or_null(log.as_dict()), sort_keys=True, allow_nan=False)
            fh.write(line + "\n")
    np.savez(
        model_path,
        params=result.final_params,
        layer_sizes=np.asarray(config.model.layer_sizes),
    )

    manifest = RunManifest(
        config_hash=config_hash(config),
        artifacts={
            "metrics_csv": str(metrics_path),
            "rounds_jsonl": str(rounds_path),
            "final_model": str(model_path),
        },
        tool_version=fedsim.__version__,
        duration_seconds=duration,
    )
    (out / "manifest.json").write_text(
        json.dumps(manifest.as_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (out / "config.canonical.json").write_text(canonical_json(config), encoding="utf-8")
    return manifest


def cmd_run(config_path: str, out_dir: str) -> RunManifest:
    config = load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    result = run_experiment(config)
    return _write_run(out, config, result, time.perf_counter() - started)


def _strategy_override(config: ExperimentConfig, kind: str) -> ExperimentConfig:
    from dataclasses import replace

    if kind not in ("fedavg", "fedval", "multi_krum", "lfr", "trimmed_mean"):
        raise ConfigurationError(f"compare: unknown strategy {kind!r}")
    if kind == config.strategy.kind:
        return config
    extra = COMPARE_DEFAULTS.get(kind, {})
    return replace(config, strategy=Strategy(kind=kind, **extra))


def cmd_compare(config_path: str, strategies: list[str], out_dir: str) -> dict[str, RunManifest]:
    if not strategies:
        raise ConfigurationError("compare: strategy list is empty")
    base = load_config(config_path)
    configs = []
    for i, kind in enumerate(strategies):
        if kind in strategies[:i]:
            raise ConfigurationError(f"compare: strategy {kind!r} is listed twice")
        configs.append(_strategy_override(base, kind))
        validate_config(configs[-1])
    # An override changes only the strategy, which set-up never reads, so
    # every strategy starts from the same data.
    shared = setup_experiment(configs[0])
    started = time.perf_counter()
    results = run_experiments(configs, shared)
    duration = time.perf_counter() - started

    out = Path(out_dir)
    manifests: dict[str, RunManifest] = {}
    rows: list[tuple[str, int, str, float]] = []
    for kind, config, result in zip(strategies, configs, results):
        sub = out / kind
        sub.mkdir(parents=True, exist_ok=True)
        manifests[kind] = _write_run(sub, config, result, duration)
        for record in result.records:
            rows.append((kind, record.round, "overall_accuracy", record.overall_accuracy))
            rows.append((kind, record.round, "label_accuracy_mad", record.label_accuracy_mad))
            rows.append(
                (kind, record.round, "mean_validation_loss", record.mean_validation_loss)
            )
            for k, acc in enumerate(record.per_label_accuracy):
                rows.append((kind, record.round, f"label_accuracy_{k}", acc))
            if record.backdoor_accuracy is not None:
                rows.append((kind, record.round, "backdoor_accuracy", record.backdoor_accuracy))
            if record.per_group_recall:
                for g, rec in sorted(record.per_group_recall.items()):
                    rows.append((kind, record.round, f"group_recall_{g}", rec))

    with (out / "combined.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "round", "metric", "value"])
        for strategy, round_index, metric, value in rows:
            writer.writerow([strategy, round_index, metric, repr(float(value))])
    return manifests


def cmd_prob(
    n: int, p: float, threshold: float | None, k0: int | None, rounds: list[int]
) -> list[tuple[int, float, float]]:
    table = []
    for r in rounds:
        per_round, at_least_once = malicious_round_probability(
            n, p, threshold_fraction=threshold, rounds=r, k0=k0
        )
        table.append((r, per_round, at_least_once))
    return table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim", description="Deterministic federated-learning simulator."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", required=True, help="output directory")

    p_cmp = sub.add_parser("compare", help="run several strategies under identical seeds")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--strategies", required=True, help="comma-separated strategy kinds")
    p_cmp.add_argument("--out", required=True)

    p_prob = sub.add_parser("prob", help="malicious-selection probability table")
    p_prob.add_argument("--n", type=int, required=True, help="clients selected per round")
    p_prob.add_argument("--p", type=float, required=True, help="fraction of malicious clients")
    group = p_prob.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", type=float, default=None)
    group.add_argument("--k0", type=int, default=None)
    p_prob.add_argument("--rounds", required=True, help="comma-separated round counts")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            manifest = cmd_run(args.config, args.out)
            print(f"run complete: {manifest.artifacts['metrics_csv']}")
        elif args.command == "compare":
            strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
            manifests = cmd_compare(args.config, strategies, args.out)
            print(f"compared {len(manifests)} strategies -> {args.out}/combined.csv")
        else:
            rounds = [int(r.strip()) for r in args.rounds.split(",") if r.strip()]
            if not rounds:
                raise ConfigurationError("prob: --rounds list is empty")
            table = cmd_prob(args.n, args.p, args.threshold, args.k0, rounds)
            print(f"{'rounds':>10}  {'per_round_p':>14}  {'at_least_once_p':>16}")
            for r, per_round, at_least_once in table:
                print(f"{r:>10}  {per_round:>14.6e}  {at_least_once:>16.6e}")
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
