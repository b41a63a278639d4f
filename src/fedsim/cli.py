"""Command-line front end.

Subcommands: `run` executes one experiment from a JSON config, `compare`
runs the same config under several strategies in lockstep, with identical
seeds, on data that it builds once, and `prob` prints the
malicious-selection tail probabilities. `run` and `compare` validate and
build through `run_experiments`, so a config is refused exactly as the
Python API refuses it, and they write their output directory only after
every round has run.

Configs are read and written by one codec that walks the dataclasses of
`ExperimentConfig`: each section is a dataclass, and each of its fields is
a key, whose name, default and type come from the field. Configs are
strict: unknown keys, missing required keys, values of the wrong type and
non-finite numbers are errors that name the dotted key. The canonicalized
config (all defaults made explicit) is hashed into the run manifest.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
import types
import typing
from pathlib import Path

# The CLI owns its process: start numpy's OpenBLAS on one thread, so that no
# worker thread spins while numpy and fedsim load. An explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

import fedsim
from fedsim import model
from fedsim.aggregators import STRATEGY_KINDS, Strategy
from fedsim.errors import ConfigurationError
from fedsim.metrics import MetricRecord
from fedsim.orchestrator import (
    CsvTask,
    ExperimentConfig,
    ExperimentResult,
    SyntheticTask,
    malicious_round_probability,
    run_experiment,
    run_experiments,
)

TASK_TYPES = {"synthetic": SyntheticTask, "csv": CsvTask}


def _check_keys(section: str, given: dict, allowed: set[str]) -> None:
    unknown = set(given) - allowed
    if unknown:
        raise ConfigurationError(f"{section}: unknown keys {sorted(unknown)}")


def _decode_value(hint, value, key: str, default):
    """`value` read as type `hint`, refused with `key` if it is not one.

    A dataclass is a section, named by the last part of `key`; its keys left
    out take their values from `default` when that is an instance of it, as
    a holdout section's do from its own default holdout."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(hint):
            return None
        members = [t for t in typing.get_args(hint) if t is not type(None)]
        if len(members) > 1:  # the task: its `type` names the dataclass
            return _decode_task(value)
        hint = members[0]
    if dataclasses.is_dataclass(hint):
        base = default if isinstance(default, hint) else None
        return _decode(hint, value, key.rpartition(".")[2], base)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigurationError(f"{key}: expected a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_decode_value(item, v, f"{key}[{i}]", None) for i, v in enumerate(value))
    # A JSON true or false is a Python bool, which is also an int: it is
    # accepted only where the field is a bool.
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:
            return float(value)
    # Python's json reads NaN and Infinity, which no field may hold.
    if hint is float and isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"{key}: expected a finite number, got {value!r}")
    if hint is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, hint) and (hint is bool or not isinstance(value, bool)):
        return value
    expected = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
    raise ConfigurationError(f"{key}: expected {expected[hint]}, got {value!r}")


def _decode(cls, raw, section: str, base=None):
    """An instance of the dataclass `cls` from the JSON object `raw`.

    Each field is one key, with the field's type. A key left out takes its
    value from `base` if one is given, else the field's default; a field
    without a default is required."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{section}: expected an object, got {raw!r}")
    fields = dataclasses.fields(cls)
    _check_keys(section, raw, {f.name for f in fields})
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields:
        hint = hints[f.name]
        if base is not None:
            default = getattr(base, f.name)
        elif f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        else:
            default = f.default
        if f.name in raw:
            values[f.name] = _decode_value(hint, raw[f.name], f"{section}.{f.name}", default)
        elif default is not dataclasses.MISSING:
            values[f.name] = default
        elif any(dataclasses.is_dataclass(t) for t in (hint, *typing.get_args(hint))):
            raise ConfigurationError(f"{f.name}: missing required section")
        else:
            raise ConfigurationError(f"{section}.{f.name}: missing required key")
    try:
        return cls(**values)
    except ConfigurationError as exc:  # the section's own range checks
        raise ConfigurationError(f"{section}: {exc}") from None


def _decode_task(raw) -> SyntheticTask | CsvTask:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"task: expected an object, got {raw!r}")
    if "type" not in raw:
        raise ConfigurationError("task.type: missing required key")
    kind = raw["type"]
    if not isinstance(kind, str) or kind not in TASK_TYPES:
        raise ConfigurationError(f"task.type: unknown type {kind!r}")
    return _decode(TASK_TYPES[kind], {k: v for k, v in raw.items() if k != "type"}, "task")


def config_from_dict(raw: dict) -> ExperimentConfig:
    return _decode(ExperimentConfig, raw, "config")


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    return config_from_dict(raw)


def _encode(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def canonical_dict(config: ExperimentConfig) -> dict:
    """Nested plain-dict form with every default materialized."""
    out = _encode(config)
    out["task"]["type"] = next(k for k, cls in TASK_TYPES.items() if isinstance(config.task, cls))
    return out


def canonical_json(config: ExperimentConfig) -> str:
    return json.dumps(canonical_dict(config), sort_keys=True, indent=2) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    compact = json.dumps(canonical_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class RunManifest:
    config_hash: str
    artifacts: dict[str, str]
    tool_version: str
    duration_seconds: float
    blas: dict[str, str | int | None]


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
    """Write one run's artifacts and manifest into `out`, creating it."""
    out.mkdir(parents=True, exist_ok=True)
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
        blas=model.blas_fingerprint(),
    )
    (out / "manifest.json").write_text(
        json.dumps(dataclasses.asdict(manifest), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    (out / "config.canonical.json").write_text(canonical_json(config), encoding="utf-8")
    return manifest


def cmd_run(config_path: str, out_dir: str) -> RunManifest:
    config = load_config(config_path)
    started = time.perf_counter()
    result = run_experiment(config)
    return _write_run(Path(out_dir), config, result, time.perf_counter() - started)


def _strategy_override(config: ExperimentConfig, kind: str) -> ExperimentConfig:
    if kind not in STRATEGY_KINDS:
        raise ConfigurationError(f"compare: unknown strategy {kind!r}")
    if kind == config.strategy.kind:
        return config
    return dataclasses.replace(config, strategy=Strategy(kind=kind, **STRATEGY_KINDS[kind]))


def cmd_compare(config_path: str, strategies: list[str], out_dir: str) -> dict[str, RunManifest]:
    if not strategies:
        raise ConfigurationError("compare: strategy list is empty")
    base = load_config(config_path)
    configs = []
    for i, kind in enumerate(strategies):
        if kind in strategies[:i]:
            raise ConfigurationError(f"compare: strategy {kind!r} is listed twice")
        configs.append(_strategy_override(base, kind))
    started = time.perf_counter()
    results = run_experiments(configs)
    duration = time.perf_counter() - started

    out = Path(out_dir)
    manifests: dict[str, RunManifest] = {}
    rows: list[tuple[str, int, str, float]] = []
    for kind, config, result in zip(strategies, configs, results):
        manifests[kind] = _write_run(out / kind, config, result, duration)
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
            try:
                rounds = [int(r) for r in args.rounds.split(",") if r.strip()]
            except ValueError as exc:  # names the item: "... base 10: 'x'"
                raise ConfigurationError(f"prob: --rounds: {exc}") from None
            if not rounds:
                raise ConfigurationError("prob: --rounds list is empty")
            for r in rounds:
                if r < 0:
                    raise ConfigurationError(f"prob: --rounds: {str(r)!r} must be >= 0")
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
