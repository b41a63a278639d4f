"""Seeded workload generator for the fedsim benchmark.

`write_workload(name, seed, work_dir)` writes the config (and, for
`server_wide`, the CSV) that one benchmark run feeds to `fedsim compare`.
Every seed in the config is derived from the workload seed, so the same
seed gives the same inputs and another seed gives other data, another
partition, other malicious clients and another selection order.

The generator uses only the standard library. `check_inputs` imports fedsim
to reject a degenerate seed before anything is timed; the benchmark runs it
in a child process, `python3 bench/workloads.py CONFIG` with PYTHONPATH=src,
so that the timing process never holds numpy or the data and a pass's peak
RSS (which counts the image it was forked from) is the pass's own.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

STRATEGIES = ("fedavg", "fedval", "multi_krum", "lfr", "trimmed_mean")

# Fields of a config that hold a seed; each is redrawn from the workload seed.
SEED_FIELDS = (
    ("task", "seed"),
    ("partition", "seed"),
    ("model", "seed"),
    ("train", "seed"),
    ("attack", "placement_seed"),
    ("validation", "seed"),
    ("test", "seed"),
)

# Mirrors configs/pga_robustness.json, kept here so that editing the sample
# config does not silently change the benchmark. Only `rounds` differs: it is
# cut so that one five-strategy pass fits several times into a run.
PGA_IID = {
    "task": {"type": "synthetic", "classes": 10, "features": 16, "samples": 4000,
             "separation": 5.0, "seed": 0},
    "partition": {"scheme": "iid", "client_count": 40, "seed": 0},
    "model": {"layer_sizes": [16, 32, 10], "seed": 0},
    "train": {"epochs": 10, "batch_size": 32, "learning_rate": 0.02, "seed": 0},
    "strategy": {"kind": "fedval"},
    "attack": {"kind": "pga", "scale_factor": 2.0, "ascent_epochs": 5,
               "malicious_fraction": 0.4, "placement_seed": 7},
    "rounds": 12,
    "clients_per_round": 10,
    "selection_seed": 0,
    "validation": {"per_label": 10, "seed": 2},
    "test": {"per_label": 50, "seed": 1},
}

# Mirrors configs/backdoor_label_flip.json; only `rounds` differs.
BACKDOOR_LDA = {
    "task": {"type": "synthetic", "classes": 10, "features": 16, "samples": 2000,
             "separation": 5.0, "seed": 0},
    "partition": {"scheme": "lda", "client_count": 40, "seed": 0, "alpha": 0.2},
    "model": {"layer_sizes": [16, 32, 10], "seed": 0},
    "train": {"epochs": 10, "batch_size": 32, "learning_rate": 0.05, "seed": 0},
    "strategy": {"kind": "fedval"},
    "attack": {"kind": "label_flip", "source_label": 4, "target_label": 5,
               "malicious_fraction": 0.2, "placement_seed": 5},
    "backdoor_eval": [4, 5],
    "rounds": 20,
    "clients_per_round": 10,
    "selection_seed": 0,
    "validation": {"per_label": 10, "seed": 2},
    "test": {"per_label": 50, "seed": 1},
}

CSV_ROWS = 9000
CSV_FEATURES = 16
CSV_LABELS = 10
CSV_GROUPS = ("north", "south", "east", "west")

SERVER_WIDE = {
    "task": {"type": "csv", "path": "",
             "feature_columns": [f"f{i}" for i in range(CSV_FEATURES)],
             "label_column": "label", "group_column": "region"},
    "partition": {"scheme": "iid", "client_count": 60, "seed": 0},
    "model": {"layer_sizes": [CSV_FEATURES, 128, CSV_LABELS], "seed": 0},
    "train": {"epochs": 1, "batch_size": 64, "learning_rate": 0.3, "seed": 0},
    "strategy": {"kind": "fedval", "pre_transforms": ["norm_bound", "dp_noise"]},
    "dp": {"clip_bound": 0.2, "target_quantile": 0.5, "adapt_rate": 0.2,
           "noise_multiplier": 0.1},
    "rounds": 12,
    "clients_per_round": 30,
    "selection_seed": 0,
    "validation": {"per_label": 200, "seed": 2},
    "test": {"per_label": 50, "seed": 1},
    "recall_dim": True,
}

BASES = {"pga_iid": PGA_IID, "backdoor_lda": BACKDOOR_LDA, "server_wide": SERVER_WIDE}
WORKLOADS = tuple(BASES)


def _seed_stream(name: str, seed: int) -> random.Random:
    return random.Random(f"fedsim-bench:{name}:{seed}")


def make_config(name: str, seed: int) -> dict:
    """The workload's config with every seed field drawn from `seed`."""
    config = copy.deepcopy(BASES[name])
    rng = _seed_stream(name, seed)
    for section, key in SEED_FIELDS:
        value = rng.getrandbits(31)
        if key in config.get(section, {}):
            config[section][key] = value
    config["selection_seed"] = rng.getrandbits(31)
    return config


def write_csv(path: Path, seed: int) -> None:
    """Gaussian class blobs with a categorical region column.

    Each region shifts the features by its own offset and has its own label
    mix, so per-region recall differs and fedval's recall dimension has
    something to weigh. Every label and region appears many times over, so
    the holdouts can always be drawn.
    """
    rng = _seed_stream("server_wide.csv", seed)
    means = [[rng.gauss(0.0, 1.2) for _ in range(CSV_FEATURES)] for _ in range(CSV_LABELS)]
    shifts = [[rng.gauss(0.0, 0.5) for _ in range(CSV_FEATURES)] for _ in CSV_GROUPS]
    label_mix = [[0.5 + rng.random() for _ in range(CSV_LABELS)] for _ in CSV_GROUPS]
    header = [f"f{i}" for i in range(CSV_FEATURES)] + ["label", "region"]
    lines = [",".join(header)]
    for row in range(CSV_ROWS):
        g = row % len(CSV_GROUPS)
        # Labels cycle so that every one is common; 30% of rows are relabelled
        # from the region's own label mix.
        label = row % CSV_LABELS
        if rng.random() < 0.3:
            label = rng.choices(range(CSV_LABELS), weights=label_mix[g])[0]
        x = [means[label][j] + shifts[g][j] + rng.gauss(0.0, 1.0) for j in range(CSV_FEATURES)]
        lines.append(",".join(f"{v:.6f}" for v in x) + f",{label},{CSV_GROUPS[g]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_workload(name: str, seed: int, work_dir: Path, rounds: int | None = None) -> Path:
    """Write the workload's inputs under work_dir and return the config path.

    `rounds` overrides the workload's round count (0 gives the set-up-only
    invocation that `setup_s` times).
    """
    config = make_config(name, seed)
    if name == "server_wide":
        csv_path = work_dir / "server_wide.csv"
        if not csv_path.exists():
            write_csv(csv_path, seed)
        config["task"]["path"] = str(csv_path.resolve())
    if rounds is not None:
        config["rounds"] = rounds
    suffix = "" if rounds is None else f".r{rounds}"
    path = work_dir / f"{name}{suffix}.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def check_inputs(config_path: Path) -> list[str]:
    """Reasons why the inputs are degenerate; empty when they are usable.

    Builds the experiment state the way `fedsim compare` does and checks that
    no client shard is empty, every label is in the validation and test
    holdouts, and (with recall_dim) every region is in the validation set,
    so each recall dimension is defined.
    """
    from fedsim.cli import load_config
    from fedsim.orchestrator import setup_experiment

    config = load_config(config_path)
    state = setup_experiment(config)
    problems = []
    empty = [c for c, shard in enumerate(state.shards) if len(shard) == 0]
    if empty:
        problems.append(f"empty client shards {empty}")
    k = config.model.num_classes
    missing = [c for c in range(k) if len(state.val.label_indices.get(c, ())) == 0]
    if missing:
        problems.append(f"validation set lacks labels {missing}")
    test_labels = set(int(v) for v in state.test.labels)
    if test_labels != set(range(k)):
        problems.append(f"test set lacks labels {sorted(set(range(k)) - test_labels)}")
    if config.recall_dim:
        groups = state.val.group_indices
        if len(groups) != len(CSV_GROUPS) or any(len(ix) == 0 for ix in groups.values()):
            problems.append(f"validation set covers regions {sorted(groups)}")
    return problems


if __name__ == "__main__":
    from fedsim.errors import ConfigurationError

    try:
        found = check_inputs(Path(sys.argv[1]))
    except ConfigurationError as exc:
        found = [str(exc)]
    print("; ".join(found))
    sys.exit(1 if found else 0)
