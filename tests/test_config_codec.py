"""Golden and property tests for the config codec (`cli.config_from_dict`,
`cli.canonical_dict`, `cli.canonical_json`, `cli.config_hash`).

The digests below pin the canonical bytes and hashes that every run writes
into `config.canonical.json` and `manifest.json`; a change to any of them
changes the identity of existing runs.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedsim import cli, fedval
from fedsim.errors import ConfigurationError
from test_golden_outputs import load_output_digests

ROOT = Path(__file__).resolve().parent.parent
workloads = load_output_digests().workloads


def digests(config) -> tuple[str, str]:
    text = cli.canonical_json(config)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), cli.config_hash(config)


def only_required() -> dict:
    return {
        "task": {"type": "synthetic"},
        "partition": {"scheme": "iid", "client_count": 4},
        "model": {"layer_sizes": [16, 10]},
        "train": {},
        "strategy": {"kind": "fedval"},
        "rounds": 2,
        "clients_per_round": 2,
    }


def partial_sections() -> dict:
    # Sections present with keys left out: each missing key takes the
    # section's own default (test seed 1 and validation seed 2, not 0).
    return {
        **only_required(),
        "task": {"type": "csv", "path": "data.csv", "feature_columns": ["a", "b"],
                 "label_column": "y"},
        "model": {"layer_sizes": [2, 3]},
        "validation": {"per_label": 1},
        "test": {"per_label": 20},
        "dp": {},
        "score_params": {"s2": 4},
        "attack": {"kind": "pga", "malicious_fraction": 0.25},
        "train": {"epochs": 3, "learning_rate": 1},
    }


GOLDEN_FILES = {
    "backdoor_label_flip.json": (
        "a6c9d89842670105f193f0e196b9a872f27cf812d71dd714884ba724180543d2",
        "413e0c330322e2a0ee1e25803a1f26f6a286f1cb45996ee76914e5391cf1ffbd",
    ),
    "determinism.json": (
        "4d7f2e43c885fe43d18e1abac799d0a6b10a1032a7362c59bfa1c669bcf9b697",
        "fe81f9803df9cc7ff5c872420a8aefda986de14e1c5d47d10c95eb85bf37b5e9",
    ),
    "pga_robustness.json": (
        "0cf3ad051b865a5b6a279e65c73fbeb5a3a0f90815848103bab50d45f869f47c",
        "e14771d10a0f65b966c34311d0a2f0cd7e4cbe7aabe7f8c9d13c9f0eb9a4aa6c",
    ),
    "quickstart.json": (
        "ee308b156f588089e2e3ce54b70f0b9d3a5870eddd7c4623fb56f7d0ed57a226",
        "cf2224abaf83300573457473364a406727de0b6dbb0a492348cfb4df7b0f70c7",
    ),
}

GOLDEN_WORKLOADS = {
    ("pga_iid", 1): (
        "e25f53118e5ce65eb81fde06c85c51a9b116270ac28156526efc5a89f8fb71df",
        "e77696581c423ef8caccf24952ddae96a7dfca6b3bfc0bced687f8e2f0e4e5b0",
    ),
    ("pga_iid", 7): (
        "8d0d2d775e9e4ca83965b6576c6a411ec79e75437488dd038340fc3589ca7372",
        "f74fb6a3805105864533a7c887289d846a43137f096194dd72f77ed220a60989",
    ),
    ("backdoor_lda", 1): (
        "be00fc0b9b1e2e17c338a6bb7a59e14c5a5fa788fead136d67405bccbe5d9dec",
        "0d4a9a457bbdaad300bfffdab3d4aeb402e23bcdb47a6cfa1cc9f7e0930a9dc4",
    ),
    ("backdoor_lda", 7): (
        "39249e57edfb8d4e064d921e67d971d0c95e2c527830007598448f07a1b149e2",
        "862456f28806317f484c7c48c29144897a80f7ae81a571fc0f13c53e8dba2f7e",
    ),
    ("server_wide", 1): (
        "8564a93e8b11896dc885100151c849ed2cf19cd31ba7c65de17fdfd9c668783e",
        "c7915d0caea57655cca32058266c917d8cfe789174a027aa274336957a4a72a0",
    ),
    ("server_wide", 7): (
        "6fe3228690104b62ed3134359dd1180d023443d3532765b9841f491fa5e54da7",
        "e67b86bf086789996eab0baf25fecdbdd5c8e6a15918b1936f0744c27dfce667",
    ),
}

GOLDEN_BUILT = {
    "only_required": (
        only_required,
        "ccf19b4d1abc8b41aec6a9ec771a359190134e360cdf9e77a2b0fdbf32bda968",
        "2c6c582d48689c773b9aea67db7897d124bd9b2721e84a3d4a2d2f188b24c76d",
    ),
    "partial_sections": (
        partial_sections,
        "7844dabb32862f4854fb980fc1ac58c893f8b63b893f54d7d2144aecb26061dd",
        "2928b92425a08797692b77fa730c0c75990b6db2142d2badf090d5cecb851a54",
    ),
}


class TestGolden:
    def test_every_sample_config_is_covered(self):
        assert sorted(p.name for p in (ROOT / "configs").glob("*.json")) == sorted(GOLDEN_FILES)

    @pytest.mark.parametrize("name", sorted(GOLDEN_FILES))
    def test_sample_config(self, name):
        assert digests(cli.load_config(ROOT / "configs" / name)) == GOLDEN_FILES[name]

    @pytest.mark.parametrize("name, seed", sorted(GOLDEN_WORKLOADS))
    def test_workload_config(self, name, seed):
        config = cli.config_from_dict(workloads.make_config(name, seed))
        assert digests(config) == GOLDEN_WORKLOADS[name, seed]

    @pytest.mark.parametrize("name", sorted(GOLDEN_BUILT))
    def test_defaults_filled_in(self, name):
        build, text_digest, hash_digest = GOLDEN_BUILT[name]
        assert digests(cli.config_from_dict(build())) == (text_digest, hash_digest)


# -- round trip ---------------------------------------------------------------

seeds = st.integers(0, 2**40)
names = st.text(min_size=1, max_size=6)


def number(lo=-1e6, hi=1e6, exclude_min=False, exclude_max=False):
    """A float field's value, sometimes written as a JSON integer."""
    floats = st.floats(lo, hi, allow_nan=False, allow_infinity=False,
                       exclude_min=exclude_min, exclude_max=exclude_max)
    lo_int, hi_int = math.ceil(lo) + exclude_min, math.floor(hi) - exclude_max
    return st.one_of(floats, st.integers(lo_int, hi_int)) if lo_int <= hi_int else floats


def section(required: dict, optional: dict):
    return st.fixed_dictionaries(required, optional=optional)


synthetic_task = section(
    {"type": st.just("synthetic")},
    {"classes": st.integers(1, 50), "features": st.integers(1, 50),
     "samples": st.integers(1, 10**6), "separation": number(), "seed": seeds},
)
csv_task = section(
    {"type": st.just("csv"), "path": names, "feature_columns": st.lists(names, max_size=4),
     "label_column": names},
    {"group_column": st.one_of(st.none(), names)},
)


@st.composite
def partitions(draw):
    scheme = draw(st.sampled_from(["iid", "lda", "missing_labels", "quantity_skew"]))
    optional = {"seed": seeds, "alpha": number(0.001, 100.0)}
    required = {"scheme": st.just(scheme), "client_count": st.integers(1, 1000)}
    if scheme == "missing_labels":
        required.update(missing=st.lists(st.integers(0, 20), min_size=1, max_size=3),
                        affected_fraction=number(0.0, 1.0))
    else:
        optional.update(missing=st.lists(st.integers(0, 20), max_size=3),
                        affected_fraction=number(0.0, 1.0))
    return draw(section(required, optional))


@st.composite
def attacks(draw):
    kind = draw(st.sampled_from(["none", "label_flip", "pga"]))
    source = draw(st.integers(0, 9))
    target = draw(st.integers(0, 9).filter(lambda t: kind != "label_flip" or t != source))
    optional = {"source_label": st.just(source), "target_label": st.just(target),
                "scale_factor": number(0.0, 10.0), "ascent_epochs": st.integers(1, 5),
                "malicious_fraction": number(0.0, 1.0), "placement_seed": seeds}
    if kind == "label_flip":
        # Both labels default to 0, so a label-flip attack names them both.
        required = {"kind": st.just(kind), "source_label": st.just(source),
                    "target_label": st.just(target)}
        del optional["source_label"], optional["target_label"]
    else:
        required = {"kind": st.just(kind)}
    return draw(section(required, optional))


holdout = section({}, {"per_label": st.integers(1, 100), "balanced": st.booleans(),
                       "seed": seeds})

raw_configs = section(
    {
        "task": st.one_of(synthetic_task, csv_task),
        "partition": partitions(),
        "model": section({"layer_sizes": st.lists(st.integers(1, 64), min_size=2, max_size=4)},
                         {"activation": st.sampled_from(["relu", "tanh"]), "seed": seeds}),
        "train": section({}, {"epochs": st.integers(0, 20), "batch_size": st.integers(1, 256),
                              "learning_rate": number(0.0, 10.0), "prox_mu": number(0.0, 10.0),
                              "seed": seeds}),
        "strategy": section(
            {"kind": st.sampled_from(["fedavg", "fedval", "multi_krum", "lfr", "trimmed_mean"])},
            {"remove_fraction": number(0.0, 1.0, exclude_max=True),
             "trim_fraction": number(0.0, 1.0, exclude_max=True),
             "pre_transforms": st.lists(st.sampled_from(["norm_bound", "dp_noise"]), max_size=3)},
        ),
        "rounds": st.integers(0, 100),
        "clients_per_round": st.integers(1, 100),
    },
    {
        "selection_seed": seeds,
        "score_params": section({}, {"s1_label": number(0.001, 100.0), "s1_avg": number(0.0),
                                     "s2": number(fedval.S2_MIN), "s2_recall": number(0.0),
                                     "baseline_c": number(0.0, 100.0),
                                     "clamp_floor": number(0.0)}),
        "attack": attacks(),
        "dp": st.one_of(st.none(), section({}, {
            "clip_bound": number(0.001, 100.0),
            "target_quantile": number(0.0, 1.0, exclude_min=True, exclude_max=True),
            "adapt_rate": number(0.001, 1.0), "noise_multiplier": number(0.0, 10.0)})),
        "validation": holdout,
        "test": holdout,
        "metrics_every": st.integers(1, 10),
        "recall_dim": st.booleans(),
        "backdoor_eval": st.one_of(st.none(), st.lists(st.integers(0, 9), min_size=2,
                                                       max_size=2)),
    },
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(raw=raw_configs)
    def test_decode_encode_is_a_fixed_point(self, raw):
        config = cli.config_from_dict(raw)
        canonical = cli.canonical_dict(config)
        text = cli.canonical_json(config)
        again = cli.config_from_dict(json.loads(text))
        assert again == config
        assert cli.canonical_dict(again) == canonical
        assert cli.canonical_json(again) == text
        assert cli.config_hash(again) == cli.config_hash(config)
        assert hash(again) == hash(config)

    def test_config_with_a_dp_section_hashes(self):
        raw = {**only_required(), "dp": {"clip_bound": 0.5, "noise_multiplier": 0.1},
               "strategy": {"kind": "fedval", "pre_transforms": ["norm_bound", "dp_noise"]}}
        a, b = cli.config_from_dict(raw), cli.config_from_dict(json.loads(json.dumps(raw)))
        assert a is not b and a.dp is not b.dp and a == b
        assert hash(a) == hash(b)


# -- refusals ------------------------------------------------------------------

SECTIONS = {
    "config": lambda raw: raw,
    "task": lambda raw: raw["task"],
    "partition": lambda raw: raw["partition"],
    "model": lambda raw: raw["model"],
    "train": lambda raw: raw["train"],
    "strategy": lambda raw: raw["strategy"],
    "score_params": lambda raw: raw.setdefault("score_params", {}),
    "attack": lambda raw: raw.setdefault("attack", {}),
    "dp": lambda raw: raw.setdefault("dp", {}),
    "validation": lambda raw: raw.setdefault("validation", {}),
    "test": lambda raw: raw.setdefault("test", {}),
}


def csv_config() -> dict:
    return {**only_required(), "task": {"type": "csv", "path": "data.csv",
                                        "feature_columns": ["a"], "label_column": "y"}}


def refusal(raw) -> str:
    with pytest.raises(ConfigurationError) as info:
        cli.config_from_dict(raw)
    return str(info.value)


class TestRefusals:
    @pytest.mark.parametrize("name", sorted(SECTIONS))
    def test_unknown_key(self, name):
        raw = only_required()
        SECTIONS[name](raw)["bogus"] = 1
        assert refusal(raw) == f"{name}: unknown keys ['bogus']"

    def test_unknown_key_in_csv_task(self):
        raw = csv_config()
        raw["task"]["classes"] = 3
        assert refusal(raw) == "task: unknown keys ['classes']"

    @pytest.mark.parametrize("name", ["task", "partition", "model", "train", "strategy"])
    def test_missing_section(self, name):
        raw = only_required()
        del raw[name]
        assert refusal(raw) == f"{name}: missing required section"

    @pytest.mark.parametrize(
        "path",
        ["config.rounds", "config.clients_per_round", "task.type", "partition.scheme",
         "partition.client_count", "model.layer_sizes", "strategy.kind"],
    )
    def test_missing_required_key(self, path):
        raw = only_required()
        section, key = path.split(".")
        del SECTIONS[section](raw)[key]
        assert refusal(raw) == f"{path}: missing required key"

    @pytest.mark.parametrize("key", ["path", "feature_columns", "label_column"])
    def test_missing_required_csv_key(self, key):
        raw = csv_config()
        del raw["task"][key]
        assert refusal(raw) == f"task.{key}: missing required key"
