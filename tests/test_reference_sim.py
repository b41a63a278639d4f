"""`run_experiments` equals the plain reference round of `reference_sim`
bit for bit, on fixed inputs: the four sample configs and the three
benchmark workloads at seed 1, each for 3 rounds, with all five strategies
run in lockstep. Each input keeps its dp section, and every strategy runs
the base config's DP pre-transforms.

The inputs cover benign clients, PGA attackers, label-flip shards, uneven
Dirichlet shards, fedval's recall dimension, the DP pipeline and the wide
model whose strategies train in turn. Unlike the golden digests, this check
needs no file per numpy build or OpenBLAS kernel: it holds on any host,
since the engine and the reference run there alike.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from fedsim import cli, model, orchestrator
from fedsim.aggregators import STRATEGY_KINDS, Strategy
from reference_sim import reference_run
from test_golden_outputs import load_output_digests

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ("quickstart", "pga_robustness", "backdoor_label_flip", "determinism",
          "pga_iid-1", "backdoor_lda-1", "server_wide-1")
ROUNDS = 3


def input_config(name: str, work: Path):
    """Input `name` for `ROUNDS` rounds: a sample config, or
    `<workload>-<seed>` of the benchmark's workloads."""
    if "-" in name:
        workload, _, seed = name.rpartition("-")
        path = load_output_digests().workloads.write_workload(workload, int(seed), work)
    else:
        path = ROOT / "configs" / f"{name}.json"
    return dataclasses.replace(cli.load_config(path), rounds=ROUNDS)


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    """engine(name): the configs of input `name` and the `run_experiments`
    results of all five strategies in lockstep, once per module."""
    runs = {}

    def run(name):
        if name not in runs:
            base = input_config(name, tmp_path_factory.mktemp(name))
            transforms = base.strategy.pre_transforms
            configs = [dataclasses.replace(base, strategy=Strategy(
                kind, **STRATEGY_KINDS[kind], pre_transforms=transforms))
                for kind in STRATEGY_KINDS]
            runs[name] = configs, orchestrator.run_experiments(configs)
        return runs[name]

    return run


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
@pytest.mark.parametrize("name", INPUTS)
def test_engine_equals_reference(engine, name, kind):
    configs, results = engine(name)
    i = list(STRATEGY_KINDS).index(kind)
    want = reference_run(configs[i])
    assert results[i].final_params.tobytes() == want.tobytes()
    assert not np.array_equal(want, model.init_params(configs[i].model))
