"""`run_experiments` equals the plain reference round of `reference_sim`
bit for bit, on fixed inputs: the four sample configs and the `server_wide`
benchmark workload at seed 1, each for 3 rounds with DP dropped, with
fedavg, multi_krum, lfr and trimmed_mean run in lockstep.

The inputs cover benign clients, PGA attackers, label-flip shards and the
wide model whose strategies train in turn. Unlike the golden digests, this
check needs no file per numpy build or OpenBLAS kernel: it holds on any
host, since the engine and the reference run there alike.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from fedsim import cli, model, orchestrator
from fedsim.aggregators import STRATEGY_KINDS, Strategy
from reference_sim import STRATEGIES, reference_run
from test_golden_outputs import load_output_digests

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ("quickstart", "pga_robustness", "backdoor_label_flip", "determinism", "server_wide-1")
ROUNDS = 3


def input_config(name: str, work: Path):
    """Input `name` for `ROUNDS` rounds without DP: a sample config, or
    `<workload>-<seed>` of the benchmark's workloads."""
    if name.startswith("server_wide"):
        workload, _, seed = name.rpartition("-")
        path = load_output_digests().workloads.write_workload(workload, int(seed), work)
    else:
        path = ROOT / "configs" / f"{name}.json"
    return dataclasses.replace(cli.load_config(path), rounds=ROUNDS, dp=None)


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    """engine(name): the configs of input `name` and the `run_experiments`
    results of all four strategies in lockstep, once per module."""
    runs = {}

    def run(name):
        if name not in runs:
            base = input_config(name, tmp_path_factory.mktemp(name))
            configs = [dataclasses.replace(base, strategy=Strategy(kind, **STRATEGY_KINDS[kind]))
                       for kind in STRATEGIES]
            runs[name] = configs, orchestrator.run_experiments(configs)
        return runs[name]

    return run


@pytest.mark.parametrize("kind", STRATEGIES)
@pytest.mark.parametrize("name", INPUTS)
def test_engine_equals_reference(engine, name, kind):
    configs, results = engine(name)
    i = STRATEGIES.index(kind)
    want = reference_run(configs[i])
    assert results[i].final_params.tobytes() == want.tobytes()
    assert not np.array_equal(want, model.init_params(configs[i].model))
