"""A plain reference of the round loop, against which `run_experiments` is
checked bit for bit.

The reference takes from the library what has its own parity tests: the
set-up (data, holdouts, shards and malicious clients), the initial model
and the four aggregators. It restates the round itself, client by client
in selection order: the selection and training seeds, each benign
client's local training as `reference_sgd`'s loop of one `loss_and_grad`
per mini-batch, a PGA attacker as two such loops and `pga_combine`, and
the per-client validation loss that lfr ranks as `reference_eval_losses`
of `g + d`. It covers fedavg, multi_krum, lfr and trimmed_mean without DP;
fedval and the DP pre-transforms are not restated.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np

from fedsim import adversary, aggregators, fedval, model, orchestrator
from fedsim.orchestrator import ExperimentConfig, Setup
from test_model import reference_eval_losses, reference_sgd

STRATEGIES = ("fedavg", "multi_krum", "lfr", "trimmed_mean")


def client_delta(setup: Setup, config: ExperimentConfig, g: np.ndarray, client: int,
                 seed: int) -> np.ndarray:
    """One selected client's model minus `g`, trained on `seed`."""
    shard, attack = setup.shards[client], config.attack
    train = dc_replace(config.train, seed=seed)
    if attack.kind == "pga" and client in setup.malicious:
        if attack.scale_factor == 0.0:
            return np.zeros_like(g)
        ascended = reference_sgd(g, config.model, shard, train, attack.ascent_epochs, ascent=True)
        benign = reference_sgd(g, config.model, shard, dc_replace(train, prox_mu=0.0),
                               train.epochs)
        return adversary.pga_combine(g, ascended, benign, attack.scale_factor) - g
    return reference_sgd(g, config.model, shard, train, train.epochs) - g


def aggregate(setup: Setup, config: ExperimentConfig, g: np.ndarray, selected: list[int],
              deltas: np.ndarray) -> np.ndarray:
    """The next global model of `config.strategy` from the round's deltas."""
    strategy = config.strategy
    counts = [len(setup.shards[c]) for c in selected]
    if strategy.kind == "fedavg":
        return aggregators.fedavg(g, deltas, counts)
    if strategy.kind == "multi_krum":
        chosen = aggregators.multi_krum(deltas, strategy.remove_fraction)
        return fedval.aggregate(g, deltas[chosen], np.full(len(chosen), 1.0 / len(chosen)))
    if strategy.kind == "lfr":
        losses = np.array([reference_eval_losses(g + d, config.model, setup.val.data)[0].mean()
                           for d in deltas])
        return aggregators.lfr(g, deltas, counts, losses, strategy.remove_fraction)
    if strategy.kind == "trimmed_mean":
        return aggregators.trimmed_mean(g, deltas, strategy.trim_fraction)
    raise ValueError(f"the reference does not restate {strategy.kind}")


def reference_run(config: ExperimentConfig) -> np.ndarray:
    """The final global model of `config`, which must have no DP."""
    if config.dp is not None or config.strategy.pre_transforms:
        raise ValueError("the reference does not restate DP")
    setup = orchestrator.setup_experiment(config)
    g = model.init_params(config.model)
    for r in range(config.rounds):
        selected = orchestrator.select_clients(
            config.partition.client_count, config.clients_per_round, r, config.selection_seed)
        seeds = [orchestrator.derive_seed(config.train.seed, orchestrator._TRAIN_STREAM, r, c)
                 for c in selected]
        deltas = np.array([client_delta(setup, config, g, c, s)
                           for c, s in zip(selected, seeds)])
        g = aggregate(setup, config, g, selected, deltas)
    return g
