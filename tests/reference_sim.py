"""A plain reference of the round loop, against which `run_experiments` is
checked bit for bit.

The reference takes from the library what has its own parity tests: the
set-up (data, holdouts, shards and malicious clients), the initial model,
the four baseline aggregators, fedval's weighted step and its candidate
exponents. It restates the round itself, client by client in selection
order: the selection, training and noise seeds; each benign client's local
training as `reference_sgd`'s loop of one `loss_and_grad` per mini-batch; a
PGA attacker as two such loops and `pga_combine`; the DP pre-transforms row
by row; the per-client validation loss that lfr ranks as
`reference_eval_losses` of `g + d`; and fedval as `loop_report`'s report,
one score loop per client and per dimension, and the s2 search that
evaluates each candidate model on its own.

It restates the loops and their order, not the math kernels: every
reduction and elementwise function is numpy's own, on the arrays the library
uses, since numpy adds eight or more terms pairwise and its SIMD loops can
differ from libm in the last bit.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np

from fedsim import adversary, aggregators, fedval, model, orchestrator
from fedsim.fedval import ScoreParams, ValidationReport
from fedsim.orchestrator import ExperimentConfig, Setup
from fedsim.privacy import DpState
from test_fedval import loop_report
from test_model import reference_eval_losses, reference_sgd


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


def pre_transform(config: ExperimentConfig, dp: DpState, deltas: np.ndarray,
                  selected: list[int], round_index: int) -> DpState:
    """The strategy's DP pre-transforms on the rows of `deltas`, in place and
    row by row, and the next dp state: "norm_bound" scales each row that
    sticks out onto the ball of the bound and then moves the bound
    geometrically toward the target unclipped fraction; "dp_noise" adds to
    each row Gaussian noise drawn on the client's noise seed."""
    for transform in config.strategy.pre_transforms:
        if transform == "norm_bound":
            clipped = 0
            for row in deltas:
                norm = float(np.linalg.norm(row))
                if norm > dp.clip_bound:
                    row[:] = row * (dp.clip_bound / norm)
                    clipped += 1
            unclipped = 1.0 - clipped / len(deltas)
            step = np.exp(-dp.adapt_rate * (unclipped - dp.target_quantile))
            dp = dc_replace(dp, clip_bound=dp.clip_bound * float(step))
        elif dp.noise_multiplier != 0.0:  # dp_noise
            std = dp.noise_multiplier * dp.clip_bound / len(deltas)
            for row, client in zip(deltas, selected):
                seed = orchestrator.derive_seed(config.train.seed, orchestrator._NOISE_STREAM,
                                                round_index, client)
                row += np.random.default_rng(seed).normal(0.0, std, size=row.shape)
    return dp


def bias_reducer(ratio: float, exponent: float) -> float:
    """max(1, ratio ** exponent), its exponent capped at exp(700)."""
    return 1.0 if ratio <= 1.0 else float(np.exp(min(exponent * np.log(ratio), 700.0)))


def score_weights(report: ValidationReport, params: ScoreParams) -> np.ndarray | None:
    """fedval's aggregation weights, or None when every clamped score is 0:
    each client's score summed dimension by dimension (each label, the
    overall loss, then each group's recall), clamped at the floor and
    divided by the clamped total."""
    raw = []
    for i in range(len(report.overall_loss)):
        # (slope scale, bias reducer, signed distance from the mean, MAD)
        dims = [(params.s1_label, bias_reducer(report.label_mean[k] / report.overall_mean,
                                               params.s2),
                 report.label_mean[k] - report.per_label_loss[i, k], report.label_mad[k])
                for k in range(len(report.label_mean))]
        dims.append((params.s1_avg, 1.0, report.overall_mean - report.overall_loss[i],
                     report.overall_mad))
        for j in range(0 if report.group_recall is None else len(report.group_mean)):
            ratio = report.overall_recall_mean / max(report.group_mean[j], fedval.RECALL_FLOOR)
            dims.append((params.s1_label, bias_reducer(ratio, params.s2_recall),
                         report.group_recall[i, j] - report.group_mean[j], report.group_mad[j]))
        score = 0.0
        for scale, reducer, div, mad in dims:
            score += params.baseline_c * scale
            if not mad < fedval.MAD_EPS:
                score += reducer * scale * div / mad
        raw.append(score)
    clamped = np.maximum(np.array(raw), params.clamp_floor)
    total = clamped.sum()
    return clamped / total if total > 0 else None


def fedval_step(setup: Setup, config: ExperimentConfig, g: np.ndarray, s2: float,
                deltas: np.ndarray) -> tuple[np.ndarray, float]:
    """fedval's next global model and exponent: of the models that each
    exponent of `s2_candidates(s2)` gives (the global model itself when its
    scores are all zero), the one with the lowest mean validation loss; a
    tie goes to the exponent closest to `s2`, then to the smaller one."""
    spec, val = config.model, setup.val
    report = loop_report([g + d for d in deltas], spec, val, config.recall_dim)
    best = None
    for c in fedval.s2_candidates(s2):
        weights = score_weights(report, dc_replace(config.score_params, s2=c))
        candidate = g.copy() if weights is None else fedval.aggregate(g, deltas, weights)
        key = (reference_eval_losses(candidate, spec, val.data)[0].mean(), abs(c - s2), c)
        if best is None or key < best[0]:
            best = key, candidate, c
    return best[1], best[2]


def aggregate(setup: Setup, config: ExperimentConfig, g: np.ndarray, selected: list[int],
              deltas: np.ndarray) -> np.ndarray:
    """The next global model of a baseline `config.strategy` from the round's
    deltas."""
    strategy = config.strategy
    counts = [len(setup.shards[c]) for c in selected]
    if strategy.kind == "fedavg":
        return aggregators.fedavg(g, deltas, counts)
    if strategy.kind == "multi_krum":
        chosen = aggregators.multi_krum(deltas, strategy.remove_fraction)
        return aggregators.fedavg(g, deltas[chosen], np.ones(len(chosen)))
    if strategy.kind == "lfr":
        losses = np.array([reference_eval_losses(g + d, config.model, setup.val.data)[0].mean()
                           for d in deltas])
        return aggregators.lfr(g, deltas, counts, losses, strategy.remove_fraction)
    return aggregators.trimmed_mean(g, deltas, strategy.trim_fraction)


def reference_run(config: ExperimentConfig) -> np.ndarray:
    """The final global model of `config`."""
    setup = orchestrator.setup_experiment(config)
    g, s2, dp = model.init_params(config.model), config.score_params.s2, config.dp
    for r in range(config.rounds):
        selected = orchestrator.select_clients(
            config.partition.client_count, config.clients_per_round, r, config.selection_seed)
        seeds = [orchestrator.derive_seed(config.train.seed, orchestrator._TRAIN_STREAM, r, c)
                 for c in selected]
        deltas = np.array([client_delta(setup, config, g, c, s)
                           for c, s in zip(selected, seeds)])
        dp = pre_transform(config, dp, deltas, selected, r)
        if config.strategy.kind == "fedval":
            g, s2 = fedval_step(setup, config, g, s2, deltas)
        else:
            g = aggregate(setup, config, g, selected, deltas)
    return g
