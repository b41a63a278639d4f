"""Run the tier-1 suite against small source mutants and print which it kills.

    python3 scripts/mutants.py

Each mutant is an exact `(file, old, new)` edit whose `old` occurs exactly
once in its file. The checkout is copied once to a temporary directory; for
each mutant the edit is applied to the copy, tier-1 runs there with `-x`, and
the file is restored. A failing suite kills the mutant, and the first failing
test is printed; a passing suite lets it survive. A survivor is either a
missing test or an equivalent mutant, which carries its reason in
`equivalent`; the exit status is 1 when a mutant without one survives.

Uses only the standard library. A survivor costs one full tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# tests/test_mutants.py checks that every mutant's `old` text is in the
# source, which an applied mutant removes, so it would kill every mutant.
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--ignore=tests/test_mutants.py"]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    equivalent: str | None = None


# The lines of `_lockstep_round` that key each strategy's trained rows by its state.
_ROUND_ROWS = (
    "        rows = {s: _client_rows(setup, s, c, selected, seeds)"
    " for s, c in dict(group).items()}\n"
    "        flat = [row for ts in rows.values() for t in ts for row in t]\n"
    "        trained = iter(model.train_rows(spec, flat, batch_size))\n"
    "        own = {s: [tuple(next(trained) for _ in t) for t in ts] for s, ts in rows.items()}\n"
    "        matrices = [_client_deltas(s, c, own[s]) for s, c in group]\n"
)

MUTANTS = [
    Mutant("krum_neighbors", "src/fedsim/aggregators.py",
           "neighbors = n - f - 2", "neighbors = n - f - 1"),
    Mutant("lfr_ceil", "src/fedsim/aggregators.py",
           "drop = math.ceil(remove_fraction * n)", "drop = math.floor(remove_fraction * n)"),
    Mutant("score_overall_term", "src/fedsim/fedval.py",
           "_add_dimension(raw, params, params.s1_avg, 1.0,",
           "_add_dimension(raw, params, 0.0, 1.0,"),
    Mutant("s2_tie_break", "src/fedsim/fedval.py",
           "key=lambda i: (losses[i], abs(candidates[i] - current), candidates[i])",
           "key=lambda i: (losses[i], candidates[i])"),
    Mutant("prob_floor", "src/fedsim/model.py",
           "PROB_FLOOR = 1e-12", "PROB_FLOOR = 1e-6"),
    Mutant("clip_step_sign", "src/fedsim/privacy.py",
           "np.exp(-state.adapt_rate *", "np.exp(state.adapt_rate *"),
    Mutant("noise_divisor", "src/fedsim/privacy.py",
           "std = z * bound / participants", "std = z * bound"),
    Mutant("pga_zero_ascent", "src/fedsim/adversary.py",
           "if mal_norm == 0.0:", "if mal_norm < 1e-300:",
           "np.linalg.norm is sqrt(x @ x), so a nonzero norm is at least "
           "sqrt(5e-324) = 2.2e-162 and never lies in (0, 1e-300)"),
    Mutant("check_trained_inf", "src/fedsim/model.py",
           "if not np.all(np.isfinite(params)):", "if np.isnan(params).any():"),
    Mutant("place_malicious_floor", "src/fedsim/adversary.py",
           "count = int(fraction * client_count)", "count = int(fraction * client_count + 0.5)"),
    Mutant("csv_input_width", "src/fedsim/orchestrator.py",
           "    if config.model.input_dim != config.task.features:",
           "    if isinstance(config.task, SyntheticTask) and "
           "config.model.input_dim != config.task.features:"),
    Mutant("csv_column_overflow", "src/fedsim/data.py",
           "np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))",
           "np.flatnonzero(~np.isfinite(mean))"),
    # Aggregation rules.
    Mutant("fedavg_weights", "src/fedsim/aggregators.py",
           "global_params + (counts / total) @ deltas", "global_params + deltas.mean(axis=0)"),
    Mutant("trimmed_mean_slice", "src/fedsim/aggregators.py",
           "ordered[t : n - t].mean(axis=0)", "ordered[t : n - t + 1].mean(axis=0)"),
    Mutant("lfr_drop", "src/fedsim/aggregators.py",
           "~np.isfinite(deltas).all(axis=1)))[: n - drop])",
           "~np.isfinite(deltas).all(axis=1)))[: n - drop + 1])"),
    Mutant("lfr_survivor_order", "src/fedsim/aggregators.py",
           "keep = np.sort(np.lexsort(", "keep = (np.lexsort("),
    Mutant("krum_keep", "src/fedsim/aggregators.py",
           "~np.isfinite(deltas).all(axis=1)))[:keep]",
           "~np.isfinite(deltas).all(axis=1)))[: keep + 1]"),
    Mutant("krum_errstate", "src/fedsim/aggregators.py",
           'with np.errstate(over="ignore", invalid="ignore"):', "with np.errstate():"),
    # The round's delta matrix: its zero rows and the DP write-backs.
    Mutant("zero_scale_row", "src/fedsim/orchestrator.py",
           "deltas = np.zeros((len(trained), len(g)))",
           "deltas = np.ones((len(trained), len(g)))"),
    Mutant("dp_clip_write_back", "src/fedsim/privacy.py",
           "row[:], clipped = clip(row, dp.clip_bound)",
           "_, clipped = clip(row, dp.clip_bound)"),
    Mutant("dp_noise_write_back", "src/fedsim/privacy.py",
           "row[:] = add_noise(row, z, bound, seed, n)", "add_noise(row, z, bound, seed, n)"),
    Mutant("clip_bound_reached_zero", "src/fedsim/privacy.py",
           "if not 0.0 < bound < math.inf:", "if not 0.0 <= bound < math.inf:"),
    # The round state: its read-only model and the bound carried to the next round.
    Mutant("read_only_global", "src/fedsim/orchestrator.py",
           "self.global_params.flags.writeable = False", "self.global_params.flags.writeable = True"),
    Mutant("dp_bound_carried", "src/fedsim/orchestrator.py",
           "return RoundState(new_global, s2, dp, state.round_index + 1), log",
           "return RoundState(new_global, s2, state.dp, state.round_index + 1), log"),
    # fedval.score's dimensions.
    Mutant("score_label_slope", "src/fedsim/fedval.py",
           "div = report.label_mean[k] - report.per_label_loss[:, k]",
           "div = report.per_label_loss[:, k] - report.label_mean[k]"),
    Mutant("score_avg_slope", "src/fedsim/fedval.py",
           "div = report.overall_mean - report.overall_loss",
           "div = report.overall_loss - report.overall_mean"),
    Mutant("score_recall_slope", "src/fedsim/fedval.py",
           "div = report.group_recall[:, j] - report.group_mean[j]",
           "div = report.group_mean[j] - report.group_recall[:, j]"),
    Mutant("bias_reducer_exponent", "src/fedsim/fedval.py",
           "min(exponent * np.log(ratio), 700.0)", "min(np.log(ratio), 700.0)"),
    Mutant("score_clamp_floor", "src/fedsim/fedval.py",
           "np.maximum(raw, params.clamp_floor)", "np.maximum(raw, 0.0)"),
    # validate_config's refusals, each moved past its boundary.
    Mutant("refuse_rounds", "src/fedsim/orchestrator.py",
           "if config.rounds < 0:", "if config.rounds < -1:"),
    Mutant("refuse_metrics_every", "src/fedsim/orchestrator.py",
           "if config.metrics_every < 1:", "if config.metrics_every < 0:"),
    Mutant("refuse_clients_per_round", "src/fedsim/orchestrator.py",
           "if config.clients_per_round < 1:", "if config.clients_per_round < 0:"),
    Mutant("refuse_cohort_size", "src/fedsim/orchestrator.py",
           "if config.clients_per_round > config.partition.client_count:",
           "if config.clients_per_round > config.partition.client_count + 1:"),
    Mutant("refuse_seed", "src/fedsim/orchestrator.py",
           "if section else config, name, 0) < 0:", "if section else config, name, 0) < -1:"),
    Mutant("refuse_lfr_fraction", "src/fedsim/orchestrator.py",
           "math.ceil(strategy.remove_fraction * cpr) >= cpr:",
           "math.ceil(strategy.remove_fraction * cpr) > cpr:"),
    Mutant("refuse_trim_fraction", "src/fedsim/orchestrator.py",
           "2 * math.floor(strategy.trim_fraction * cpr) >= cpr:",
           "2 * math.floor(strategy.trim_fraction * cpr) > cpr:"),
    Mutant("refuse_transforms_without_dp", "src/fedsim/orchestrator.py",
           "if config.strategy.pre_transforms and config.dp is None:",
           "if config.strategy.pre_transforms and config.dp is None and False:"),
    Mutant("refuse_output_dim", "src/fedsim/orchestrator.py",
           "isinstance(config.task, SyntheticTask) and k != config.task.classes:",
           "isinstance(config.task, SyntheticTask) and k > config.task.classes:"),
    Mutant("refuse_input_dim", "src/fedsim/orchestrator.py",
           "    if config.model.input_dim != config.task.features:",
           "    if config.model.input_dim > config.task.features:"),
    Mutant("refuse_backdoor_length", "src/fedsim/orchestrator.py",
           "if len(config.backdoor_eval) != 2 or len(set(config.backdoor_eval)) != 2:",
           "if len(set(config.backdoor_eval)) != 2:"),
    Mutant("refuse_backdoor_distinct", "src/fedsim/orchestrator.py",
           "if len(config.backdoor_eval) != 2 or len(set(config.backdoor_eval)) != 2:",
           "if len(config.backdoor_eval) != 2:"),
    Mutant("refuse_negative_label", "src/fedsim/orchestrator.py",
           "if not 0 <= label < k:", "if not label < k:"),
    Mutant("refuse_label_past_classes", "src/fedsim/orchestrator.py",
           "if not 0 <= label < k:", "if not 0 <= label <= k:"),
    # The one refusal site of a diverged local update, and the engine's
    # proximal term.
    Mutant("pga_benign_refusal", "src/fedsim/orchestrator.py",
           "model.check_trained(benign),", "benign,"),
    Mutant("prox_sign", "src/fedsim/model.py",
           "g += mu * (p - anchor)", "g -= mu * (p - anchor)"),
    # The stacked SGD step: the ReLU mask read from the activation, the
    # softmax max chain, the flat one-hot index and the in-place update.
    Mutant("relu_mask", "src/fedsim/model.py", "return a > 0.0", "return a >= 0.0"),
    Mutant("softmax_max_chain", "src/fedsim/model.py",
           "for k in range(1, logits.shape[-1] - 1):", "for k in range(2, logits.shape[-1] - 1):"),
    Mutant("onehot_flat_offset", "src/fedsim/model.py",
           "[np.arange(0, g * n * k, k) + y.reshape(-1)]", "[np.arange(g * n) + y.reshape(-1)]"),
    Mutant("update_sign", "src/fedsim/model.py", "            p -= g\n", "            p += g\n"),
    # The round's rows: each distinct state's rows train once, and each
    # strategy reads its own state's per-client tuples by their length.
    Mutant("round_rows_of_first_state", "src/fedsim/orchestrator.py",
           "own[s]) for s, c in group]", "own[group[0][0]]) for s, c in group]"),
    Mutant("round_rows_keyed_by_config", "src/fedsim/orchestrator.py", _ROUND_ROWS,
           _ROUND_ROWS.replace("{s: _client_rows", "{c: _client_rows")
           .replace("dict(group).items()}", "group}").replace("{s: [tuple", "{c: [tuple")
           .replace("for s, ts in", "for c, ts in").replace("own[s]", "own[c]")),
    Mutant("client_tuple_of_two_as_one", "src/fedsim/orchestrator.py",
           "if len(client_rows) == 1:", "if len(client_rows) >= 1:"),
    Mutant("client_tuple_of_two_as_none", "src/fedsim/orchestrator.py",
           "elif client_rows:", "elif len(client_rows) > 2:"),
    Mutant("pga_rows_swapped", "src/fedsim/orchestrator.py",
           "ascended, benign = client_rows", "benign, ascended = client_rows"),
    Mutant("unpack_stack_check", "src/fedsim/model.py",
           "if params.shape[-1:] != (spec.param_count,):",
           "if params.ndim == 1 and params.shape != (spec.param_count,):"),
    # A parameter stack where one model is expected: each refusal lets it through.
    Mutant("eval_cohort_stack_check", "src/fedsim/model.py",
           "out=summed)\n        if params.shape != (spec.param_count,):",
           "out=summed)\n        if params.shape[-1:] != (spec.param_count,):"),
    Mutant("loss_and_grad_stack_check", "src/fedsim/model.py",
           "_check_labels(y, spec)\n    if params.shape != (spec.param_count,):",
           "_check_labels(y, spec)\n    if params.shape[-1:] != (spec.param_count,):"),
    # An inf label ratio in fedval.score, and an adapted clip bound that overflows.
    Mutant("score_inf_ratio", "src/fedsim/fedval.py",
           '@np.errstate(divide="ignore", invalid="ignore")', '@np.errstate(invalid="ignore")'),
    Mutant("clip_bound_reached_inf", "src/fedsim/privacy.py",
           "if not 0.0 < bound < math.inf:", "if not 0.0 < bound <= math.inf:"),
    # Unreadable inputs: each exception class of the two refusals dropped.
    Mutant("config_unreadable_os", "src/fedsim/cli.py",
           "except (OSError, UnicodeDecodeError) as exc:", "except UnicodeDecodeError as exc:"),
    Mutant("config_unreadable_utf8", "src/fedsim/cli.py",
           "except (OSError, UnicodeDecodeError) as exc:", "except OSError as exc:"),
    Mutant("csv_unreadable_os", "src/fedsim/data.py",
           "except (OSError, UnicodeDecodeError) as exc:", "except UnicodeDecodeError as exc:"),
    Mutant("csv_unreadable_utf8", "src/fedsim/data.py",
           "except (OSError, UnicodeDecodeError) as exc:", "except OSError as exc:"),
    # Partition splits and compare's row order.
    Mutant("lda_split_bounds", "src/fedsim/data.py",
           "zip(shards, np.split(pool, np.cumsum(counts)[:-1]))",
           "zip(shards, np.split(pool, np.cumsum(counts)[:-1] + 1))"),
    Mutant("quantity_skew_split_bounds", "src/fedsim/data.py",
           "part in np.split(pool, np.cumsum(counts)[:-1])]",
           "part in np.split(pool, np.cumsum(counts)[:-1] + 1)]"),
    Mutant("quantity_skew_remainder", "src/fedsim/data.py",
           'kind="stable")[: n - counts.sum()]] += 1', 'kind="stable")[: n - counts.sum()]] += 0'),
    Mutant("quantity_skew_remainder_order", "src/fedsim/data.py",
           "np.argsort(np.floor(sizes) - sizes,", "np.argsort(sizes - np.floor(sizes),"),
    Mutant("compare_row_order", "src/fedsim/cli.py",
           '("overall_accuracy", "label_accuracy_mad", "mean_validation_loss")',
           '("label_accuracy_mad", "overall_accuracy", "mean_validation_loss")'),
]


def check(mutant: Mutant, root: Path) -> str:
    """The text of the mutant's file, after checking that `old` occurs once."""
    text = (root / mutant.file).read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"{mutant.name}: {mutant.file} holds {found} copies of {mutant.old!r}")
    return text


def run_tier1(copy: Path) -> tuple[bool, str]:
    """(suite passed, first failing test) for the checkout at `copy`."""
    # No bytecode: a restored file can keep the mutant's size and mtime, and a
    # cached .pyc of the mutant would then be loaded for the original.
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                          capture_output=True, text=True)
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return done.returncode == 0, (failed[0] if failed else done.stdout.strip()[-200:])


def main() -> int:
    for mutant in MUTANTS:
        check(mutant, ROOT)

    bad_survivors = 0
    with tempfile.TemporaryDirectory(prefix="fedsim-mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_work"))
        passed, detail = run_tier1(copy)
        if not passed:
            raise SystemExit(f"tier-1 fails on the unmutated checkout: {detail}")
        for mutant in MUTANTS:
            path = copy / mutant.file
            original = check(mutant, copy)
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            # Hypothesis replays every failing example it saved, so one found
            # under an earlier mutant would kill every later one.
            shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
            started = time.perf_counter()
            try:
                passed, detail = run_tier1(copy)
            finally:
                path.write_text(original, encoding="utf-8")
            seconds = time.perf_counter() - started
            if not passed:
                verdict = f"killed    {detail}"
            elif mutant.equivalent:
                verdict = f"survived  equivalent: {mutant.equivalent}"
            else:
                verdict, bad_survivors = "survived  NO TEST KILLS IT", bad_survivors + 1
            print(f"{mutant.name:<24} {seconds:6.1f}s  {verdict}", flush=True)
    return 1 if bad_survivors else 0


if __name__ == "__main__":
    sys.exit(main())
