"""fedsim benchmark: seeded `fedsim compare` workloads timed end to end.

    python3 bench/run.py --workload pga_iid --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Run it from anywhere inside a checkout; it runs fedsim from the checkout's
`src/` with PYTHONPATH, as the tier-1 tests do. One pass is one fresh
`python3 -m fedsim.cli compare` process over all five strategies, with no
`--workers` flag and FEDSIM_WORKERS unset, so the CLI picks its default
worker count. Passes run one at a time (closed loop, one client).

--trace 0 times untraced passes and prints the end-to-end metrics.
--trace 1 alternates untraced passes with passes run under bench/tracer.py
and prints the per-layer metrics. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
`--workload all` runs every workload with --trace 0 and prints a table.
See bench/README.md for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up-only invocations made before the first pass; one more precedes each
# pass, so that set-ups sample the whole run. setup_s is their median.
SETUP_REPS = 3
# Passes per run even when --seconds is too short for them.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# metrics.csv rows averaged into a final accuracy.
TAIL_ROWS = 5
# A pass that runs longer than this is killed and counted as failed.
PASS_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "final_accuracy.fedval": "fraction",
    "final_accuracy.lfr": "fraction",
}

# End-to-end final accuracies; their spread over ten seeds stays well inside
# the bound.
BOUNDED_QUALITY = ("fedval", "lfr")
# Strategies whose final accuracy swings with the seed: fedavg and
# trimmed_mean collapse under the PGA attack, and multi_krum's ten-seed
# spread reaches the bound on pga_iid and backdoor_lda. They are reported
# per layer (unbounded), not end to end.
UNBOUNDED_QUALITY = ("fedavg", "multi_krum", "trimmed_mean")

TIMED_FUNCTIONS = {
    "data.gen_synthetic": ("calls", "busy_s"),
    "data.load_csv": ("calls", "busy_s"),
    "data.partition": ("calls", "busy_s"),
    "data.build_validation": ("calls", "busy_s"),
    "orchestrator.setup_experiment": ("calls", "busy_s"),
    "model.loss_and_grad": ("calls", "busy_s", "us_per_call"),
    "model.local_train": ("calls", "busy_s", "self_s"),
    "model.eval_losses": ("calls", "busy_s", "us_per_call"),
    "adversary.pga_update": ("calls", "busy_s", "self_s"),
    "adversary.gradient_ascent": ("busy_s",),
    "privacy.clip": ("calls", "busy_s"),
    "privacy.add_noise": ("calls", "busy_s"),
    "aggregators.fedavg": ("busy_s", "us_per_call"),
    "aggregators.multi_krum": ("busy_s", "us_per_call"),
    "aggregators.lfr": ("busy_s", "us_per_call"),
    "aggregators.trimmed_mean": ("busy_s", "us_per_call"),
    "fedval.compute_report": ("busy_s", "self_s"),
    "fedval.adapt_s2": ("busy_s",),
    "fedval.score": ("busy_s",),
    "fedval.aggregate": ("busy_s",),
    "metrics.evaluate": ("calls", "busy_s"),
    "orchestrator.run_round": ("calls", "self_s"),
}
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "us_per_call": "us"}

# Per-layer figures derived from spans, counters and output files.
DERIVED_UNITS = {
    "model.steps_per_update": "count",
    "fedval.s2_evals_per_round": "count",
    "fedval.zero_update_rounds": "count",
    "aggregators.multi_krum.kept_fraction": "fraction",
    "aggregators.lfr.eval_calls": "count",
    "privacy.clipped_fraction": "fraction",
    "cli.self_s": "s",
    "layer_share.model_adversary": "fraction",
    "layer_share.server": "fraction",
    "trace_overhead": "ratio",
    "backdoor_success": "fraction",
    "final_accuracy.fedavg": "fraction",
    "final_accuracy.multi_krum": "fraction",
    "final_accuracy.trimmed_mean": "fraction",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn, stats in TIMED_FUNCTIONS.items():
        for stat in stats:
            units[f"{fn}.{stat}"] = STAT_UNITS[stat]
    units.update(DERIVED_UNITS)
    return units


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------- processes


@dataclass(frozen=True)
class Pass:
    """One CLI process: its wall time, CPU time, peak RSS and exit status."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_process(argv: list[str], log_dir: Path) -> Pass:
    """Run argv to completion and time it; rusage comes from wait4.

    ru_maxrss also counts the image the child was forked from, so this
    process must stay smaller than any pass: it never imports numpy.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Pass(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
    )


def last_line(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def compare_argv(config: Path, out_dir: Path, spans: Path | None = None) -> list[str]:
    cli_args = ["compare", str(config), "--strategies", ",".join(workloads.STRATEGIES),
                "--out", str(out_dir)]
    if spans is None:
        return [sys.executable, "-m", "fedsim.cli", *cli_args]
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), *cli_args]


# --------------------------------------------------------------- correctness


def check_outputs(out_dir: Path, rounds: int) -> tuple[list[str], dict[str, str]]:
    """Problems with one pass's output directory, and each metrics.csv's sha256."""
    problems = []
    digests: dict[str, str] = {}
    if not (out_dir / "combined.csv").is_file():
        problems.append("combined.csv missing")
    for kind in workloads.STRATEGIES:
        sub = out_dir / kind
        missing = [
            f"{kind}/{name} missing"
            for name in ("metrics.csv", "rounds.jsonl", "manifest.json")
            if not (sub / name).is_file()
        ]
        if missing:
            problems += missing
            continue
        raw = (sub / "metrics.csv").read_bytes()
        digests[kind] = hashlib.sha256(raw).hexdigest()
        rows = list(csv.DictReader(raw.decode("utf-8").splitlines()))
        if len(rows) != rounds:
            problems.append(f"{kind}/metrics.csv has {len(rows)} rows, expected {rounds}")
        for row in rows:
            acc = float(row["overall_accuracy"])
            if not (math.isfinite(acc) and 0.0 <= acc <= 1.0):
                problems.append(f"{kind}: accuracy {acc!r} in round {row['round']}")
                break
        logged = (sub / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
        if len(logged) != rounds:
            problems.append(f"{kind}/rounds.jsonl has {len(logged)} lines, expected {rounds}")
    return problems, digests


def tail_mean(out_dir: Path, kind: str, column: str) -> float:
    with open(out_dir / kind / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return statistics.fmean(float(r[column]) for r in rows[-TAIL_ROWS:])


def zero_update_rounds(out_dir: Path) -> int:
    lines = (out_dir / "fedval" / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
    return sum(1 for line in lines if json.loads(line)["zero_update"])


# ------------------------------------------------------------------ tracing

# Function groups whose wall-clock coverage the traced pass reports.
LAYER_SHARES = {
    "layer_share.model_adversary": ("model.", "adversary."),
    "layer_share.server": ("fedval.", "aggregators.", "privacy.", "model.eval_losses"),
}


def covered_time(starts, ends) -> float:
    """Length of the union of [start, end) intervals."""
    import numpy as np

    if len(starts) == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    reach = np.maximum.accumulate(e)
    first = np.ones(len(s), dtype=bool)
    first[1:] = s[1:] > reach[:-1]
    heads = np.flatnonzero(first)
    return float(np.sum(np.maximum.reduceat(e, heads) - s[heads]))


def layer_figures(spans_path: Path, out_dir: Path, wall_s: float) -> tuple[dict, dict]:
    """(times, counts) of one traced pass, named as the per-layer metrics."""
    import numpy as np

    with np.load(spans_path) as archive:
        spans = archive["spans"]
        meta = json.loads(str(archive["meta"]))
    names = meta["names"]
    span_id = spans[:, 0].astype(np.int64)
    name_ix = spans[:, 1].astype(np.int64)
    start, end = spans[:, 2], spans[:, 3]
    duration = end - start
    parent = spans[:, 4].astype(np.int64)
    size = int(span_id.max()) + 1
    # A span's parent is the innermost open span on its own thread, so taking
    # the direct children's durations away gives per-thread self time.
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=size)
    self_time = duration - covered[span_id]
    name_of = np.full(size, -1, dtype=np.int64)
    name_of[span_id] = name_ix
    parent_name = np.where(nested, name_of[np.maximum(parent, 0)], -1)

    n = len(names)
    calls = dict(zip(names, np.bincount(name_ix, minlength=n).astype(float).tolist()))
    busy = dict(zip(names, np.bincount(name_ix, weights=duration, minlength=n).tolist()))
    own = dict(zip(names, np.bincount(name_ix, weights=self_time, minlength=n).tolist()))

    def calls_under(child: str, parent_fn: str) -> float:
        hits = (name_ix == names.index(child)) & (parent_name == names.index(parent_fn))
        return float(np.count_nonzero(hits))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    times: dict[str, float] = {}
    for fn, stats in TIMED_FUNCTIONS.items():
        for stat in stats:
            if stat == "busy_s":
                times[f"{fn}.busy_s"] = busy[fn]
            elif stat == "self_s":
                times[f"{fn}.self_s"] = own[fn]
            elif stat == "us_per_call":
                times[f"{fn}.us_per_call"] = 1e6 * ratio(busy[fn], calls[fn])
    times["cli.self_s"] = busy["cli.main"] - busy["orchestrator.run_experiment"]
    for metric, prefixes in LAYER_SHARES.items():
        member = np.array([name.startswith(prefixes) for name in names])[name_ix]
        times[metric] = ratio(covered_time(start[member], end[member]), wall_s)

    counters = meta["counters"]
    updates = (
        calls["adversary.pga_update"] + calls["model.local_train"]
        - calls_under("model.local_train", "adversary.pga_update")
    )
    counts = {f"{fn}.calls": c for fn, c in calls.items()}
    counts["model.steps_per_update"] = ratio(calls["model.loss_and_grad"], updates)
    counts["fedval.s2_evals_per_round"] = ratio(
        calls_under("model.eval_losses", "fedval.adapt_s2"), calls["fedval.adapt_s2"]
    )
    counts["fedval.zero_update_rounds"] = float(zero_update_rounds(out_dir))
    counts["aggregators.multi_krum.kept_fraction"] = ratio(
        counters.get("aggregators.multi_krum.kept", 0.0),
        counters.get("aggregators.multi_krum.offered", 0.0),
    )
    counts["aggregators.lfr.eval_calls"] = calls_under("model.eval_losses", "aggregators.lfr")
    counts["privacy.clipped_fraction"] = ratio(
        counters.get("privacy.clip.clipped", 0.0), calls["privacy.clip"]
    )
    return times, counts


# --------------------------------------------------------------------- runs


def run_dir(workload: str, seed: int) -> Path:
    return WORK / f"{workload}-{seed}-{os.getpid()}"


class Run:
    """One benchmark run: its generated inputs, its passes and its failures."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.dir = run_dir(workload, seed)
        self.dir.mkdir(parents=True)
        self.config = workloads.write_workload(workload, seed, self.dir)
        self.setup_config = workloads.write_workload(workload, seed, self.dir, rounds=0)
        self.rounds = json.loads(self.config.read_text(encoding="utf-8"))["rounds"]
        check = subprocess.run(
            [sys.executable, str(BENCH_DIR / "workloads.py"), str(self.config)],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
        )
        if check.returncode != 0:
            problems = check.stdout.strip() or check.stderr.strip()
            raise BenchError(f"seed {seed} gives degenerate inputs: {problems}")
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] | None = None

    def invoke(self, setup_only: bool = False, traced: bool = False):
        """Run one CLI process and gate its outputs.

        Returns (Pass, output dir) or None when the process failed or its
        outputs are wrong, which is recorded as a failed operation.
        """
        self.attempted += 1
        pass_dir = self.dir / f"pass{self.attempted:03d}"
        out = pass_dir / "out"
        spans = pass_dir / "spans.npz" if traced else None
        config, rounds = (self.setup_config, 0) if setup_only else (self.config, self.rounds)
        result = run_process(compare_argv(config, out, spans), pass_dir)
        if result.exit_code != 0:
            problems = [f"exit code {result.exit_code}: {last_line(pass_dir / 'stderr.txt')}"]
        else:
            problems, digests = check_outputs(out, rounds)
            if traced and not spans.is_file():
                problems.append("no spans written")
            if not problems and not setup_only:
                if self.digests is None:
                    self.digests = digests
                changed = sorted(k for k in digests if digests[k] != self.digests[k])
                if changed:
                    problems.append(f"metrics.csv differs from the first pass for {changed}")
        if problems:
            self.failures.append(f"{pass_dir.name}: {'; '.join(problems)}")
            return None
        return result, out

    def time_left(self, started: float, next_pass_s: float) -> bool:
        return time.perf_counter() - started + next_pass_s <= self.seconds

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }


def median_or_fail(values: list[float], what: str) -> float:
    if not values:
        raise BenchError(f"no successful {what}")
    return statistics.median(values)


def measure_end_to_end(run: Run) -> dict[str, float]:
    started = time.perf_counter()
    setups: list[float] = []

    def set_up() -> None:
        done = run.invoke(setup_only=True)
        if done:
            setups.append(done[0].wall_s)

    for _ in range(SETUP_REPS):
        set_up()
    passes: list[Pass] = []
    last_out = None
    attempts: list[float] = []
    while len(attempts) < MIN_PASSES or run.time_left(started, statistics.median(attempts)):
        pair_started = time.perf_counter()
        set_up()
        done = run.invoke()
        if done:
            passes.append(done[0])
            last_out = done[1]
        attempts.append(time.perf_counter() - pair_started)
    print("setup wall s: " + " ".join(f"{w:.3f}" for w in setups))
    print("pass wall s: " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    metrics = {
        "setup_s": median_or_fail(setups, "set-up invocation"),
        "run_s": median_or_fail([p.wall_s for p in passes], "pass"),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    for kind in BOUNDED_QUALITY:
        metrics[f"final_accuracy.{kind}"] = tail_mean(last_out, kind, "overall_accuracy")
    return metrics


def measure_layers(run: Run) -> dict[str, float]:
    """Alternate untraced and traced passes; layer figures come from the traced."""
    started = time.perf_counter()
    plain: list[Pass] = []
    traced: list[tuple[Pass, Path]] = []
    pairs, pair_s = 0, 0.0
    while pairs < MIN_TRACED_PASSES or run.time_left(started, pair_s):
        pair_started = time.perf_counter()
        done = run.invoke()
        if done:
            plain.append(done[0])
        done = run.invoke(traced=True)
        if done:
            traced.append(done)
        pairs += 1
        pair_s = time.perf_counter() - pair_started
    trace_overhead = median_or_fail([p.wall_s for p, _ in traced], "traced pass") / (
        median_or_fail([p.wall_s for p in plain], "untraced pass")
    )

    figures = [layer_figures(out.parent / "spans.npz", out, p.wall_s) for p, out in traced]
    first_counts = figures[0][1]
    for i, (_, counts) in enumerate(figures[1:], start=2):
        differ = sorted(k for k in first_counts if counts.get(k) != first_counts[k])
        if differ:
            run.failures.append(f"traced pass {i}: counts differ from the first: {differ}")
    metrics = dict(first_counts)
    for key in figures[0][0]:
        metrics[key] = statistics.median(times[key] for times, _ in figures)
    metrics["trace_overhead"] = trace_overhead

    out = traced[0][1]
    has_backdoor = workloads.BASES[run.workload].get("backdoor_eval") is not None
    metrics["backdoor_success"] = (
        tail_mean(out, "fedval", "backdoor_accuracy") if has_backdoor else 0.0
    )
    for kind in UNBOUNDED_QUALITY:
        metrics[f"final_accuracy.{kind}"] = tail_mean(out, kind, "overall_accuracy")
    return metrics


# ---------------------------------------------------------------------- main


# Asked of a child process, so that this one never imports numpy.
NUMPY_PROBE = """
import json, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
keys = ("name", "version", "openblas configuration")
print(json.dumps({"numpy": numpy.__version__, "blas": {k: blas.get(k) for k in keys}}))
"""


def environment() -> dict:
    """What the figures depend on besides the code."""
    probe = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE], capture_output=True, text=True, check=True
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **json.loads(probe.stdout),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    try:
        run = Run(workload, seed, seconds)
        if trace:
            metrics = measure_layers(run)
            units = per_layer_units()
        else:
            metrics = measure_end_to_end(run)
            units = END_TO_END_UNITS
        for failure in run.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return run.result(metrics, units)
    finally:
        shutil.rmtree(run_dir(workload, seed), ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if "FEDSIM_WORKERS" in os.environ:
            raise BenchError("FEDSIM_WORKERS is set; it changes the program being measured")
        if not (SRC / "fedsim" / "cli.py").is_file():
            raise BenchError(f"no fedsim sources under {SRC}")
        print("environment " + json.dumps(environment(), sort_keys=True))
        if args.workload == "all":
            correct = True
            for name in workloads.WORKLOADS:
                result = bench(name, args.seed, args.seconds, trace=False)
                correct &= result["correct"]
                print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
                for metric, m in result["metrics"].items():
                    print(f"  {metric:<28} {m['value']:>12.6g} {m['unit']}")
            return 0 if correct else 1
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for metric, m in result["metrics"].items():
        print(f"{metric:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
