"""Byte-identity of `fedsim compare` outputs, checked against committed
digests for one numpy build, one OpenBLAS kernel and one numpy SIMD level.

Each input runs through `compare` with all five strategies in a fresh
process, with OPENBLAS_CORETYPE forcing one kernel that the CPU can run and
NPY_DISABLE_CPU_FEATURES capping numpy's own loops at the highest target a
CPU of that kernel's generation has (SkylakeX at X86_V4, Haswell at X86_V3,
Prescott at numpy's baseline), so each golden pairs the two as a real CPU
does. Each input is digested as `scripts/output_digests.py` digests it: the
sha256 of every artifact except `manifest.json` (which holds a wall time,
absolute paths and the BLAS fingerprint). The digests must equal their
lines in `tests/golden/<numpy version>-<corename>-<numpy target>.txt`. The
key is read from the run's own manifest, since OpenBLAS may run a forced
kernel under another name. A missing golden file skips. To write the golden
files of every kernel this CPU can run:

    python3 tests/test_golden_outputs.py

Regenerate a golden file only in a change that declares an output change.

The same runs check that the kernels agree with each other: for every pair
of kernels this CPU can run, each strategy's accuracy columns must be
identical and its mean validation loss must agree within LOSS_RTOL
(relative). fedavg and trimmed_mean on the PGA inputs are exempt, because
the attack destroys their models; their drift is printed, not asserted.
"""

from __future__ import annotations

import csv
import importlib.util
import itertools
import json
import math
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
REGENERATE = "python3 tests/test_golden_outputs.py"
# The sample configs, with the rounds each runs (None: all of them); every
# other input is `<workload>-<seed>` of bench/workloads.py, run for 2 rounds.
CONFIG_ROUNDS = {"quickstart": None, "backdoor_label_flip": 2, "pga_robustness": 2,
                 "determinism": None}
INPUTS = ("quickstart", "server_wide-1", "pga_iid-1", "backdoor_lda-1",
          "backdoor_label_flip", "pga_robustness", "determinism")
LOSS_RTOL = 1e-9
# (input, strategy) pairs whose model the PGA attack destroys.
EXEMPT = {(name, kind) for name in ("pga_iid-1", "pga_robustness")
          for kind in ("fedavg", "trimmed_mean")}
# Each kernel OPENBLAS_CORETYPE can force, with the CPU flag it needs and
# the highest numpy SIMD target of its CPU generation (None: the baseline).
KERNELS = {"SkylakeX": ("avx512f", "X86_V4"), "Haswell": ("avx2", "X86_V3"),
           "Prescott": (None, None)}


def load_output_digests():
    """scripts/output_digests.py as a module."""
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "scripts" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.partition(":")[2].split()}


def runnable_kernels() -> list[str]:
    flags = cpu_flags()
    return [kernel for kernel, (flag, _) in KERNELS.items() if flag is None or flag in flags]


def kernel_env(kernel: str) -> dict[str, str]:
    """The variables that force `kernel` and cap numpy at its target, by
    disabling only the targets this numpy finds above it."""
    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    cap = KERNELS[kernel][1]
    above = found[found.index(cap) + 1:] if cap in found else found
    return {"OPENBLAS_CORETYPE": kernel, "NPY_DISABLE_CPU_FEATURES": " ".join(above)}


def run_input(script, name: str, work: Path) -> tuple[str, Path]:
    """The golden key and the output directory of input `name`, run under
    the kernel and numpy cap that `kernel_env` sets."""
    work.mkdir(parents=True, exist_ok=True)
    if name in CONFIG_ROUNDS:
        config = ROOT / "configs" / f"{name}.json"
        if CONFIG_ROUNDS[name] is not None:
            raw = json.loads(config.read_text(encoding="utf-8"))
            raw["rounds"] = CONFIG_ROUNDS[name]
            config = work / config.name
            config.write_text(json.dumps(raw), encoding="utf-8")
    else:
        workload, _, seed = name.rpartition("-")
        config = script.write_workload(workload, int(seed), work, rounds=2)
    out = work / "out"
    script.run_compare(ROOT / "src", config, out)
    manifest = json.loads((out / "fedavg" / "manifest.json").read_text(encoding="utf-8"))
    blas = manifest["blas"]
    simd = blas["numpy_simd"][-1] if blas["numpy_simd"] else None
    key = f"{blas['numpy_version']}-{blas['openblas_corename']}-{simd}"
    return key, out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """run(name, kernel): `run_input` under `kernel`, once per module."""
    script, runs = load_output_digests(), {}

    def run(name: str, kernel: str) -> tuple[str, Path]:
        if (name, kernel) not in runs:
            with pytest.MonkeyPatch.context() as patch:
                for variable, value in kernel_env(kernel).items():
                    patch.setenv(variable, value)
                runs[name, kernel] = run_input(
                    script, name, tmp_path_factory.mktemp(f"{name}-{kernel}"))
        return runs[name, kernel]

    return run


def read_combined(out: Path) -> dict[tuple[str, str, str], float]:
    """combined.csv as {(strategy, round, metric): value}."""
    with (out / "combined.csv").open(newline="", encoding="utf-8") as fh:
        return {(row["strategy"], row["round"], row["metric"]): float(row["value"])
                for row in csv.DictReader(fh)}


def relative_drift(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    drift = abs(a - b) / max(abs(a), abs(b))
    return drift if math.isfinite(drift) else math.inf


def test_loading_the_script_leaves_path_and_bytecode_setting_alone(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    path = list(sys.path)
    load_output_digests()
    assert sys.path == path
    assert sys.dont_write_bytecode is False
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    load_output_digests()
    assert sys.dont_write_bytecode is True


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", INPUTS)
def test_outputs_match_golden(name, kernel, outputs):
    if kernel not in runnable_kernels():
        pytest.skip(f"the CPU lacks {KERNELS[kernel][0]}, which the {kernel} kernel needs")
    key, out = outputs(name, kernel)
    golden = GOLDEN / f"{key}.txt"
    if not golden.exists():
        pytest.skip(f"no golden file for {key}; write it with `{REGENERATE}`")
    want = [line for line in golden.read_text(encoding="utf-8").splitlines()
            if line.partition("  ")[2].startswith(f"{name}/")]
    lines = load_output_digests().digests(name, out)
    assert lines == want, f"outputs differ from {golden.relative_to(ROOT)}"


@pytest.mark.parametrize("name", INPUTS)
def test_kernels_agree_within_tolerance(name, outputs):
    kernels = runnable_kernels()
    if len(kernels) < 2:
        pytest.skip(f"the CPU runs only the {kernels[0]} kernel")
    tables = {kernel: read_combined(outputs(name, kernel)[1]) for kernel in kernels}
    over, report = 0, []
    for a, b in itertools.combinations(kernels, 2):
        assert tables[a].keys() == tables[b].keys(), f"{a} and {b} wrote other rows"
        # The largest loss drift and the accuracy rows that differ, by strategy.
        drift, unequal = defaultdict(float), defaultdict(int)
        for (kind, round_index, metric), value in tables[a].items():
            other = tables[b][kind, round_index, metric]
            if metric == "mean_validation_loss":
                drift[kind] = max(drift[kind], relative_drift(value, other))
            elif metric == "overall_accuracy" or metric.startswith("label_accuracy_"):
                unequal[kind] += value != other
        for kind in sorted(drift):
            line = (f"{a}/{b} {kind}: loss drift {drift[kind]:.3g}, "
                    f"{unequal[kind]} accuracy rows differ")
            if (name, kind) in EXEMPT:
                line += " (exempt: model destroyed)"
            elif drift[kind] > LOSS_RTOL or unequal[kind]:
                line += " (OVER THE BOUND)"
                over += 1
            report.append(line)
    print("\n".join(report))
    assert not over, "\n".join(report)


def main() -> int:
    script = load_output_digests()
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for kernel in runnable_kernels():
            os.environ.update(kernel_env(kernel))
            runs = [(name, *run_input(script, name, Path(tmp) / kernel / name))
                    for name in INPUTS]
            (key,) = {key for _, key, _ in runs}
            lines = [line for name, _, out in runs for line in script.digests(name, out)]
            (GOLDEN / f"{key}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            print(f"wrote tests/golden/{key}.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
