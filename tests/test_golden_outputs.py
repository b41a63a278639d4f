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
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
REGENERATE = "python3 tests/test_golden_outputs.py"
INPUTS = ("quickstart", "server_wide-1", "pga_iid-1", "backdoor_lda-1")
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


def kernel_env(kernel: str) -> dict[str, str]:
    """The variables that force `kernel` and cap numpy at its target, by
    disabling only the targets this numpy finds above it."""
    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    cap = KERNELS[kernel][1]
    above = found[found.index(cap) + 1:] if cap in found else found
    return {"OPENBLAS_CORETYPE": kernel, "NPY_DISABLE_CPU_FEATURES": " ".join(above)}


def run_input(script, name: str, work: Path) -> tuple[str, list[str]]:
    """The golden key and the digest lines of input `name`, run under the
    kernel and numpy cap that `kernel_env` sets."""
    work.mkdir(parents=True, exist_ok=True)
    if name == "quickstart":
        config = ROOT / "configs" / "quickstart.json"
    else:
        workload, _, seed = name.rpartition("-")
        config = script.write_workload(workload, int(seed), work, rounds=2)
    out = work / "out"
    script.run_compare(ROOT / "src", config, out)
    manifest = json.loads((out / "fedavg" / "manifest.json").read_text(encoding="utf-8"))
    blas = manifest["blas"]
    simd = blas["numpy_simd"][-1] if blas["numpy_simd"] else None
    key = f"{blas['numpy_version']}-{blas['openblas_corename']}-{simd}"
    return key, script.digests(name, out)


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
def test_outputs_match_golden(name, kernel, tmp_path, monkeypatch):
    flag = KERNELS[kernel][0]
    if flag is not None and flag not in cpu_flags():
        pytest.skip(f"the CPU lacks {flag}, which the {kernel} kernel needs")
    for variable, value in kernel_env(kernel).items():
        monkeypatch.setenv(variable, value)
    key, lines = run_input(load_output_digests(), name, tmp_path)
    golden = GOLDEN / f"{key}.txt"
    if not golden.exists():
        pytest.skip(f"no golden file for {key}; write it with `{REGENERATE}`")
    want = [line for line in golden.read_text(encoding="utf-8").splitlines()
            if line.partition("  ")[2].startswith(f"{name}/")]
    assert lines == want, f"outputs differ from {golden.relative_to(ROOT)}"


def main() -> int:
    script, flags = load_output_digests(), cpu_flags()
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for kernel, (flag, _) in KERNELS.items():
            if flag is not None and flag not in flags:
                continue
            os.environ.update(kernel_env(kernel))
            runs = [run_input(script, name, Path(tmp) / kernel / name) for name in INPUTS]
            (key,) = {key for key, _ in runs}
            lines = [line for _, digests in runs for line in digests]
            (GOLDEN / f"{key}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            print(f"wrote tests/golden/{key}.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
