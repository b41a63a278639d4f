"""Print a sha256 of every artifact that `fedsim compare` writes for the
sample configs and the benchmark workloads, so that two checkouts can be
checked for byte-identical outputs with `diff`.

    python3 scripts/output_digests.py > change.txt
    python3 scripts/output_digests.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

Every `configs/*.json` and every workload of `bench/workloads.py` at each
`--seeds` value is run through `compare` with all five strategies, using the
fedsim sources under `--src` (this checkout's `src/` by default). The
workload inputs come from `bench/workloads.py`, which is imported and not
changed; the CSV path in `server_wide`'s config is made relative, so the
canonical config it writes does not depend on the scratch directory.
`manifest.json` is left out: it holds a wall time, absolute paths and the
BLAS fingerprint, which names the OpenBLAS settings of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # leave bench/ as it is

import workloads  # noqa: E402


def run_compare(src: Path, config: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "fedsim.cli", "compare", str(config),
            "--strategies", ",".join(workloads.STRATEGIES), "--out", str(out)]
    subprocess.run(argv, check=True, env=env, cwd=config.parent, stdout=subprocess.DEVNULL)


def write_workload(name: str, seed: int, work: Path, rounds: int | None = None) -> Path:
    """`workloads.write_workload` with the CSV path in the config made
    relative, so that the canonical config does not name `work`; run the
    config from its own directory."""
    config = workloads.write_workload(name, seed, work, rounds)
    raw = json.loads(config.read_text(encoding="utf-8"))
    if raw["task"]["type"] == "csv":
        raw["task"]["path"] = Path(raw["task"]["path"]).name
        config.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return config


def digests(name: str, out: Path) -> list[str]:
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.relative_to(out)}"
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the fedsim package to run")
    parser.add_argument("--seeds", default="1,7", help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = [(f"configs/{p.stem}", p) for p in sorted((ROOT / "configs").glob("*.json"))]
        for name in workloads.WORKLOADS:
            for seed in seeds:
                inputs = work / f"{name}-{seed}"
                inputs.mkdir()
                runs.append((f"{name}-{seed}", write_workload(name, seed, inputs)))
        for name, config in runs:
            out = work / "out" / name
            run_compare(args.src.resolve(), config, out)
            print("\n".join(digests(name, out)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
