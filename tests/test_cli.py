import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import fedsim
from fedsim import cli, fedval, model, orchestrator
from fedsim.aggregators import STRATEGY_KINDS, Strategy
from fedsim.data import PartitionSpec
from fedsim.errors import ConfigurationError
from fedsim.metrics import MetricRecord
from fedsim.model import MlpSpec, TrainSpec
from fedsim.orchestrator import ExperimentConfig, ExperimentResult, HoldoutSpec, SyntheticTask


def minimal_config(**overrides) -> dict:
    config = {
        "task": {"type": "synthetic", "classes": 3, "features": 5, "samples": 600,
                 "separation": 6.0, "seed": 0},
        "partition": {"scheme": "iid", "client_count": 6, "seed": 0},
        "model": {"layer_sizes": [5, 8, 3], "seed": 0},
        "train": {"epochs": 2, "batch_size": 16, "learning_rate": 0.1, "seed": 0},
        "strategy": {"kind": "fedval"},
        "rounds": 3,
        "clients_per_round": 3,
        "selection_seed": 4,
        "validation": {"per_label": 10, "seed": 2},
        "test": {"per_label": 15, "seed": 1},
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


class TestRun:
    def test_artifacts_and_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        code = cli.main(["run", path, "--out", str(out)])
        assert code == 0
        for artifact in ("metrics.csv", "rounds.jsonl", "manifest.json", "final_model.npz"):
            assert (out / artifact).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool_version"]
        assert len(manifest["config_hash"]) == 64

    def test_invalid_config_names_field(self, tmp_path, capsys):
        config = minimal_config(clients_per_round=99)
        path = write_config(tmp_path, config)
        code = cli.main(["run", path, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "clients_per_round" in capsys.readouterr().err

    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        config = minimal_config()
        config["train"]["momentum"] = 0.9
        path = write_config(tmp_path, config)
        code = cli.main(["run", path, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "momentum" in capsys.readouterr().err

    def test_reruns_byte_identical(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        cli.main(["run", path, "--out", str(tmp_path / "a")])
        cli.main(["run", path, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_metrics_csv_schema(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        cli.main(["run", path, "--out", str(out)])
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == ",".join(f.name for f in fields(MetricRecord))

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_round_log_is_strict_json_when_values_are_nan(self, tmp_path, monkeypatch):
        # One NaN client delta makes every fedval score NaN and the fedavg
        # global model (hence its val_loss) NaN; both are written as null.
        config = cli.load_config(write_config(tmp_path, minimal_config()))
        honest_deltas = orchestrator._client_deltas

        def deltas(*args):
            out = honest_deltas(*args)
            out[0] = np.nan
            return out

        monkeypatch.setattr(orchestrator, "_client_deltas", deltas)
        logs = []
        for kind in ("fedval", "fedavg"):
            run_config = replace(config, strategy=Strategy(kind=kind))
            setup = orchestrator.setup_experiment(run_config)
            with np.errstate(invalid="ignore"):
                state, log = orchestrator.run_round(
                    setup, orchestrator.initial_state(run_config), run_config)
            logs.append(log)
        assert all(math.isnan(s) for s in logs[0].scores.values())
        assert math.isnan(logs[1].val_loss)

        result = ExperimentResult([], logs, state.global_params)
        out = tmp_path / "out"
        out.mkdir()
        cli._write_run(out, config, result, 0.0)

        def reject(token):
            raise ValueError(f"not strict JSON: {token}")

        lines = (out / "rounds.jsonl").read_text().splitlines()
        fedval_log, fedavg_log = (json.loads(line, parse_constant=reject) for line in lines)
        assert set(fedval_log["scores"].values()) == {None}
        assert fedavg_log["val_loss"] is None


    def test_diverging_run_prints_only_the_error(self, tmp_path):
        # A fresh process, so that numpy's RuntimeWarnings reach stderr as
        # they would for a user, not pytest's warning capture.
        config = minimal_config()
        config["train"]["learning_rate"] = 1e200
        path = write_config(tmp_path, config)
        done = subprocess.run(
            [sys.executable, "-m", "fedsim.cli", "run", path, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=child_env(),
        )
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "runtime error: training diverged: non-finite parameters (learning rate too high?)"
        ]

    def test_diverging_attacker_prints_only_the_error(self, tmp_path):
        # Every client is a PGA attacker, so the ascent row is the first row
        # refused; no numpy warning may reach stderr before the error.
        quickstart = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"
        config = json.loads(quickstart.read_text(encoding="utf-8"))
        config["attack"] = {"kind": "pga", "scale_factor": 2.0, "ascent_epochs": 1,
                            "malicious_fraction": 1.0}
        config["train"]["learning_rate"] = 1e200
        path = write_config(tmp_path, config)
        done = subprocess.run(
            [sys.executable, "-m", "fedsim.cli", "run", path, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=child_env(),
        )
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "runtime error: ascent diverged: non-finite parameters"
        ]


def child_env(**env_vars) -> dict[str, str]:
    """The environment of a fresh fedsim process: this one's, with fedsim on
    the path and OPENBLAS_NUM_THREADS unset unless given in `env_vars`.
    Importing `fedsim.cli` sets that variable in this process, so without
    this every later child would inherit it and none would see the CLI's
    own default start."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_vars, PYTHONPATH=str(Path(fedsim.__file__).parents[1]))
    return env


def fresh_python(argv: list[str], **env_vars) -> subprocess.CompletedProcess:
    """`python argv` in a fresh process with `child_env(**env_vars)`."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=child_env(**env_vars), check=True)


def cpu_has(flag: str) -> bool:
    try:
        return flag in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


class TestOpenBlasStart:
    """The CLI starts numpy's OpenBLAS on one thread unless the variable is
    set; library modules leave the environment alone."""

    @staticmethod
    def after_import(module: str, **env_vars) -> list:
        """OPENBLAS_NUM_THREADS and the process's OS thread count (0 off
        Linux) after a fresh `import module`."""
        code = (f"import json, os, sys, {module}; print(json.dumps(["
                "os.environ.get('OPENBLAS_NUM_THREADS'), "
                "len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 0]))")
        return json.loads(fresh_python(["-c", code], **env_vars).stdout)

    def test_cli_starts_openblas_on_one_thread(self):
        value, threads = self.after_import("fedsim.cli")
        assert value == "1"
        if sys.platform == "linux":
            assert threads == 1

    def test_explicit_setting_wins(self):
        value, _ = self.after_import("fedsim.cli", OPENBLAS_NUM_THREADS="2")
        assert value == "2"

    def test_library_leaves_the_variable_unset(self):
        value, _ = self.after_import("fedsim.orchestrator")
        assert value is None

    @pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
    def test_cli_process_evaluates_cohorts_on_one_thread(self):
        # The benchmark's wide validation cohort: 2000 rows through 16-128-10.
        code = ("import os, fedsim.cli; from fedsim import model; "
                "from fedsim.data import gen_synthetic; "
                "spec = model.MlpSpec((16, 128, 10)); "
                "data = gen_synthetic(10, 16, 2000, 4.0, seed=0); "
                "start = model.init_params(spec); "
                "model.eval_cohort([start * (1 + i / 10) for i in range(6)], spec, data); "
                "print(len(os.listdir('/proc/self/task')))")
        assert fresh_python(["-c", code]).stdout.split() == ["1"]


class TestImportFootprint:
    def test_grouped_csv_setup_leaves_numpy_ma_unloaded(self, tmp_path):
        # numpy.ma costs about 1 MB of RSS and 10 ms; `np.unique` imports it.
        if json.loads(fresh_python(
                ["-c", "import json, sys, numpy; print(json.dumps('numpy.ma' in sys.modules))"]
        ).stdout):
            pytest.skip("numpy loads numpy.ma on import")
        rows = ["f0,f1,y,g"] + [f"{i % 7 / 7:.3f},{i % 5 / 5:.3f},{i % 2},{'AB'[i % 3 == 0]}"
                                for i in range(120)]
        csv_path = tmp_path / "grouped.csv"
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = minimal_config(
            task={"type": "csv", "path": str(csv_path), "feature_columns": ["f0", "f1"],
                  "label_column": "y", "group_column": "g"},
            model={"layer_sizes": [2, 8, 2], "seed": 0},
            validation={"per_label": 5, "seed": 2},
            test={"per_label": 10, "seed": 1},
        )
        path = write_config(tmp_path, config)
        code = ("import json, sys; from fedsim import cli, orchestrator; "
                f"setup = orchestrator.setup_experiment(cli.load_config({path!r})); "
                "print(json.dumps([sorted(setup.val.group_indices), 'numpy.ma' in sys.modules]))")
        groups, loaded = json.loads(fresh_python(["-c", code]).stdout)
        assert groups == [0, 1]
        assert not loaded

    def test_library_leaves_openssl_to_the_importer(self):
        code = ("import json, sys, fedsim.orchestrator, numpy.random; "
                "print(json.dumps(sys.modules.get('_hashlib', 'unloaded') is not None))")
        assert json.loads(fresh_python(["-c", code]).stdout)

    def test_compare_process_leaves_openssl_unloaded(self, tmp_path):
        # numpy.random imports `secrets`, which would map OpenSSL's libcrypto
        # (about 3 MB of RSS); the CLI keeps `_hashlib` out before numpy loads.
        path = write_config(tmp_path, minimal_config(rounds=1))
        out = tmp_path / "out"
        argv = ["fedsim", "compare", path, "--strategies", "fedavg,fedval", "--out", str(out)]
        code = textwrap.dedent(f"""
            import json, runpy, sys
            sys.argv = {argv!r}
            try:
                runpy.run_module("fedsim.cli", run_name="__main__")
            except SystemExit as stop:
                status = stop.code
            try:
                with open("/proc/self/maps") as maps:
                    crypto = any("libcrypto" in line for line in maps)
            except OSError:
                crypto = None
            print(json.dumps([status, sys.modules.get("_hashlib", "unloaded") is None, crypto]))
        """)
        proc = fresh_python(["-c", code])
        status, hashlib_left_out, crypto = json.loads(proc.stdout.splitlines()[-1])
        assert status == 0
        assert proc.stderr == ""
        assert hashlib_left_out
        # The built-in sha256 gives the digest that this process's hashlib gives.
        for kind in ("fedavg", "fedval"):
            canonical = json.loads((out / kind / "config.canonical.json").read_text())
            compact = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
            manifest = json.loads((out / kind / "manifest.json").read_text())
            assert manifest["config_hash"] == hashlib.sha256(compact.encode()).hexdigest()
        if crypto is None:
            pytest.skip("no /proc/self/maps to read the process's mappings from")
        assert not crypto


BLAS_KEYS = {"numpy_version", "numpy_simd", "openblas_config", "openblas_corename",
             "openblas_num_threads", "OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE"}


def numpy_simd() -> dict:
    """numpy's own SIMD report: its baseline and the targets found above it."""
    try:
        return np.show_config(mode="dicts").get("SIMD Extensions", {})
    except TypeError:  # numpy before 1.25 gives no report
        return {}


class TestBlasFingerprint:
    def test_manifest_records_it(self, tmp_path):
        path = write_config(tmp_path, minimal_config(rounds=1))
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        blas = json.loads((out / "manifest.json").read_text())["blas"]
        assert set(blas) == BLAS_KEYS
        assert blas["numpy_version"] == np.__version__
        simd = numpy_simd()
        assert blas["numpy_simd"] == (simd.get("found") or simd.get("baseline"))
        if model._openblas() is not None:
            assert blas["openblas_config"].startswith("OpenBLAS")
            assert blas["openblas_corename"]
            assert blas["openblas_num_threads"] >= 1

    @pytest.mark.skipif(not cpu_has("avx2"), reason="the Haswell kernel needs AVX2")
    @pytest.mark.skipif(model._openblas() is None, reason="numpy bundles no OpenBLAS")
    def test_forced_kernel_is_recorded(self, tmp_path):
        path = write_config(tmp_path, minimal_config(rounds=1))
        out = tmp_path / "out"
        fresh_python(["-m", "fedsim.cli", "run", path, "--out", str(out)],
                     OPENBLAS_CORETYPE="Haswell")
        blas = json.loads((out / "manifest.json").read_text())["blas"]
        assert blas["openblas_corename"] == "Haswell"
        assert blas["OPENBLAS_CORETYPE"] == "Haswell"
        assert blas["OPENBLAS_NUM_THREADS"] == "1"
        assert blas["openblas_num_threads"] == 1

    @pytest.mark.skipif(not numpy_simd().get("found"), reason="numpy runs its baseline loops")
    def test_numpy_cap_is_recorded(self):
        # Each capped target leaves the record; with none left, it is the baseline.
        found, baseline = numpy_simd()["found"], numpy_simd()["baseline"]
        code = "import json; from fedsim import model; print(json.dumps(model.blas_fingerprint()))"
        for keep in range(len(found)):
            capped = fresh_python(["-c", code], NPY_DISABLE_CPU_FEATURES=" ".join(found[keep:]))
            assert json.loads(capped.stdout)["numpy_simd"] == (found[:keep] or baseline)


def assert_refused(tmp_path, capsys, config, named):
    """`fedsim run` exits 1 naming `named` and leaves no output behind."""
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


class TestStrictTypes:
    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            (None, "recall_dim", "false", "config.recall_dim: expected true or false"),
            (None, "rounds", 1.7, "config.rounds: expected an integer"),
            (None, "rounds", True, "config.rounds: expected an integer"),
            ("strategy", "pre_transforms", "norm_bound",
             "strategy.pre_transforms: expected a list"),
            ("model", "layer_sizes", [5, "8", 3], "model.layer_sizes[1]: expected an integer"),
            ("train", "learning_rate", "0.1", "train.learning_rate: expected a number"),
            ("train", "learning_rate", False, "train.learning_rate: expected a number"),
            ("train", "learning_rate", 10**400, "train.learning_rate: expected a number"),
            ("validation", "balanced", 1, "validation.balanced: expected true or false"),
            ("task", "seed", None, "task.seed: expected an integer"),
            (None, "score_params", None, "score_params: expected an object"),
            # Python's json reads NaN and Infinity; the canonical config
            # would then not be strict JSON.
            ("train", "learning_rate", math.nan,
             "train.learning_rate: expected a finite number, got nan"),
            ("train", "learning_rate", -math.inf,
             "train.learning_rate: expected a finite number, got -inf"),
            ("score_params", "clamp_floor", math.inf,
             "score_params.clamp_floor: expected a finite number, got inf"),
            ("dp", "noise_multiplier", math.nan,
             "dp.noise_multiplier: expected a finite number, got nan"),
        ],
    )
    def test_wrong_type_refused(self, tmp_path, capsys, section, key, value, named):
        config = minimal_config()
        (config if section is None else config.setdefault(section, {}))[key] = value
        assert_refused(tmp_path, capsys, config, named)

    def test_numbers_convert_where_exact(self):
        config = minimal_config(rounds=3.0)
        config["train"]["learning_rate"] = 1
        parsed = cli.config_from_dict(config)
        assert parsed.rounds == 3 and type(parsed.rounds) is int
        assert parsed.train.learning_rate == 1.0 and type(parsed.train.learning_rate) is float


class TestSectionRangeChecks:
    @pytest.mark.parametrize(
        "section, values, named",
        [
            ("dp", {"clip_bound": 0}, "dp: clip_bound must be positive"),
            ("train", {"epochs": -1}, "train: epochs must be >= 0"),
            ("partition", {"client_count": 0}, "partition: client_count must be >= 1"),
            ("attack", {"malicious_fraction": 1.5},
             "attack: malicious_fraction must lie in [0, 1]"),
            ("score_params", {"s1_label": 0}, "score_params: s1_label must be positive"),
            ("model", {"layer_sizes": [5]},
             "model: layer_sizes needs at least input and output dims"),
            ("strategy", {"remove_fraction": 1.0},
             "strategy: remove_fraction must lie in [0, 1)"),
        ],
    )
    def test_refusal_names_its_section(self, tmp_path, capsys, section, values, named):
        config = minimal_config()
        config.setdefault(section, {}).update(values)
        assert_refused(tmp_path, capsys, config, named)

    def test_clip_bound_adapted_to_zero_names_the_round(self, tmp_path, capsys):
        # Every quickstart delta lies far inside a bound of 1000, so round 0
        # scales the bound by exp(-5000 * 0.5), which underflows to 0.
        quickstart = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"
        config = json.loads(quickstart.read_text(encoding="utf-8"))
        config.update(strategy={"kind": "fedavg", "pre_transforms": ["norm_bound"]},
                      dp={"clip_bound": 1000, "adapt_rate": 5000}, rounds=2)
        out = tmp_path / "out"
        assert cli.main(["run", write_config(tmp_path, config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: dp: the clip bound adapted in round 0 reached 0 "
            "(from 1000.0 at adapt_rate 5000.0)"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("transforms", [["norm_bound"], ["norm_bound", "dp_noise"]])
    def test_clip_bound_adapted_to_inf_names_the_round(self, tmp_path, capsys, transforms):
        # Every quickstart delta sticks out of a bound of 1e-6, so round 0
        # scales the bound by exp(5000 * 0.5), which overflows to inf. Left
        # running, norm_bound alone would clip nothing from round 1 on, and
        # the noise's std would be inf.
        quickstart = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"
        config = json.loads(quickstart.read_text(encoding="utf-8"))
        config.update(strategy={"kind": "fedavg", "pre_transforms": transforms},
                      dp={"clip_bound": 1e-6, "adapt_rate": 5000, "noise_multiplier": 0.1},
                      rounds=3)
        out = tmp_path / "out"
        assert cli.main(["run", write_config(tmp_path, config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: dp: the clip bound adapted in round 0 reached inf "
            "(from 1e-06 at adapt_rate 5000.0)"
        ]
        assert not out.exists()

    def test_python_callers_keep_the_bare_message(self):
        from fedsim.privacy import DpState

        with pytest.raises(ConfigurationError, match=r"^clip_bound must be positive$"):
            DpState(clip_bound=0)


class TestLabelChecks:
    @pytest.mark.parametrize(
        "labels, named",
        [
            ([1], "backdoor_eval: needs two distinct labels"),
            ([1, 2, 3], "backdoor_eval: needs two distinct labels"),
            ([2, 2], "backdoor_eval: needs two distinct labels"),
            ([0, 7], "backdoor_eval[1]: label 7 outside the model's 3 classes"),
            ([-1, 0], "backdoor_eval[0]: label -1 outside the model's 3 classes"),
            ([1, 1, 2], "backdoor_eval: needs two distinct labels"),
            ([0, 3], "backdoor_eval[1]: label 3 outside the model's 3 classes"),
        ],
    )
    def test_backdoor_eval(self, tmp_path, capsys, labels, named):
        assert_refused(tmp_path, capsys, minimal_config(backdoor_eval=labels), named)

    def test_label_flip_on_csv_task(self, tmp_path, capsys):
        rows = ["a,b,y"] + [f"{i % 7}.5,{i % 5}.25,{i % 3}" for i in range(90)]
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = minimal_config(
            task={"type": "csv", "path": str(tmp_path / "data.csv"),
                  "feature_columns": ["a", "b"], "label_column": "y"},
            model={"layer_sizes": [2, 8, 3], "seed": 0},
            attack={"kind": "label_flip", "source_label": 7, "target_label": 1,
                    "malicious_fraction": 0.5},
        )
        assert_refused(tmp_path, capsys, config,
                       "attack.source_label: label 7 outside the model's 3 classes")


def csv_task_config(tmp_path, b_column, layer_sizes=(2, 8, 2)) -> dict:
    """A 200-row, two-feature, two-class CSV task whose row i holds
    `b_column(i)` in column `b`."""
    rows = ["a,b,y"] + [f"{i % 7}.5,{b_column(i)},{i % 2}" for i in range(200)]
    (tmp_path / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return minimal_config(
        task={"type": "csv", "path": str(tmp_path / "data.csv"),
              "feature_columns": ["a", "b"], "label_column": "y"},
        model={"layer_sizes": list(layer_sizes), "seed": 0},
        strategy={"kind": "fedavg"},
    )


class TestCsvRefusals:
    @pytest.mark.parametrize("file_exists", [True, False])
    def test_feature_count_must_match_the_input_width(self, tmp_path, capsys, file_exists):
        config = csv_task_config(tmp_path, lambda i: f"{i}.25", layer_sizes=(3, 8, 2))
        if not file_exists:  # the width is checked before the file is read
            (tmp_path / "data.csv").unlink()
        assert_refused(tmp_path, capsys, config,
                       "error: model.layer_sizes: input dim 3 != task features 2")
        # The width is derived from the columns; it is not a config key.
        assert "features" not in cli.canonical_dict(cli.config_from_dict(config))["task"]

    # Values near 1e307: a one-signed column overflows its mean; a mixed-sign
    # one keeps a finite mean, but the squares of its spread overflow.
    @pytest.mark.parametrize(
        "b_column",
        [lambda i: f"{1 + i % 5}e307", lambda i: f"{(-1) ** i * (1 + i % 5)}e307"],
        ids=["one-signed", "mixed-sign"],
    )
    def test_column_too_large_to_standardize(self, tmp_path, capsys, b_column):
        config = csv_task_config(tmp_path, b_column)
        path = config["task"]["path"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would end the run with exit 2
            assert_refused(tmp_path, capsys, config,
                           f"error: {path}: feature column 'b' is too large to standardize")


class TestUnreadableInputs:
    """An input that exists but cannot be read as UTF-8 text is a validation
    error (exit 1) that names the file, like a missing config file."""

    def assert_unreadable(self, tmp_path, capsys, config_path, named):
        out = tmp_path / "out"
        assert cli.main(["run", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert not out.exists()

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "cfgdir").mkdir()
        self.assert_unreadable(tmp_path, capsys, tmp_path / "cfgdir",
                               f"cannot read config file {tmp_path / 'cfgdir'}")

    def test_config_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff" + json.dumps(minimal_config()).encode())
        self.assert_unreadable(tmp_path, capsys, path, f"cannot read config file {path}")

    @pytest.mark.parametrize("fault", ["missing", "directory", "header", "row"])
    def test_csv_that_cannot_be_read(self, tmp_path, capsys, fault):
        config = csv_task_config(tmp_path, lambda i: f"{i}.25")
        data = tmp_path / "data.csv"
        if fault == "missing":
            data.unlink()
        elif fault == "directory":
            data.unlink()
            data.mkdir()
        else:  # a latin-1 byte in the header, or in data row 51
            lines = data.read_bytes().split(b"\n")
            lines[0 if fault == "header" else 50] += b"\xff"
            data.write_bytes(b"\n".join(lines))
        self.assert_unreadable(tmp_path, capsys, write_config(tmp_path, config),
                               f"{data}: cannot read the file")


def holdout_config(section, seed):
    """A 3-class, 5-client config whose `section` holdout is three samples
    drawn without balancing at `seed`; as the test holdout, seeds 0-4 miss
    a label and seed 5 holds all three."""
    config = minimal_config(
        task={"type": "synthetic", "classes": 3, "features": 5, "samples": 400,
              "separation": 6.0, "seed": 0},
        partition={"scheme": "iid", "client_count": 5, "seed": 0},
    )
    config[section] = {"per_label": 1, "balanced": False, "seed": seed}
    return config


class TestHoldoutCoverage:
    """A holdout without some label is refused at set-up, with exit 1 and
    no output directory, before any client trains."""

    MISSING = {0: "[0]", 1: "[2]", 2: "[1]", 3: "[1]", 4: "[0]"}

    @pytest.fixture
    def no_training(self, monkeypatch):
        def train_rows(*args, **kwargs):
            raise AssertionError("a client trained")

        monkeypatch.setattr(orchestrator.model, "train_rows", train_rows)

    @pytest.mark.parametrize("seed", sorted(MISSING))
    def test_test_holdout_without_a_label(self, tmp_path, capsys, no_training, seed):
        path = write_config(tmp_path, holdout_config("test", seed))
        out = tmp_path / "out"
        for command in (["run"], ["compare", "--strategies", "fedavg,fedval"]):
            assert cli.main([*command, path, "--out", str(out)]) == 1
            named = f"error: test: holdout has no samples of labels {self.MISSING[seed]}"
            assert named in capsys.readouterr().err
            assert not out.exists()

    def test_test_holdout_with_every_label_runs(self, tmp_path):
        path = write_config(tmp_path, holdout_config("test", 5))
        assert cli.main(["run", path, "--out", str(tmp_path / "run")]) == 0
        assert cli.main(["compare", path, "--strategies", "fedavg,fedval",
                         "--out", str(tmp_path / "cmp")]) == 0
        assert (tmp_path / "run" / "metrics.csv").read_bytes() == (
            tmp_path / "cmp" / "fedval" / "metrics.csv"
        ).read_bytes()

    def test_validation_holdout_without_a_label_refused_under_fedavg(
        self, tmp_path, capsys, no_training
    ):
        config = holdout_config("validation", 0)
        config["strategy"] = {"kind": "fedavg"}
        assert_refused(tmp_path, capsys, config,
                       "error: validation: holdout has no samples of labels [0, 2]")

    @pytest.mark.parametrize(
        "section, holdout, named",
        [("validation", {"per_label": 0}, "validation: per_label must be >= 1"),
         ("test", {"per_label": 500}, "test: label 0 has only 200 samples, need 500")],
    )
    def test_holdout_refusals_name_their_section(self, tmp_path, capsys, section, holdout,
                                                 named):
        assert_refused(tmp_path, capsys, minimal_config(**{section: holdout}), named)

    def test_failed_run_writes_nothing(self, tmp_path, capsys):
        config = minimal_config(
            train={"epochs": 2, "batch_size": 16, "learning_rate": 1e200, "seed": 0})
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["run", path, "--out", str(out)]) == 2
        assert "runtime error: training diverged" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture
def train_calls(monkeypatch) -> list:
    """The arguments of every `train_rows` call that the test makes."""
    calls = []
    honest = orchestrator.model.train_rows

    def train_rows(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)

    monkeypatch.setattr(orchestrator.model, "train_rows", train_rows)
    return calls


class TestInfeasibleFractions:
    """A strategy fraction that leaves no update to aggregate is refused at
    set-up, with exit 1 and no output directory, before any client trains,
    also for the strategies that `compare` fills in."""

    @pytest.mark.parametrize(
        "strategy, clients, command, named",
        [({"kind": "lfr", "remove_fraction": 0.6}, 2, ["run"],
          "strategy.remove_fraction: lfr would drop all 2 clients"),
         ({"kind": "fedval"}, 1, ["compare", "--strategies", "fedavg,lfr"],
          "strategy.remove_fraction: lfr would drop all 1 clients"),
         ({"kind": "trimmed_mean", "trim_fraction": 0.5}, 2, ["run"],
          "strategy.trim_fraction: would over-trim 2 updates"),
         ({"kind": "trimmed_mean", "trim_fraction": 0.5}, 2,
          ["compare", "--strategies", "fedavg,trimmed_mean"],
          "strategy.trim_fraction: would over-trim 2 updates")],
    )
    def test_refused_before_training(self, tmp_path, capsys, train_calls, strategy, clients,
                                     command, named):
        path = write_config(tmp_path, minimal_config(strategy=strategy, clients_per_round=clients))
        out = tmp_path / "out"
        assert cli.main([*command, path, "--out", str(out)]) == 1
        assert f"error: {named}" in capsys.readouterr().err
        assert not out.exists()
        assert train_calls == []

    @pytest.mark.parametrize("strategy", [{"kind": "lfr", "remove_fraction": 0.5},
                                          {"kind": "trimmed_mean", "trim_fraction": 0.4}])
    def test_feasible_fraction_runs(self, tmp_path, strategy):
        # Three clients: lfr drops two, and trimmed_mean trims one from each end.
        path = write_config(tmp_path, minimal_config(strategy=strategy, rounds=1))
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 0


class TestNegativeScoreParams:
    """A negative score parameter would give negative weights or reward a
    higher loss; it is refused by the config, before any client trains."""

    @pytest.mark.parametrize("name", ["s1_avg", "s2", "s2_recall", "baseline_c", "clamp_floor"])
    def test_refused_before_training(self, tmp_path, capsys, train_calls, name):
        assert_refused(tmp_path, capsys, minimal_config(score_params={name: -1.0}),
                       f"error: score_params: {name} must be >= 0")
        assert train_calls == []

    def test_zero_is_accepted(self, tmp_path):
        # s2 has its own floor, the lowest exponent the s2 search tries.
        zeros = dict.fromkeys(["s1_avg", "s2_recall", "baseline_c", "clamp_floor"], 0)
        params = dict(zeros, s2=fedval.S2_MIN)
        path = write_config(tmp_path, minimal_config(score_params=params, rounds=1))
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 0

    def test_s2_below_the_search_floor_is_refused(self, tmp_path, capsys, train_calls):
        assert_refused(tmp_path, capsys, minimal_config(score_params={"s2": 0.2}),
                       "error: score_params: s2 must be >= 0.5")
        assert train_calls == []


class TestNegativeSeeds:
    """Every seed of a config is refused below 0 by its dotted key, before
    set-up builds any data."""

    @pytest.mark.parametrize(
        "key",
        ["task.seed", "partition.seed", "model.seed", "train.seed", "attack.placement_seed",
         "validation.seed", "test.seed", "selection_seed"],
    )
    def test_refused_before_setup(self, tmp_path, capsys, monkeypatch, key):
        calls = []
        monkeypatch.setattr(orchestrator, "gen_synthetic", lambda *a, **k: calls.append(a))
        quickstart = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"
        raw = json.loads(quickstart.read_text(encoding="utf-8"))
        section, _, name = key.rpartition(".")
        (raw.setdefault(section, {}) if section else raw)[name] = -1
        assert_refused(tmp_path, capsys, raw, f"error: {key}: must be >= 0")
        assert calls == []


class TestCountFloors:
    """rounds, metrics_every and clients_per_round are refused one below the
    lowest value they accept."""

    @pytest.mark.parametrize(
        "key, value, named",
        [("rounds", -1, "rounds: must be >= 0"),
         ("metrics_every", 0, "metrics_every: must be >= 1"),
         ("clients_per_round", 0, "clients_per_round: must be >= 1")],
    )
    def test_refused_below_the_floor(self, tmp_path, capsys, key, value, named):
        assert_refused(tmp_path, capsys, minimal_config(**{key: value}), f"error: {named}")


class TestCompare:
    def test_two_strategies_share_selection(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        out = tmp_path / "cmp"
        code = cli.main(["compare", path, "--strategies", "fedavg,fedval", "--out", str(out)])
        assert code == 0
        rounds_a = (out / "fedavg" / "rounds.jsonl").read_text().splitlines()
        rounds_b = (out / "fedval" / "rounds.jsonl").read_text().splitlines()
        selected_a = [json.loads(l)["selected"] for l in rounds_a]
        selected_b = [json.loads(l)["selected"] for l in rounds_b]
        assert selected_a == selected_b
        for kind in ("fedavg", "fedval"):
            sub = out / kind
            for artifact in ("metrics.csv", "rounds.jsonl", "manifest.json",
                             "final_model.npz", "config.canonical.json"):
                assert (sub / artifact).exists(), f"{kind}/{artifact}"
            canonical = json.loads((sub / "config.canonical.json").read_text())
            assert canonical["strategy"]["kind"] == kind
            manifest = json.loads((sub / "manifest.json").read_text())
            assert manifest["artifacts"]["final_model"] == str(sub / "final_model.npz")

    def test_combined_csv_long_format(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        out = tmp_path / "cmp"
        cli.main(["compare", path, "--strategies", "fedavg,fedval", "--out", str(out)])
        lines = (out / "combined.csv").read_text().splitlines()
        assert lines[0] == "strategy,round,metric,value"
        strategies = {line.split(",")[0] for line in lines[1:]}
        assert strategies == {"fedavg", "fedval"}
        metrics_seen = {line.split(",")[2] for line in lines[1:]}
        assert "overall_accuracy" in metrics_seen
        # One round's rows: the three scalars, then one accuracy per label.
        assert [line.split(",")[2] for line in lines[1:7]] == [
            "overall_accuracy", "label_accuracy_mad", "mean_validation_loss",
            "label_accuracy_0", "label_accuracy_1", "label_accuracy_2"]

    ALL = ("fedavg", "fedval", "multi_krum", "lfr", "trimmed_mean")

    def poisoned_dp_config(self):
        # Label-flip poisoning and a DP section: set-up state that a strategy
        # could leak into the next one if the shared state were not copied.
        return minimal_config(
            strategy={"kind": "fedval", "pre_transforms": ["norm_bound", "dp_noise"]},
            dp={"clip_bound": 0.5, "noise_multiplier": 0.1},
            attack={"kind": "label_flip", "source_label": 0, "target_label": 1,
                    "malicious_fraction": 0.34, "placement_seed": 1},
        )

    def pga_lda_prox_config(self):
        # PGA attackers (an ascent and a benign-reference row each, on one
        # shard and seed), uneven LDA shards and a proximal term: a narrow
        # model, so every strategy's rows train in one engine call a round.
        return minimal_config(
            partition={"scheme": "lda", "client_count": 6, "seed": 0, "alpha": 0.5},
            train={"epochs": 2, "batch_size": 16, "learning_rate": 0.1, "prox_mu": 0.3,
                   "seed": 0},
            attack={"kind": "pga", "scale_factor": 2.0, "ascent_epochs": 1,
                    "malicious_fraction": 0.34, "placement_seed": 1},
        )

    def wide_config(self):
        # A 16-128-10 model at batch 32: a full-batch step holds fewer rows
        # than there are strategies, so each strategy trains in turn.
        return minimal_config(
            task={"type": "synthetic", "classes": 10, "features": 16, "samples": 1000,
                  "separation": 6.0, "seed": 0},
            model={"layer_sizes": [16, 128, 10], "seed": 0},
            train={"epochs": 1, "batch_size": 32, "learning_rate": 0.1, "seed": 0},
            rounds=2,
        )

    def assert_matches_standalone_runs(self, tmp_path, config, artifacts):
        path = write_config(tmp_path, config)
        out = tmp_path / "cmp"
        assert cli.main(["compare", path, "--strategies", ",".join(self.ALL),
                         "--out", str(out)]) == 0
        base = cli.load_config(path)
        for kind in self.ALL:
            alone = write_config(tmp_path, cli.canonical_dict(cli._strategy_override(base, kind)),
                                 name=f"{kind}.json")
            assert cli.main(["run", alone, "--out", str(tmp_path / kind)]) == 0
            for artifact in artifacts:
                assert (out / kind / artifact).read_bytes() == (
                    tmp_path / kind / artifact
                ).read_bytes(), f"{kind}/{artifact}"

    def test_each_strategy_matches_a_standalone_run(self, tmp_path):
        self.assert_matches_standalone_runs(
            tmp_path, self.poisoned_dp_config(), ("metrics.csv", "rounds.jsonl")
        )

    ARTIFACTS = ("metrics.csv", "rounds.jsonl", "final_model.npz", "config.canonical.json")

    def test_joint_training_matches_standalone_runs(self, tmp_path):
        self.assert_matches_standalone_runs(tmp_path, self.pga_lda_prox_config(), self.ARTIFACTS)

    def test_per_strategy_training_matches_standalone_runs(self, tmp_path):
        self.assert_matches_standalone_runs(tmp_path, self.wide_config(), self.ARTIFACTS)

    def test_strategy_order_changes_no_file(self, tmp_path):
        path = write_config(tmp_path, self.poisoned_dp_config())
        outs = []
        for name, order in (("forward", self.ALL), ("reversed", self.ALL[::-1])):
            outs.append(tmp_path / name)
            assert cli.main(["compare", path, "--strategies", ",".join(order),
                             "--out", str(outs[-1])]) == 0
        for kind in self.ALL:
            for artifact in ("metrics.csv", "rounds.jsonl", "final_model.npz"):
                a, b = (out / kind / artifact for out in outs)
                assert a.read_bytes() == b.read_bytes(), f"{kind}/{artifact}"
        combined = [sorted((out / "combined.csv").read_text().splitlines()) for out in outs]
        assert combined[0] == combined[1]

    def test_empty_strategy_list_is_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        code = cli.main(["compare", path, "--strategies", " ", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_unknown_strategy_rejected(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        code = cli.main(["compare", path, "--strategies", "median", "--out", str(tmp_path / "x")])
        assert code == 1

    @pytest.mark.parametrize(
        "strategies, named",
        [("fedavg,median", "'median'"), ("fedavg,fedval,fedavg", "'fedavg' is listed twice")],
    )
    def test_strategy_list_checked_before_any_run(self, tmp_path, capsys, strategies, named):
        path = write_config(tmp_path, minimal_config())
        out = tmp_path / "x"
        code = cli.main(["compare", path, "--strategies", strategies, "--out", str(out)])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not any((out / kind).exists() for kind in self.ALL)


class TestProb:
    def test_appendix_style_output(self, capsys):
        code = cli.main(["prob", "--n", "30", "--p", "0.1", "--k0", "9",
                         "--rounds", "1,100,25000"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 4  # header + 3 rows
        values = [float(l.split()[2]) for l in lines[1:]]
        assert values == sorted(values)
        assert values[-1] > 0.99

    def test_zero_probability(self, capsys):
        code = cli.main(["prob", "--n", "30", "--p", "0", "--k0", "9", "--rounds", "10"])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert float(row[1]) == 0.0
        assert float(row[2]) == 0.0

    def test_threshold_form(self, capsys):
        code = cli.main(["prob", "--n", "30", "--p", "0.1", "--threshold", "0.4",
                         "--rounds", "25000"])
        assert code == 0
        assert float(capsys.readouterr().out.splitlines()[1].split()[2]) > 0.99

    @pytest.mark.parametrize("rounds, item", [("1,x", "'x'"), ("1.5", "'1.5'")])
    def test_malformed_rounds_is_usage_error(self, capsys, rounds, item):
        code = cli.main(["prob", "--n", "30", "--p", "0.1", "--k0", "9", "--rounds", rounds])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--rounds" in err and item in err

    def test_negative_rounds_name_the_option_and_item(self, capsys):
        code = cli.main(["prob", "--n", "30", "--p", "0.1", "--k0", "9", "--rounds", "1,-2"])
        assert code == 1
        assert capsys.readouterr().err == "error: prob: --rounds: '-2' must be >= 0\n"


class TestCanonicalConfig:
    def test_round_trip_fixed_point(self, tmp_path):
        config = cli.config_from_dict(minimal_config())
        text = cli.canonical_json(config)
        reparsed = cli.config_from_dict(json.loads(text))
        assert cli.canonical_json(reparsed) == text
        assert cli.config_hash(reparsed) == cli.config_hash(config)

    def test_hash_changes_with_content(self):
        a = cli.config_from_dict(minimal_config())
        b = cli.config_from_dict(minimal_config(selection_seed=99))
        assert cli.config_hash(a) != cli.config_hash(b)

    def test_python_defaults_are_the_config_defaults(self):
        raw = minimal_config()
        for key in ("selection_seed", "validation", "test"):
            del raw[key]
        config = ExperimentConfig(
            task=SyntheticTask(classes=3, features=5, samples=600),
            partition=PartitionSpec("iid", 6),
            model=MlpSpec((5, 8, 3)),
            train=TrainSpec(epochs=2, batch_size=16, learning_rate=0.1),
            strategy=Strategy("fedval"),
            rounds=3,
            clients_per_round=3,
        )
        assert cli.config_from_dict(raw) == config
        assert config.validation == HoldoutSpec(per_label=10, balanced=True, seed=2)
        assert config.test == HoldoutSpec(per_label=50, balanced=True, seed=1)

    def test_defaults_materialized(self):
        canonical = cli.canonical_dict(cli.config_from_dict(minimal_config()))
        assert canonical["score_params"]["s1_label"] == 3.0
        assert canonical["attack"]["kind"] == "none"
        assert canonical["dp"] is None


class TestStrategyOverride:
    def test_known_kinds_get_conventional_fractions(self):
        base = cli.config_from_dict(minimal_config())
        lfr = cli._strategy_override(base, "lfr")
        assert lfr.strategy.remove_fraction == 0.4
        krum = cli._strategy_override(base, "multi_krum")
        assert krum.strategy.remove_fraction == 0.5

    def test_every_kind_gets_its_table_entry(self):
        strategy = {"kind": "fedavg", "trim_fraction": 0.1}
        base = cli.config_from_dict(minimal_config(strategy=strategy))
        for kind, extra in STRATEGY_KINDS.items():
            override = cli._strategy_override(base, kind)
            want = base.strategy if kind == "fedavg" else Strategy(kind=kind, **extra)
            assert override.strategy == want

    def test_same_kind_keeps_base(self):
        base = cli.config_from_dict(minimal_config())
        assert cli._strategy_override(base, "fedval") is base

    def test_unknown_kind_rejected(self):
        base = cli.config_from_dict(minimal_config())
        with pytest.raises(ConfigurationError):
            cli._strategy_override(base, "median")
