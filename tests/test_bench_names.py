"""What the benchmark in bench/ reads of fedsim, checked without running it.

bench/tracer.py times the functions that bench/run.py names in
TIMED_FUNCTIONS, plus `cli.main` and `orchestrator.run_experiment`, by
looking them up by name; bench/workloads.py builds each workload's state
through fedsim to refuse degenerate inputs. A rename or a new refusal in
fedsim would break the benchmark only when it next runs; these tests break
first. Nothing under bench/ is written: run.py is parsed, not imported, and
workloads.py and tracer.py are loaded without writing bytecode.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from fedsim import aggregators, privacy

BENCH = Path(__file__).resolve().parent.parent / "bench"


def timed_functions() -> list[str]:
    """The keys of bench/run.py's TIMED_FUNCTIONS table."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TIMED_FUNCTIONS"
            for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("bench/run.py defines no TIMED_FUNCTIONS")


@pytest.mark.parametrize(
    "name", [*timed_functions(), "cli.main", "orchestrator.run_experiment"]
)
def test_traced_name_is_a_public_function_of_its_module(name):
    # bench/tracer.py wraps exactly the public functions that a fedsim
    # module defines itself; any other name would read as never called.
    module_name, _, attr = name.partition(".")
    module = importlib.import_module(f"fedsim.{module_name}")
    function = getattr(module, attr, None)
    assert inspect.isfunction(function), name
    assert function.__module__ == module.__name__, name
    assert not attr.startswith("_"), name


def load_bench_module(name, monkeypatch):
    """bench/<name>.py, loaded without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counters_read_the_traced_signatures(monkeypatch):
    # The tracer's observers read a traced call's arguments and result, so
    # they are tied to the signatures of multi_krum and clip.
    tracer = load_bench_module("tracer", monkeypatch)
    spans = tracer.Tracer()
    traced = {name: spans.wrap(name, function, tracer.OBSERVERS[name])
              for name, function in (("aggregators.multi_krum", aggregators.multi_krum),
                                     ("privacy.clip", privacy.clip))}
    deltas = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [9.0, 9.0], [0.1, 0.1]])
    kept = traced["aggregators.multi_krum"](deltas, 0.4)
    assert kept == aggregators.multi_krum(deltas, 0.4) == [0, 1, 2]
    assert spans.events == [("aggregators.multi_krum.kept", 3.0),
                            ("aggregators.multi_krum.offered", 5.0)]
    spans.events.clear()
    for delta in (np.array([3.0, 4.0]), np.array([0.3, 0.4])):
        traced["privacy.clip"](delta, 1.0)
    assert spans.events == [("privacy.clip.clipped", 1.0), ("privacy.clip.clipped", 0.0)]


def test_every_workload_is_usable_at_seed_1(tmp_path, monkeypatch):
    workloads = load_bench_module("workloads", monkeypatch)
    assert workloads.WORKLOADS
    for name in workloads.WORKLOADS:
        work = tmp_path / name
        work.mkdir()
        config = workloads.write_workload(name, 1, work)
        assert workloads.check_inputs(config) == [], name
