"""Outside-in tracer for one `fedsim` CLI invocation.

    python3 bench/tracer.py SPANS.npz compare CONFIG --strategies ... --out DIR

runs `fedsim.cli.main` on the arguments after SPANS.npz with every public
function of every `fedsim` module wrapped in a span recorder, then writes
the spans to SPANS.npz. fedsim must be importable (PYTHONPATH=src); nothing
in it is changed on disk.

A function is wrapped once and every module attribute bound to it is
replaced, so by-name imports such as `adversary.local_train`,
`orchestrator.gen_synthetic`, `cli.run_experiment` and `metrics.mad` are
traced too. Each span records its name, start, end, parent span and thread:
client jobs run on pool threads, so a span's parent is the innermost open
span on its own thread, and self time is computed per thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
import time


class Tracer:
    """In-memory span recorder; spans are only written out by `save`."""

    def __init__(self):
        self.names: list[str] = []
        # (span id, name index, start, end, parent span id or -1, thread id)
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        # (counter name, value) pairs taken from return values; list.append is
        # atomic, so pool threads may add to it without a lock.
        self.events: list[tuple[str, float]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, observe=None):
        name_index = len(self.names)
        self.names.append(name)
        spans, events, ids, local = self.spans, self.events, self._ids, self._local
        clock, thread_id = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name_index, start, end, parent, thread_id()))
            if observe is not None:
                events.extend(observe(result, args))
            return result

        return traced

    def save(self, path: str, exit_code: int) -> None:
        import numpy as np

        table = np.array(self.spans, dtype=np.float64).reshape(-1, 6)
        totals: dict[str, float] = {}
        for key, value in self.events:
            totals[key] = totals.get(key, 0.0) + value
        meta = {"names": self.names, "counters": totals, "exit_code": exit_code}
        np.savez(path, spans=table, meta=np.array(json.dumps(meta)))


def _clip_flags(result, args):
    return [("privacy.clip.clipped", float(result[1]))]


def _krum_kept(result, args):
    return [("aggregators.multi_krum.kept", float(len(result))),
            ("aggregators.multi_krum.offered", float(len(args[0])))]


# Counters read off return values, keyed by span name.
OBSERVERS = {"privacy.clip": _clip_flags, "aggregators.multi_krum": _krum_kept}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every fedsim module and rebind them."""
    import fedsim

    modules = [
        importlib.import_module(f"fedsim.{info.name}")
        for info in pkgutil.iter_modules(fedsim.__path__)
    ]
    wrapped = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                name = f"{short}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, OBSERVERS.get(name))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.npz <fedsim cli arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from fedsim import cli

    code = 2
    try:
        code = cli.main(cli_args)
    finally:
        tracer.save(out_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
