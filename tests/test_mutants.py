"""Every mutant of `scripts/mutants.py` still applies to the source: its
name is unique and its `old` text occurs exactly once in its file, as the
script's own `check` requires. A source edit that orphans a mutant fails
here, not only when the slow mutation run next starts."""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    """scripts/mutants.py as a module, imported without writing bytecode."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


MUTANTS = load_mutants()


def test_names_are_unique():
    repeated = [name for name, n in Counter(m.name for m in MUTANTS.MUTANTS).items() if n > 1]
    assert not repeated


@pytest.mark.parametrize("mutant", MUTANTS.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    try:
        MUTANTS.check(mutant, ROOT)
    except SystemExit as exc:
        pytest.fail(str(exc))
    assert mutant.new != mutant.old
