"""Every engine entry point the benchmark's traced runs wrap must exist:
a refactor that renames or removes one would make ``perfbench/run.py
--trace 1`` fail at install time.  Resolves the names only; installs
nothing."""

import importlib

import pytest

from perfbench.trace import PATCHES


@pytest.mark.parametrize(
    "module,attr", [(m, a) for m, a, _name, _opts in PATCHES], ids=lambda v: v
)
def test_trace_target_exists(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
