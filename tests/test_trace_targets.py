"""Every engine entry point the benchmark's traced runs wrap must exist:
a refactor that renames, removes or moves one into a base class would
make ``perfbench/run.py --trace 1`` fail at install time.  Resolves the
names only; installs nothing."""

import importlib

import pytest

from perfbench.trace import PATCHES


@pytest.mark.parametrize(
    "module,attr", [(m, a) for m, a, _name, _opts in PATCHES], ids=lambda v: v
)
def test_trace_target_exists(module, attr):
    """Resolved as ``install`` does: a ``Class.method`` target must be
    defined in that class's own body, since ``install`` reads it from the
    class ``__dict__`` (an inherited method would raise KeyError there)."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    fn = owner.__dict__[leaf] if path else getattr(owner, leaf)
    assert callable(fn)
