"""Every exported name resolves, and the package root re-exports the modules."""

import importlib
import inspect

import pytest

import wpmfre
import wpmfre.errors

MODULES = ["io", "lattice", "model", "optimize", "oracle", "simplify", "wpm"]

#: Exported by its module but kept off the package root.
MODULE_ONLY = {"decide_feasibility"}


@pytest.mark.parametrize("name", ["wpmfre"] + [f"wpmfre.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_root_exports_the_modules_and_the_errors():
    union = set()
    for name in MODULES:
        union |= set(importlib.import_module(f"wpmfre.{name}").__all__)
    errors = {
        name
        for name, obj in vars(wpmfre.errors).items()
        if inspect.isclass(obj) and issubclass(obj, wpmfre.WpmFreError)
    }
    assert MODULE_ONLY <= union
    assert set(wpmfre.__all__) == (union - MODULE_ONLY) | errors
