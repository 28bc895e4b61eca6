"""Meta-tests: documentation coverage of the public API.

Every public module of the library, and every class or function *defined*
in it, must carry a docstring — this is enforced, not aspirational.
(Methods inherit documentation from their class/base-class contract and
are not individually required.)
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

# The allocating oracles the golden tests compare against live beside
# them, outside the package; they stay documented too.
MODULES = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")] \
    + ["tests.reference", "tests.reference_agg"]


def _defined_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", None) == module.__name__:
                yield name, obj


@pytest.mark.parametrize("modname", MODULES)
def test_module_has_docstring(modname):
    module = importlib.import_module(modname)
    assert module.__doc__ and module.__doc__.strip(), modname


@pytest.mark.parametrize("modname", MODULES)
def test_defined_members_documented(modname):
    module = importlib.import_module(modname)
    undocumented = [f"{modname}.{name}"
                    for name, obj in _defined_members(module)
                    if not (obj.__doc__ and obj.__doc__.strip())]
    assert not undocumented, f"missing docstrings: {undocumented}"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name
