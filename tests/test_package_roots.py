"""The lazy package roots: every re-exported name resolves, on first
access, to the object its defining module holds, and importing a root
loads neither the simulator nor numpy."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOTS = ("repro", "repro.sim", "repro.core", "repro.workloads",
         "repro.experiments")

SRC = Path(__file__).resolve().parents[1] / "src"


def _exported(root: str):
    package = importlib.import_module(root)
    return [name for name in package.__all__ if name != "__version__"]


def _run(script: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("root", ROOTS)
class TestLazyRoot:
    def test_every_name_is_the_defining_modules_object(self, root):
        package = importlib.import_module(root)
        for name in _exported(root):
            module = importlib.import_module(package._EXPORTS[name])
            value = getattr(package, name)
            assert value is getattr(module, name), name
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == module.__name__, name

    def test_star_import_binds_every_name(self, root):
        namespace = {}
        exec(f"from {root} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(
            importlib.import_module(root).__all__)

    def test_dir_lists_every_name(self, root):
        listed = dir(importlib.import_module(root))
        assert [n for n in _exported(root) if n not in listed] == []

    def test_an_unknown_name_raises_attribute_error(self, root):
        package = importlib.import_module(root)
        with pytest.raises(AttributeError,
                           match=f"module '{root}' has no attribute "
                                 f"'no_such_name'"):
            getattr(package, "no_such_name")
        assert not hasattr(package, "no_such_name")


_IMPORT_EVERYTHING = """
import importlib, pkgutil, sys, types
roots = {roots!r}
for root in roots:
    package = importlib.import_module(root)
    for info in pkgutil.walk_packages(package.__path__, root + "."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
for root in roots:
    package = sys.modules[root]
    for name in package.__all__:
        assert not isinstance(getattr(package, name), types.ModuleType), (
            root, name)
print("ok")
"""


def test_names_stay_objects_after_every_submodule_is_imported():
    """Importing a submodule binds it on its package; a re-exported name
    that is also a submodule's name would then resolve to the module
    instead of the object."""
    assert _run(_IMPORT_EVERYTHING.format(roots=ROOTS)) == "ok\n"


def test_importing_every_root_loads_neither_numpy_nor_the_simulator():
    script = (f"import sys\nfor root in {ROOTS!r}: __import__(root)\n"
              "print(*sorted(m for m in sys.modules if m == 'numpy'"
              " or m.startswith(('numpy.', 'repro.sim.core',"
              " 'repro.workloads.trace'))))\n")
    assert _run(script).split() == []
