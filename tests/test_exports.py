"""Each public name is declared once, in its module's __all__, and resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import thzdiv

MODULES = [importlib.import_module(f"thzdiv.{m.name}")
           for m in pkgutil.iter_modules(thzdiv.__path__)]
LIBRARY = [mod for mod in MODULES if mod.__name__ != "thzdiv.cli"]


def test_every_export_resolves():
    missing = [f"{mod.__name__}.{name}" for mod in [thzdiv] + MODULES
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


def test_every_library_module_declares_its_public_names():
    assert [mod.__name__ for mod in LIBRARY
            if not hasattr(mod, "__all__")] == []


def test_package_exports_exactly_the_module_lists():
    names = ["__version__"] + [name for mod in LIBRARY for name in mod.__all__]
    assert len(set(thzdiv.__all__)) == len(thzdiv.__all__)
    assert sorted(thzdiv.__all__) == sorted(names)


def test_cli_import_skips_unused_scipy_modules():
    # scipy.optimize serves one Brent root and scipy.integrate a test
    # oracle; each is imported by the call that uses it.
    code = ("import sys, thzdiv.cli; print(sorted(set(sys.modules) & "
            "{'scipy.optimize', 'scipy.integrate'}))")
    src = str(Path(thzdiv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
