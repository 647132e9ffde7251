"""Each public name is declared once, in its module's __all__, and resolves."""

import importlib
import pkgutil

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
