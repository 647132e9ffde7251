"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib
import pkgutil

import thzdiv


def test_every_export_resolves():
    modules = [thzdiv] + [importlib.import_module(f"thzdiv.{m.name}")
                          for m in pkgutil.iter_modules(thzdiv.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []
