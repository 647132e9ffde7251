"""Each public name is declared once, in its module's __all__, and resolves."""

import importlib
import json
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


def _run_fresh(code: str, *args: str) -> str:
    src = str(Path(thzdiv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


def test_cli_import_skips_unused_scipy_modules():
    # scipy.optimize serves one Brent root, scipy.integrate a test oracle
    # and mpmath the form-A delta series; each is imported by the call that
    # uses it.  The Radau rule's eigenpairs come from numpy.
    code = ("import sys, thzdiv.cli; print(sorted(set(sys.modules) & "
            "{'scipy.optimize', 'scipy.integrate', 'scipy.linalg', "
            "'mpmath'}))")
    assert _run_fresh(code).strip() == "[]"


FRESH_MG_PDF = """
import json, sys
from thzdiv import cli
assert cli.main(['pdf', '--scenario', sys.argv[1], '--points', '20',
                 '--out', sys.argv[2]]) == 0
print(json.dumps(sorted(set(sys.modules) & {'scipy.integrate', 'mpmath'})))
"""


def test_fresh_mg_sum_density_loads_no_quadrature_library(tmp_path):
    # The MG sum density inverts Laplace transforms with the library's own
    # DE rule: neither QUADPACK nor mpmath.
    scenario = tmp_path / "mg.json"
    scenario.write_text(json.dumps({
        "branches": [{"preset": "mg_config1", "copies": 2}],
        "snr_db": {"start": 0.0, "stop": 10.0, "step": 10.0}}))
    out = _run_fresh(FRESH_MG_PDF, str(scenario), str(tmp_path / "pdf.csv"))
    assert json.loads(out.splitlines()[-1]) == []
    assert len((tmp_path / "pdf.csv").read_text().splitlines()) == 21


# The arguments each subcommand of the fresh-process run adds.
FRESH_ARGS = {"ber": ["--method", "exact"], "pdf": ["--points", "20"]}

FRESH_CURVES = f"""
import json, sys
from thzdiv import cli
loaded = []
for command, scenario, out in zip(*[iter(sys.argv[1:])] * 3):
    assert cli.main([command, *{FRESH_ARGS!r}[command], '--scenario',
                     scenario, '--out', out]) == 0
    loaded.append(sorted(set(sys.modules) & {{'mpmath', 'scipy.optimize'}}))
print(json.dumps(loaded))
"""


def test_fresh_ber_and_pdf_load_no_mpmath_and_form_b_pdf_no_optimize(
        tmp_path):
    # exact reads Laplace tables on form A and MG and the mixture on form
    # B, and pdf inverts the Laplace transform of every sum: no call builds
    # the delta series, so none loads mpmath.  Form B's pdf, run first,
    # solves no mixture, so it leaves scipy.optimize unloaded too.
    from thzdiv import cli
    grid = {"start": 0.0, "stop": 20.0, "step": 10.0}
    scenarios = {
        "form_b": {"branches": [{"type": "alpha_mu_b", "preset": "indoor_1",
                                 "x_mean": x} for x in (0.8, 1.25)],
                   "snr_db": grid},
        "form_a": {"branches": [{"preset": "indoor_1", "copies": 2}],
                   "snr_db": grid},
        "mg": {"branches": [{"preset": "mg_config1", "copies": 2}],
               "snr_db": grid},
    }
    for name, scenario in scenarios.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(scenario))
    runs = ([("pdf", name) for name in scenarios]
            + [("ber", name) for name in scenarios])
    args = []
    for command, name in runs:
        args += [command, str(tmp_path / f"{name}.json"),
                 str(tmp_path / f"{name}-{command}-fresh.csv")]
    # cli.main reports each file it writes on stdout, before the modules.
    loaded = json.loads(_run_fresh(FRESH_CURVES, *args).splitlines()[-1])
    assert len(loaded) == len(runs)
    assert loaded[0] == []
    assert all("mpmath" not in modules for modules in loaded)
    for command, name in runs:
        here = tmp_path / f"{name}-{command}-here.csv"
        assert cli.main([command, *FRESH_ARGS[command], "--scenario",
                         str(tmp_path / f"{name}.json"),
                         "--out", str(here)]) == 0
        assert (tmp_path / f"{name}-{command}-fresh.csv").read_bytes() == \
            here.read_bytes()


FRESH_PARSERS = """
import argparse, json, sys
built, init = [], argparse.ArgumentParser.__init__

def counted(self, *args, **kw):
    built.append(kw.get('prog'))
    init(self, *args, **kw)

argparse.ArgumentParser.__init__ = counted
from thzdiv import cli
counts = [len(built)]
for _ in range(2):
    assert cli.main(['presets', '--out', sys.argv[1]]) == 0
    counts.append(len(built))
print(json.dumps(counts))
"""


def test_cli_builds_its_parser_once_and_not_at_import(tmp_path):
    # Importing the CLI builds nothing; the first main() builds the parser
    # and its subparsers, and a second main() reuses them.
    out = _run_fresh(FRESH_PARSERS, str(tmp_path / "presets.json"))
    counts = json.loads(out.splitlines()[-1])
    assert counts[0] == 0 and counts[1] > 0 and counts[2] == counts[1]
