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


FRESH_CURVES = """
import json, sys
from thzdiv import cli
loaded = ['mpmath' in sys.modules]
for scenario, out in zip(sys.argv[1::2], sys.argv[2::2]):
    assert cli.main(['ber', '--scenario', scenario, '--method', 'exact',
                     '--out', out]) == 0
    loaded.append('mpmath' in sys.modules)
print(json.dumps(loaded))
"""


def test_fresh_process_loads_mpmath_with_the_first_delta_series(tmp_path):
    from thzdiv import cli
    grid = {"start": 0.0, "stop": 20.0, "step": 10.0}
    scenarios = {
        "form_b": {"branches": [{"type": "alpha_mu_b", "preset": "indoor_1",
                                 "x_mean": x} for x in (0.8, 1.25)],
                   "snr_db": grid},
        "form_a": {"branches": [{"preset": "indoor_1", "copies": 2}],
                   "snr_db": grid},
    }
    args = []
    for name, scenario in scenarios.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scenario))
        args += [str(path), str(tmp_path / f"{name}-fresh.csv")]
    # Form B first: its mixture solve needs no mpmath, form A's series does.
    # cli.main reports each file it writes on stdout, before the flags.
    loaded = json.loads(_run_fresh(FRESH_CURVES, *args).splitlines()[-1])
    assert loaded == [False, False, True]
    for name in scenarios:
        here = tmp_path / f"{name}-here.csv"
        assert cli.main(["ber", "--scenario", str(tmp_path / f"{name}.json"),
                         "--method", "exact", "--out", str(here)]) == 0
        assert (tmp_path / f"{name}-fresh.csv").read_bytes() == \
            here.read_bytes()
