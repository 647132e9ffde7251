"""The Python demos run end to end and print their conclusions.

demos/cli_walkthrough.sh calls the installed ``thzdiv`` console script, so it
is not run here.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script,expect", [
    ("alpha_mu_diversity.py", "agreement within 5%: True"),
    ("mixture_gamma_asymptote.py", "analytic kappa2 = "),
])
def test_demo_runs(capsys, script, expect):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert expect in capsys.readouterr().out
