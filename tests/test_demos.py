"""The demos and the README quickstart run end to end.

demos/cli_walkthrough.sh calls the ``thzdiv`` console script; the test puts a
shim that runs ``python -m thzdiv.cli`` on PATH, so no install is needed.
"""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_readme_python_blocks_run_in_order(capsys):
    # The quickstart's second block reuses the first block's names.
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert "diversity order:" in capsys.readouterr().out


@pytest.mark.parametrize("script,expect", [
    ("alpha_mu_diversity.py", "agreement within 5%: True"),
    ("mixture_gamma_asymptote.py", "analytic kappa2 = "),
])
def test_demo_runs(capsys, script, expect):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert expect in capsys.readouterr().out


def test_cli_walkthrough_runs(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "thzdiv"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m thzdiv.cli "$@"\n')
    shim.chmod(0o755)
    path = os.pathsep.join([str(bin_dir), os.environ["PATH"]])
    env = dict(os.environ, PATH=path, PYTHONPATH=str(ROOT / "src"),
               TMPDIR=str(tmp_path))
    proc = subprocess.run(["sh", str(DEMOS / "cli_walkthrough.sh")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert '"passed": true' in proc.stdout
    assert not any(ln.startswith("FAIL") for ln in proc.stdout.splitlines())
