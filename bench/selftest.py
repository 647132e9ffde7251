"""Self-test: a perturbed BER must be counted as a failed curve.

    python3 bench/selftest.py

For each kind of check, it runs the first curve of cycle 0 that the check
judges through the same runner and checks as the benchmark, requires it to
pass, doubles the last BER of the curve's first output CSV, checks again and
requires the curve to be counted as failed.  Exits 0 when every check
behaves so.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

os.environ.setdefault("THZDIV_MAX_WORKERS", str(min(2, os.cpu_count() or 1)))

import worker  # noqa: E402  (puts the library on sys.path)
import workloads  # noqa: E402


def selftest(workload: str, curve, workdir: str) -> bool:
    secs, failure = worker.run_curve(curve, workdir, None)
    done = [(curve, secs, failure)]
    clean, _ = worker.check_curves(done, workdir)
    workloads.perturb_last_ber(curve.path(workdir, f"{curve.routes[0]}.csv"))
    perturbed, _ = worker.check_curves(done, workdir)
    ok = clean[0]["failure"] is None and perturbed[0]["failure"] is not None
    print(f"{'PASS' if ok else 'FAIL'} {workload} ({curve.check}): clean -> "
          f"{clean[0]['failure'] or 'passed'}; perturbed -> "
          f"{perturbed[0]['failure'] or 'passed'}", flush=True)
    return ok


def main() -> int:
    out = Path(__file__).resolve().parent / "out"
    results = []
    for w in workloads.WORKLOADS:
        workdir = out / f"selftest-{os.getpid()}-{w}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            plan = workloads.make_plan(w, 0, str(workdir), 1,
                                       worker.channel_models.ALPHA_MU_PRESETS)
            firsts = {}
            for curve in plan[0]:
                firsts.setdefault(curve.check, curve)
            results += [selftest(w, c, str(workdir)) for c in firsts.values()]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
