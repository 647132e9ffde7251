"""One workload in one fresh process: set up, run whole cycles, check.

Started by run.py; not meant to be run by hand.  The process notes the
``ready`` instant (``time.monotonic()``) once thzdiv is imported and the
scenarios are written (the end of set-up), runs curves through
``thzdiv.cli.main`` in-process, then checks every curve with tracing off and
writes its results, ``ready`` among them, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import thzdiv.cli as cli  # noqa: E402  (set-up cost is part of the metric)
from thzdiv import (ber_analytic, channel_models, diversity_fit,  # noqa: E402
                    errors, mg_laplace, monte_carlo, sum_dist)

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MAX_CYCLES = 64


def run_curve(curve, workdir, tracer):
    """Time every call of one curve; return (seconds, failure or None)."""
    failure = None
    t0 = time.perf_counter()
    for argv in curve.argv_list(workdir):
        rec = tracer.open("cli.main") if tracer else None
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit):
            rc = None
            failure = traceback.format_exc(limit=3).strip().splitlines()[-1]
        finally:
            if rec is not None:
                tracer.close(rec)
        if rc != 0:
            failure = failure or f"`thzdiv {argv[0]}` returned {rc}"
            break
    return time.perf_counter() - t0, failure


def check_curves(done, workdir) -> tuple[list[dict], str]:
    """Check every timed curve; a curve that raised is not checked."""
    checker = workloads.Checker((cli, sum_dist, ber_analytic, channel_models,
                                 diversity_fit))
    curves = []
    for curve, secs, failure in done:
        points, detail = 0, failure
        if failure is None:
            try:
                ok, detail, points = checker.check(curve, workdir)
            except Exception as exc:  # malformed output fails the curve
                ok, detail = False, f"check raised {exc!r}"
            if not ok:
                failure = detail
        curves.append({"index": curve.index, "seconds": secs,
                       "points": points if failure is None else 0,
                       "failure": failure, "detail": detail,
                       "facts": curve.facts})
    run_ok, run_detail = checker.finish_run()
    if not run_ok:
        for c in curves:
            if c["facts"].get("family") and c["failure"] is None:
                c["failure"], c["points"] = run_detail, 0
    return curves, run_detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--cycles", type=int, default=0,
                   help="run exactly this many cycles instead of --seconds")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    args = p.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    try:
        plan = workloads.make_plan(args.workload, args.seed, args.workdir,
                                   args.cycles or MAX_CYCLES,
                                   channel_models.ALPHA_MU_PRESETS)
        ready = time.monotonic()
        result = {} if args.setup_only else _run(args, plan)
        result["ready"] = ready
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def _run(args, plan) -> dict:
    tracer = Tracer() if args.trace else None
    if tracer:
        layers.install(tracer, (cli, sum_dist, ber_analytic, mg_laplace,
                                monte_carlo, errors))
    seen: set = set()
    done = []  # (curve, seconds, failure)
    elapsed = 0.0
    try:
        for cycle in plan:
            if args.cycles == 0 and done and elapsed >= args.seconds:
                break
            for curve in cycle:
                if curve.reuse_key is not None:
                    if curve.reuse_key in seen:
                        raise RuntimeError(
                            f"curve {curve.index} reuses alpha-mu parameters "
                            f"{curve.reuse_key} in one process")
                    seen.add(curve.reuse_key)
                if tracer:
                    tracer.curve = curve.index
                secs, failure = run_curve(curve, args.workdir, tracer)
                elapsed += secs
                done.append((curve, secs, failure))
    finally:
        if tracer:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    curves, run_detail = check_curves(done, args.workdir)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "cycles": len(done) // max(len(plan[0]), 1),
        "curves": curves,
        "run_check": run_detail,
        "peak_rss_mb": peak_rss_mb,
        "mc_trials": sum(workloads.MC_TRIALS * len(workloads.MC_METHODS)
                         for c in curves if c["facts"].get("family")),
        "workers": os.environ.get("THZDIV_MAX_WORKERS"),
    }
    if tracer:
        metrics, ranking = layers.layer_metrics(tracer.summary())
        result["layers"] = metrics
        result["self_ranking"] = ranking
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.dump(), fh)
    return result


if __name__ == "__main__":
    sys.exit(main())
