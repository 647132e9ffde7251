"""thzdiv benchmark: wall time to checked BER curves, route by route.

    python3 bench/run.py --workload mg_mgf --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout (the library is imported from
``src``).  Every workload runs in a fresh worker process (worker.py), so
peak memory, import time and the library's in-process caches never leak
between workloads.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same curves untraced and then traced, each in its own
process, and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object; the lines before it name
every metric with its unit, plus the figures that are not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 2       # extra fresh processes timed to set-up, besides the run
RUN_LIMIT_S = 170.0    # each workload must end within 180 s


class BenchError(RuntimeError):
    pass


def declared_units(kind: str) -> dict:
    """Units by metric name, from BENCHMARK.json's ``end_to_end`` or
    ``per_layer`` list: the one place a metric's unit is declared."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _worker_env() -> dict:
    env = dict(os.environ)
    env["THZDIV_MAX_WORKERS"] = str(min(2, os.cpu_count() or 1))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run_worker(workload, seed, deadline, tag, extra) -> dict:
    """Run worker.py to its end; return its result with ``setup_s`` added.

    Set-up time runs from the spawn to the ``ready`` instant the worker
    records in its result; both read ``time.monotonic()``, which on Linux is
    one clock for every process.
    """
    result = OUT / f"{workload}-{os.getpid()}-{tag}.result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed),
           "--workdir", str(OUT / f"work-{os.getpid()}-{tag}"),
           "--result", str(result)] + extra
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(),
                              capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0))
        if proc.returncode != 0:
            raise BenchError(f"worker failed (exit {proc.returncode}):\n"
                             f"{proc.stderr}")
        with open(result) as fh:
            res = json.load(fh)
    except subprocess.TimeoutExpired:
        raise BenchError("worker overran the run's time limit")
    finally:
        result.unlink(missing_ok=True)
    res["setup_s"] = res["ready"] - t0
    return res


def _counts(*results) -> tuple[int, int]:
    curves = [c for r in results for c in r["curves"]]
    return len(curves), sum(1 for c in curves if c["failure"] is not None)


def _report_failures(res: dict):
    for c in res["curves"]:
        if c["failure"] is not None:
            print(f"  FAILED curve {c['index']}: {c['failure']}")
    if res.get("run_check"):
        print(f"  run check: {res['run_check']}")


def end_to_end(workload, seed, seconds, deadline, units) -> tuple[dict, dict]:
    setups = [_run_worker(workload, seed, deadline, f"probe{i}",
                          ["--setup-only"])["setup_s"]
              for i in range(SETUP_PROBES)]
    res = _run_worker(workload, seed, deadline, "run",
                      ["--seconds", str(seconds)])
    setups.append(res["setup_s"])
    times = [c["seconds"] for c in res["curves"]]
    points = sum(c["points"] for c in res["curves"])
    metrics = {
        "setup_s": statistics.median(setups),
        "curve_s_p50": statistics.median(times),
        "points_per_s": points / sum(times),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    attempted, failed = _counts(res)
    print(f"workload {workload}: seed {seed}, {res['cycles']} cycle(s), "
          f"{attempted} curves, {points} checked BER points")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:12.6g} {units[name]}")
    print(f"  {'fail_frac':<16} {failed / attempted:12.6g} ratio "
          f"({failed}/{attempted} curves)")
    tail = workloads.tail_percentile(times)
    print(f"  {'curve_s_tail':<16} " + (
        f"{tail[1]:12.6g} s (p{tail[0]:.0f} of {len(times)} curves)" if tail
        else f"{'n/a':>12} (needs >= 20 curves, run has {len(times)})"))
    if res["mc_trials"]:
        print(f"  {'mc_trials_per_s':<16} {res['mc_trials'] / sum(times):12.6g}"
              " 1/s")
    print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"  curve times (s): {', '.join(f'{t:.4f}' for t in times)}")
    _report_failures(res)
    return metrics, res


def traced(workload, seed, seconds, deadline,
           units) -> tuple[dict, dict, dict]:
    plain = _run_worker(workload, seed, deadline, "plain",
                        ["--seconds", str(seconds)])
    spans = OUT / f"trace-{workload}.json"
    res = _run_worker(workload, seed, deadline, "traced",
                      ["--cycles", str(plain["cycles"]), "--trace",
                       "--spans", str(spans)])
    metrics = dict(res["layers"])
    metrics["trace.overhead_frac"] = (
        sum(c["seconds"] for c in res["curves"])
        / sum(c["seconds"] for c in plain["curves"]) - 1.0)
    print(f"workload {workload}: seed {seed}, {plain['cycles']} cycle(s) "
          f"untraced then traced; spans in {spans.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:14.6g} {units[name]}")
    ranking = sorted(res["self_ranking"].items(), key=lambda kv: -kv[1])
    named = layers.NAMED_GROUP[workload]
    print(f"  largest self time: {ranking[0][0]} ({ranking[0][1]:.3f} s); "
          f"expected {named}: "
          f"{'yes' if ranking[0][0] == named else 'NO'}")
    for group, secs in ranking[:5]:
        print(f"    {group:<34} {secs:10.4f} s self")
    _report_failures(res)
    return metrics, plain, res


def provenance(workload, seed) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import mpmath
    import numpy
    import scipy
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "commit": _git_commit(),
            "mc_workers": _worker_env()["THZDIV_MAX_WORKERS"]}


def _git_commit() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (no git)"
    lines = head.stdout.splitlines()
    # A checkout that is not a repository may still sit inside another one.
    if (head.returncode != 0 or dirty.returncode != 0 or len(lines) != 2
            or Path(lines[0]).resolve() != ROOT):
        return "unknown (not a git checkout)"
    return lines[1] + (" (dirty)" if dirty.stdout.strip() else "")


def run_one(workload, seed, seconds, trace, deadline) -> dict:
    print("provenance: " + json.dumps(provenance(workload, seed)))
    units = declared_units("per_layer" if trace else "end_to_end")
    if trace:
        metrics, plain, res = traced(workload, seed, seconds, deadline, units)
        attempted, failed = _counts(plain, res)
    else:
        metrics, res = end_to_end(workload, seed, seconds, deadline, units)
        attempted, failed = _counts(res)
    if set(metrics) != set(units):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "thzdiv" / "__init__.py").is_file() or not (
            ROOT / "BENCHMARK.json").is_file():
        print(f"error: no thzdiv sources under {ROOT / 'src'} or no "
              "BENCHMARK.json; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = run_one(name, args.seed, args.seconds,
                                    args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
