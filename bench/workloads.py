"""Seeded scenario plans, and the correctness check of each kind of curve.

A *curve* is one scenario taken through every route its workload names, as
a user would run ``thzdiv ber`` (and ``thzdiv fit``) on it.  A *cycle* is a
fixed list of curve slots; a run executes whole cycles, so every run of a
workload measures the same mix whatever the seed draws inside each slot.
Why each workload exists and which layer it stresses is in README.md.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("amu_routes", "mg_mgf", "mc_both")

MC_TRIALS = 4_000_000  # four 1e6-trial chunks, two per worker thread
MC_METHODS = ("conditional_q", "bit_level")

# Relative x_mean profiles of the form-B curves (the x_means of acceptance
# criterion 4).  The mixture solve sees only normalised sum moments, which
# do not change when every x_mean is scaled, so the seed draws the scale: the
# BER curves differ from seed to seed while the solve, whose cost swings from
# 0.3 s to 13 s between unrelated x_mean draws, stays comparable from run to
# run.
FORM_B_PROFILES = {2: (0.8, 1.25), 3: (0.8, 1.0, 1.25),
                   4: (0.8, 0.9, 1.1, 1.25)}


@dataclass
class Curve:
    check: str        # which Checker method judges the curve
    index: int
    scenario: dict
    routes: list[str]  # `ber --method` values, or MC estimators if mc is set
    fit_theory: float | None = None   # kappa2 passed to `thzdiv fit`
    reuse_key: tuple | None = None    # inputs no later curve may repeat
    facts: dict = field(default_factory=dict)
    mc: dict | None = None            # trials and seed of an MC curve

    def path(self, workdir: str, name: str) -> str:
        return os.path.join(workdir, f"c{self.index:04d}-{name}")

    def scenario_files(self) -> dict[str, dict]:
        """Scenario documents by file name; one per estimator for MC."""
        if self.mc is None:
            return {"scenario.json": self.scenario}
        return {f"scenario-{r}.json": dict(self.scenario,
                                           mc=dict(self.mc, method=r))
                for r in self.routes}

    def argv_list(self, workdir: str) -> list[list[str]]:
        calls = []
        for r in self.routes:
            scn, method = (("scenario.json", r) if self.mc is None
                           else (f"scenario-{r}.json", "mc"))
            calls.append(["ber", "--scenario", self.path(workdir, scn),
                          "--method", method,
                          "--out", self.path(workdir, f"{r}.csv")])
        if self.fit_theory is not None:
            lo, hi = top_decade(10.0 ** (self.scenario["snr_db"]["stop"] / 10))
            calls.append(["fit", "--csv", self.path(workdir, "exact.csv"),
                          "--window-lo", repr(lo), "--window-hi", repr(hi),
                          "--theory-kappa2", repr(self.fit_theory),
                          "--tol", "0.05",
                          "--out", self.path(workdir, "fit.json")])
        return calls


def top_decade(upsilon_max: float) -> tuple[float, float]:
    """The fit window [max/10, max], widened by 1e-9 on each side.

    fit's default window is the same decade, but 10**(db/10) rounding can
    put the decade's lower grid point just below max/10 and drop it.
    """
    return upsilon_max / 10.0 * (1.0 - 1e-9), upsilon_max * (1.0 + 1e-9)


def _grid(start: float, stop: float, step: float) -> dict:
    return {"start": start, "stop": stop, "step": step}


def _form_b_xmeans(rng, L: int, lo: float, hi: float) -> list[float]:
    scale = rng.uniform(lo, hi)
    return [float(scale * x) for x in FORM_B_PROFILES[L]]


def _amu_routes(rng, presets, run_state):
    # One form-A i.i.d. curve (the series build) and form-B i.n.i.d. curves
    # at L = 2, 3, 3, 4 (the mixture solve).  Form A: indoor_1 at L=2, the
    # cheaper of the two presets' builds; z_hat near 3 puts BER below 1e-6
    # inside the -5..25 dB grid, and a fresh z_hat per curve keeps the
    # in-process series cache from serving a later curve.  Form B: a curve
    # costs about 5, 7.5 and 10.5 s at L = 2, 3, 4, so the cycle's median
    # falls on one of its two L=3 curves.  Even at a fixed profile the
    # solve's cost drifts by about 20 % across scales in [0.6, 1.6]; within
    # [0.9, 1.1] it holds to about 5 %.
    preset, L = "indoor_1", 2
    alpha, mu = presets[preset]
    z_hat = float(rng.uniform(2.75, 3.25))
    yield dict(
        check="form_a",
        scenario={"branches": [{"type": "alpha_mu_a", "preset": preset,
                                "z_hat": z_hat, "copies": L}],
                  "g": 0.5, "snr_db": _grid(-5.0, 25.0, 5.0)},
        routes=["exact", "asymptotic"],
        fit_theory=alpha * mu * L / 2.0,
        reuse_key=("A", preset, z_hat, L))
    for L in (2, 3, 3, 4):
        xs = _form_b_xmeans(rng, L, 0.9, 1.1)
        yield dict(
            check="form_b",
            scenario={"branches": [{"type": "alpha_mu_b",
                                    "preset": "indoor_1", "x_mean": x}
                                   for x in xs],
                      "g": 0.5, "snr_db": _grid(-5.0, 30.0, 5.0)},
            routes=["foxh", "exact", "asymptotic"],
            reuse_key=("B", "indoor_1", tuple(xs)))


def _mg_mgf(rng, presets, run_state):
    # Same-model i.i.d. branches share one Laplace table inside ber_mg_mgf,
    # so an i.i.d. curve costs the same at L=2 and L=3; the i.n.i.d. curve
    # pays once per distinct branch.  Configs 3-4 cost more than 1-2 (5.3
    # against 3.9 s a curve at L=2), so every cycle holds all four i.i.d.
    # and an i.n.i.d. pair of one config of each kind.
    slots = [([f"mg_config{k}"], int(rng.integers(2, 4))) for k in (1, 2, 3, 4)]
    slots.append(([f"mg_config{rng.integers(1, 3)}",
                   f"mg_config{rng.integers(3, 5)}"], 1))
    for names, copies in slots:
        yield dict(
            check="mg",
            scenario={"branches": [{"preset": n, "copies": copies}
                                   for n in names],
                      "g": 1.0, "snr_db": _grid(-40.0, 10.0, 5.0)},
            routes=["mgf"])


def _mc_both(rng, presets, run_state):
    # One curve runs both estimators on one scenario, so the two kinds of
    # curve cost about the same.  One form-B and one MG scenario per run,
    # every cycle with a fresh trial seed: Monte Carlo caches nothing, and
    # the references are computed once.  Grids keep BER above ~3e-5, so each
    # bit-level point sees >= 100 errors at 4e6 trials; the MG grid starts at
    # -30 dB, where the MGF reference needs no quadrature fallback.
    if "scenarios" not in run_state:
        xs = _form_b_xmeans(rng, 3, 0.8, 1.25)
        c, d = sorted(rng.choice(np.arange(1, 5), size=2, replace=False))
        run_state["scenarios"] = (
            ("B", {"branches": [{"type": "alpha_mu_b", "preset": "indoor_2",
                                 "x_mean": x} for x in xs],
                   "g": 0.5, "snr_db": _grid(-10.0, 11.0, 3.0)}),
            ("MG", {"branches": [{"preset": f"mg_config{c}"},
                                 {"preset": f"mg_config{d}"}],
                    "g": 1.0, "snr_db": _grid(-30.0, -19.5, 1.5)}))
    for family, scn in run_state["scenarios"]:
        seed = int(rng.integers(0, 2**31 - 1))
        yield dict(
            check="mc", scenario=scn, routes=list(MC_METHODS),
            mc={"trials": MC_TRIALS, "seed": seed},
            reuse_key=(family, json.dumps(scn, sort_keys=True), seed),
            facts={"family": family})


_GENERATORS = {"amu_routes": _amu_routes, "mg_mgf": _mg_mgf,
               "mc_both": _mc_both}


def make_plan(workload: str, seed: int, workdir: str, cycles: int,
              presets: dict) -> list[list[Curve]]:
    """Write the scenario files of ``cycles`` cycles; same seed, same files."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    plan, index, run_state = [], 0, {}
    for _ in range(cycles):
        cycle = []
        for spec in _GENERATORS[workload](rng, presets, run_state):
            curve = Curve(index=index, **spec)
            for name, doc in curve.scenario_files().items():
                with open(curve.path(workdir, name), "w") as fh:
                    json.dump(doc, fh)
            cycle.append(curve)
            index += 1
        plan.append(cycle)
    if workload == "mc_both" and plan:
        # Worker-count independence is checked once per run per estimator.
        for curve, method in zip(plan[0], MC_METHODS):
            curve.facts["determinism"] = method
    return plan


# --- checks ------------------------------------------------------------------

class Checker:
    """Correctness checks, run after the timed loop with tracing off.

    Each check returns (ok, detail, points).  Monte Carlo references are
    cached per scenario, since every cycle reuses the run's two scenarios.
    """

    def __init__(self, thzdiv_modules):
        (self.cli, self.sum_dist, self.ber_analytic, self.channel_models,
         self.diversity_fit) = thzdiv_modules
        self._refs: dict[str, np.ndarray] = {}
        self.mc_z: list[float] = []

    def read(self, curve: Curve, workdir: str, route: str):
        return self.cli.read_curve_csv(curve.path(workdir, f"{route}.csv"))

    def check(self, curve: Curve, workdir: str) -> tuple[bool, str, int]:
        return getattr(self, "_check_" + curve.check)(curve, workdir)

    @staticmethod
    def _is_ber_curve(bers) -> bool:
        return bool(np.all((bers > 0.0) & (bers <= 0.5))
                    and np.all(np.diff(bers) < 0.0))

    @staticmethod
    def _non_increasing_positive(vals) -> bool:
        return bool(np.all(vals > 0.0) and np.all(np.diff(vals) <= 0.0))

    def _fit_gap(self, curve, theory: float) -> float:
        window = top_decade(float(curve.upsilons.max()))
        report = self.diversity_fit.fit_power_law(curve, window=window)
        return abs(report.law.kappa2 - theory) / theory

    def _check_form_a(self, curve, workdir):
        exact = self.read(curve, workdir, "exact")
        asym = self.read(curve, workdir, "asymptotic")
        bers, lims = exact.bers, asym.bers
        if not self._is_ber_curve(bers):
            return False, "exact BER not in (0, 1/2] and decreasing", 0
        if not self._non_increasing_positive(lims):
            return False, "asymptote not positive and non-increasing", 0
        below = np.nonzero(bers < 1e-6)[0]
        if below.size == 0:
            return False, "exact curve never falls below BER 1e-6", 0
        ratio = lims[below[0]] / bers[below[0]]
        if not 0.85 <= ratio <= 1.15:
            return False, f"asymptote/exact = {ratio:.4f} at first BER<1e-6", 0
        with open(curve.path(workdir, "fit.json")) as fh:
            fit_out = json.load(fh)
        gap = self._fit_gap(exact, curve.fit_theory)
        if not (fit_out.get("passed") and gap <= 0.05):
            return False, f"top-decade kappa2 gap {gap:.4f} > 0.05", 0
        return True, f"ratio {ratio:.4f}, kappa2 gap {gap:.2e}", \
            len(bers) + len(lims)

    def _mg_branches(self, curve):
        out = []
        for b in curve.scenario["branches"]:
            out += [self.channel_models.mg_preset(b["preset"])] * b.get(
                "copies", 1)
        return out

    def _check_mg(self, curve, workdir):
        mgf = self.read(curve, workdir, "mgf")
        bers = mgf.bers
        if not self._is_ber_curve(bers):
            return False, "mgf BER not in (0, 1/2] and decreasing", 0
        _, law = self.ber_analytic.ber_mg_asymptote(
            self._mg_branches(curve), 1.0, 1.0, g=1.0, dominant_only=True)
        gap = self._fit_gap(mgf, law.kappa2)
        if gap > 0.05:
            return False, f"top-decade kappa2 gap {gap:.4f} > 0.05", 0
        return True, f"kappa2 gap {gap:.4f}", len(bers)

    def _check_form_b(self, curve, workdir):
        foxh = self.read(curve, workdir, "foxh").bers
        exact = self.read(curve, workdir, "exact").bers
        asym = self.read(curve, workdir, "asymptotic").bers
        if not self._is_ber_curve(exact):
            return False, "exact BER not in (0, 1/2] and decreasing", 0
        if not self._non_increasing_positive(asym):
            return False, "asymptote not positive and non-increasing", 0
        worst = float(np.max(np.abs(foxh - exact) / exact))
        if worst > 1e-4:
            return False, f"foxh vs exact rel {worst:.2e} > 1e-4", 0
        return True, f"foxh vs exact rel {worst:.1e}", 3 * len(exact)

    def _reference(self, curve) -> np.ndarray:
        scn = curve.scenario
        key = json.dumps(scn, sort_keys=True)
        if key not in self._refs:
            cm, ba = self.channel_models, self.ber_analytic
            db = np.arange(scn["snr_db"]["start"],
                           scn["snr_db"]["stop"] + 1e-9, scn["snr_db"]["step"])
            ups = 10.0 ** (db / 10.0)
            if curve.facts["family"] == "B":
                branches = [cm.alpha_mu_b_preset(b["preset"], x_mean=b["x_mean"])
                            for b in scn["branches"]]
                nodes = self.sum_dist.solve_mixture_nodes(branches, 1.0)
                ref = [ba.ber_alpha_mu_gen_foxh(nodes, u) for u in ups]
            else:
                branches = self._mg_branches(curve)
                ref = [ba.ber_mg_mgf(branches, 1.0, len(branches), u, g=1.0)
                       for u in ups]
            self._refs[key] = np.array(ref)
        return self._refs[key]

    def _check_mc(self, curve, workdir):
        ref = self._reference(curve)
        worst = 0.0
        for method in curve.routes:
            mc = self.read(curve, workdir, method)
            if not np.all((mc.bers > 0.0) & (mc.bers <= 0.5) & (mc.ses > 0.0)):
                return False, f"{method} BER not in (0, 1/2] with SE > 0", 0
            z = np.abs(mc.bers - ref) / mc.ses
            self.mc_z.extend(z.tolist())
            worst = max(worst, float(np.max(z)))
        # A 3-SE miss is a 0.27% event per point, so it is judged over the
        # whole run (finish_run); a single point 6 SE off is a defect.
        if worst > 6.0:
            return False, f"MC {worst:.1f} SE from the reference", 0
        method = curve.facts.get("determinism")
        if method and not self._same_bytes_one_worker(curve, workdir, method):
            return False, f"{method} CSV differs between 1 and 2 workers", 0
        return True, f"max {worst:.2f} SE", len(ref) * len(curve.routes)

    def _same_bytes_one_worker(self, curve, workdir, method) -> bool:
        out = curve.path(workdir, f"{method}-1worker.csv")
        argv = ["ber", "--scenario",
                curve.path(workdir, f"scenario-{method}.json"),
                "--method", "mc", "--out", out]
        before = os.environ.get("THZDIV_MAX_WORKERS")
        os.environ["THZDIV_MAX_WORKERS"] = "1"
        try:
            rc = self.cli.main(argv)
        finally:
            if before is None:
                del os.environ["THZDIV_MAX_WORKERS"]
            else:
                os.environ["THZDIV_MAX_WORKERS"] = before
        with open(out, "rb") as a, open(curve.path(workdir, f"{method}.csv"),
                                        "rb") as b:
            return rc == 0 and a.read() == b.read()

    def finish_run(self) -> tuple[bool, str]:
        """Run-level Monte Carlo criterion: >= 95% of points within 3 SE."""
        if not self.mc_z:
            return True, ""
        frac = float(np.mean(np.array(self.mc_z) <= 3.0))
        return frac >= 0.95, f"{100 * frac:.1f}% of {len(self.mc_z)} MC " \
                             "points within 3 SE"


def perturb_last_ber(path: str):
    """Double the BER of a curve CSV's last row (the self-test's fault)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    cols = lines[-1].split(",")
    cols[2] = repr(float(cols[2]) * 2.0)
    lines[-1] = ",".join(cols)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def tail_percentile(times: list[float]):
    """Highest percentile with at least ten curves beyond it, or None."""
    n = len(times)
    if n < 20:
        return None
    ordered = sorted(times)
    return 100.0 * (n - 10) / n, ordered[n - 11]

