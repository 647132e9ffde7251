"""Command-line surface: scenario-driven curves, fits, presets, verification.

Subcommands
-----------
pdf      tabulate a branch or sum density to CSV
ber      compute a BER curve (mc | exact | foxh | mgf | asymptotic) to CSV
fit      extract (kappa1, kappa2) from a curve CSV
presets  list the shipped measurement presets
verify   run the oracle cross-check suite, printing PASS/FAIL per invariant

Scenario files are strict JSON: unknown keys are rejected with the offending
path, SNR is given in dB externally and converted to linear Upsilon = 10^(dB/10).
Outputs are byte-stable: identical inputs (including seed) produce identical
files, floats are serialized with 17 significant digits, and every `ber` run
writes a JSON sidecar with the scenario echo, library version, and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .ber_analytic import (
    ber_alpha_mu_gen_asymptote,
    ber_alpha_mu_gen_foxh,
    ber_alpha_mu_iid_asymptote,
    ber_exact_quadrature,
    ber_mg_asymptote,
    ber_mg_mgf,
)
from .channel_models import (
    AlphaMuA,
    AlphaMuB,
    LinkBudget,
    MixtureGamma,
    Scenario,
    alpha_mu_a_preset,
    alpha_mu_b_preset,
    branch_scale_nu,
    envelope_moment,
    envelope_pdf,
    list_presets,
    mg_preset,
    power_pdf,
)
from .diversity_fit import compare_to_theory, fit_power_law
from .errors import AccuracyError, DomainError, EvaluationError
from .mg_laplace import (
    SquaredMgSnr,
    laplace_exact_series,
    laplace_high_snr,
    laplace_numeric_oracle,
    snr_pdf_mg,
)
from .monte_carlo import _MIN_TRIALS, BerCurve, BerPoint, simulate_mrc_ber
from .sum_dist import (
    IidAlphaMuSum,
    iid_sum_power_pdf,
    inid_sum_power_pdf,
    solve_mixture_nodes,
    sum_power_pdf,
)

CSV_HEADER = "snr_db,upsilon,ber,se,method,kappa1,kappa2"

# Scenario size limits, checked before anything is allocated: the form-A
# series that `pdf` builds for identical branches grows its precision like
# L^alpha_bar (a build takes about 5 s at L = 8 and 75 s at L = 16).
_MAX_BRANCHES = 8
_MAX_GRID_POINTS = 10_000


class ScenarioError(ValueError):
    """Malformed scenario document; message carries the offending path."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# --- strict scenario parsing -------------------------------------------------

def _pop(d: dict, key: str, path: str, required: bool = False, default=None):
    if key in d:
        return d.pop(key)
    if required:
        raise ScenarioError(f"{path}: missing required field '{key}'")
    return default


def _reject_unknown(d: dict, path: str):
    if d:
        raise ScenarioError(f"{path}: unknown field(s) {sorted(d)}")


def _number(d: dict, key: str, path: str, required: bool = False,
            default=None, kind=float):
    """Pop a finite number (an integral one for ``kind=int``) at path.key."""
    value = _pop(d, key, path, required=required, default=default)
    try:
        number = float(value)
        if not math.isfinite(number) or (kind is int and not number.is_integer()):
            raise ValueError(value)
    except (TypeError, ValueError, OverflowError) as exc:
        expected = "an integer" if kind is int else "a finite number"
        raise ScenarioError(
            f"{path}.{key}: expected {expected}, got {value!r}") from exc
    if kind is int:
        return int(value) if isinstance(value, int) else int(number)
    return number


def _parse_branch(node, idx: int):
    path = f"branches[{idx}]"
    if not isinstance(node, dict):
        raise ScenarioError(f"{path}: expected an object")
    node = dict(node)
    copies = _number(node, "copies", path, default=1, kind=int)
    if copies < 1:
        raise ScenarioError(f"{path}: copies must be >= 1")
    preset = _pop(node, "preset", path)
    kind = _pop(node, "type", path)
    if preset is not None:
        family = list_presets().get(str(preset), {}).get("family")
        if family is None:
            raise ScenarioError(f"{path}.preset: unknown preset {preset!r}")
        kinds = (("mixture_gamma",) if family == "mixture_gamma"
                 else ("alpha_mu_a", "alpha_mu_b"))
        if kind is not None and kind not in kinds:
            raise ScenarioError(f"{path}.type: preset '{preset}' is {family}, "
                                f"so type must be one of {list(kinds)}, "
                                f"got {kind!r}")
        if family == "mixture_gamma":
            model = mg_preset(str(preset))
        elif kind == "alpha_mu_b":
            model = alpha_mu_b_preset(
                str(preset), x_mean=_number(node, "x_mean", path, default=1.0))
        else:
            model = alpha_mu_a_preset(
                str(preset), z_hat=_number(node, "z_hat", path, default=1.0))
        _reject_unknown(node, path)
        return model, copies
    if kind == "alpha_mu_a":
        model = AlphaMuA(alpha=_number(node, "alpha", path, required=True),
                         mu=_number(node, "mu", path, required=True),
                         z_hat=_number(node, "z_hat", path, default=1.0))
    elif kind == "alpha_mu_b":
        model = AlphaMuB(alpha=_number(node, "alpha", path, required=True),
                         mu=_number(node, "mu", path, required=True),
                         x_mean=_number(node, "x_mean", path, default=1.0))
    elif kind == "mixture_gamma":
        comps = _pop(node, "components", path, required=True)
        try:
            comps = tuple((float(w), float(b), float(z)) for w, b, z in comps)
            if not all(math.isfinite(v) for c in comps for v in c):
                raise ValueError(comps)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"{path}.components: expected a list of "
                                "[w, beta, zeta] finite numbers") from exc
        model = MixtureGamma(components=comps)
    else:
        raise ScenarioError(f"{path}: unknown branch type {kind!r}")
    _reject_unknown(node, path)
    return model, copies


def _parse_link(node) -> LinkBudget:
    if node is None:
        return LinkBudget()
    if not isinstance(node, dict):
        raise ScenarioError("link: expected an object")
    node = dict(node)
    kwargs = {}
    for key in ("f", "d", "kabs", "rho", "pt", "gt", "gr"):
        if key in node:
            kwargs[key] = _number(node, key, "link")
    if "normalized" in node:
        normalized = node.pop("normalized")
        if not isinstance(normalized, bool):
            raise ScenarioError("link.normalized: expected true or false, "
                                f"got {normalized!r}")
        kwargs["normalized"] = normalized
    _reject_unknown(node, "link")
    try:
        link = LinkBudget(**kwargs)
        nu = branch_scale_nu(link)
    except DomainError as exc:
        raise ScenarioError(f"link: {exc}") from exc
    if not 0.0 < nu < math.inf:
        raise ScenarioError(f"link: the amplitude scale nu = {nu:g} is not "
                            "a finite positive float")
    return link


def _parse_grid(node) -> tuple[float, ...]:
    if not isinstance(node, dict):
        raise ScenarioError("snr_db: expected {start, stop, step}")
    node = dict(node)
    start, stop, step = (_number(node, key, "snr_db", required=True)
                         for key in ("start", "stop", "step"))
    _reject_unknown(node, "snr_db")
    if step <= 0 or stop < start:
        raise ScenarioError("snr_db: needs step > 0 and stop >= start")
    span = (stop - start) / step
    if not math.isfinite(span) or round(span) >= _MAX_GRID_POINTS:
        raise ScenarioError(
            f"snr_db: the grid exceeds {_MAX_GRID_POINTS} points")
    count = int(round(span)) + 1
    try:
        grid = tuple(10.0 ** ((start + step * i) / 10.0) for i in range(count))
    except OverflowError:
        grid = (math.inf,)
    if not (grid[0] > 0.0 and grid[-1] < math.inf):
        raise ScenarioError("snr_db: Upsilon = 10^(dB/10) must be a finite "
                            f"positive float over [{start:g}, {stop:g}] dB")
    return grid


def load_scenario(path: str):
    """Parse a scenario file into (Scenario, mc settings dict, raw echo)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be an object")
    echo = json.loads(json.dumps(raw))
    doc = dict(raw)
    modulation = _pop(doc, "modulation", "scenario", default="bpsk")
    if modulation != "bpsk":
        raise ScenarioError(f"modulation: only 'bpsk' is supported, got {modulation!r}")
    g = _number(doc, "g", "scenario", default=0.5)
    link = _parse_link(_pop(doc, "link", "scenario"))
    branches_node = _pop(doc, "branches", "scenario", required=True)
    if not isinstance(branches_node, list) or not branches_node:
        raise ScenarioError("branches: expected a non-empty list")
    branches: list = []
    for i, b in enumerate(branches_node):
        model, copies = _parse_branch(b, i)
        if len(branches) + copies > _MAX_BRANCHES:
            raise ScenarioError(f"branches[{i}].copies: more than "
                                f"{_MAX_BRANCHES} branches in total")
        branches += [model] * copies
    grid = _parse_grid(_pop(doc, "snr_db", "scenario", required=True))
    mc_node = _pop(doc, "mc", "scenario", default={})
    if not isinstance(mc_node, dict):
        raise ScenarioError("mc: expected an object")
    mc_node = dict(mc_node)
    mc = {
        "trials": _number(mc_node, "trials", "mc", default=1_000_000, kind=int),
        "seed": _number(mc_node, "seed", "mc", default=0, kind=int),
        "method": _pop(mc_node, "method", "mc", default="conditional_q"),
    }
    if mc["trials"] < _MIN_TRIALS:
        raise ScenarioError(f"mc.trials: expected at least {_MIN_TRIALS}, "
                            f"got {mc['trials']}")
    if mc["seed"] < 0:
        raise ScenarioError("mc.seed: expected a non-negative integer, "
                            f"got {mc['seed']}")
    if mc["method"] not in ("conditional_q", "bit_level"):
        raise ScenarioError("mc.method: expected 'conditional_q' or "
                            f"'bit_level', got {mc['method']!r}")
    _reject_unknown(mc_node, "mc")
    _reject_unknown(doc, "scenario")
    try:
        scenario = Scenario(branches=tuple(branches), link=link, g=g,
                            snr_grid=grid)
    except DomainError as exc:
        raise ScenarioError(f"scenario: {exc}") from exc
    return scenario, mc, echo


# --- sum-density construction ------------------------------------------------

def _family(scenario: Scenario) -> str:
    """The branches' fading family, or "mixed"."""
    kinds = {type(b) for b in scenario.branches}
    if len(kinds) != 1:
        return "mixed"
    return {AlphaMuA: "alpha_mu_a", AlphaMuB: "alpha_mu_b",
            MixtureGamma: "mixture_gamma"}[kinds.pop()]


def _sum_density(scenario: Scenario):
    """Density of ||h||^2, from the closest form the branches allow."""
    fam, branches, nu = _family(scenario), scenario.branches, scenario.nu
    if fam == "alpha_mu_a" and len(set(branches)) == 1:
        s = IidAlphaMuSum.build(branches[0], nu, scenario.l_branches)
        return lambda y: iid_sum_power_pdf(s, y)
    if fam == "alpha_mu_b":
        nodes = solve_mixture_nodes(branches, nu)
        return lambda y: inid_sum_power_pdf(nodes, y)
    if scenario.l_branches == 1:
        return lambda y: power_pdf(branches[0], nu, y)
    return lambda y: sum_power_pdf(branches, nu, y)


# --- curve computation -------------------------------------------------------

def _compute_curve(scenario: Scenario, method: str, mc: dict) -> BerCurve:
    # Monte Carlo samples each branch on its own: no sum density, no family.
    if method == "mc":
        return simulate_mrc_ber(scenario, trials=mc["trials"], seed=mc["seed"],
                                method=mc["method"])
    grid = np.array(scenario.snr_grid)
    fam = _family(scenario)
    branches, nu, g = scenario.branches, scenario.nu, scenario.g
    meta: dict = {}
    law = None
    # The Craig-form MGF reads each branch's power density alone, so it
    # takes any mix of families; it is the exact route for all but form B,
    # which keeps the paper's Eq. 23 mixture.
    if method == "mgf" or (method == "exact" and fam != "alpha_mu_b"):
        bers = ber_mg_mgf(branches, nu, len(branches), grid, g=g)
    elif method in ("exact", "foxh") and fam == "alpha_mu_b":
        nodes = solve_mixture_nodes(branches, nu)
        meta.update(mixture_psi=nodes.psi, mixture_residual=nodes.residual)
        if method == "foxh":
            bers = np.minimum(ber_alpha_mu_gen_foxh(nodes, grid, g=g), 0.5)
        else:
            bers = ber_exact_quadrature(
                lambda y: inid_sum_power_pdf(nodes, y), grid, g=g,
                mean=sum(envelope_moment(b, nu, 2.0) for b in branches))
    elif method == "asymptotic" and fam in ("alpha_mu_a", "alpha_mu_b"):
        if fam == "alpha_mu_a" and len(set(branches)) == 1:
            bers, law = ber_alpha_mu_iid_asymptote(
                branches[0], nu, len(branches), grid, g=g)
        else:
            bers, law = ber_alpha_mu_gen_asymptote(branches, nu, grid, g=g)
    elif method == "asymptotic" and fam == "mixture_gamma":
        bers, law = ber_mg_asymptote(branches, nu, grid, g=g,
                                     dominant_only=True)
    else:
        raise ScenarioError(
            f"method {method!r} does not apply to {fam} branches")
    if law is not None:
        meta.update(kappa1=law.kappa1, kappa2=law.kappa2,
                    source=law.source.value)
        bers = np.minimum(bers, 1.0)
    points = tuple(BerPoint(float(u), float(p), 0.0, 1)
                   for u, p in zip(grid, bers))
    return BerCurve(points, seed=0, method=method, metadata=meta)


def write_curve_csv(curve: BerCurve, path: str):
    k1 = curve.metadata.get("kappa1")
    k2 = curve.metadata.get("kappa2")
    lines = [CSV_HEADER]
    for p in curve.points:
        snr_db = 10.0 * math.log10(p.upsilon)
        kc1 = _fmt(k1) if (k1 is not None and curve.method == "asymptotic") else ""
        kc2 = _fmt(k2) if (k2 is not None and curve.method == "asymptotic") else ""
        lines.append(",".join([
            _fmt(snr_db), _fmt(p.upsilon), _fmt(p.ber), _fmt(p.se),
            curve.method, kc1, kc2,
        ]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_curve_csv(path: str) -> BerCurve:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read curve file: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise ScenarioError(f"{path}: expected header '{CSV_HEADER}'")
    points = []
    method = "unknown"
    for ln in lines[1:]:
        cols = ln.split(",")
        if len(cols) != 7:
            raise ScenarioError(f"{path}: malformed row {ln!r}")
        _, u, ber, se, method, _, _ = cols
        try:
            points.append(BerPoint(float(u), float(ber), float(se), 1))
        except ValueError as exc:  # a non-numeric cell or a DomainError
            raise ScenarioError(f"{path}: row {ln!r}: {exc}") from exc
    return BerCurve(tuple(points), seed=0, method=method)


# --- subcommands -------------------------------------------------------------

def _cmd_pdf(args) -> int:
    scenario, _, _ = load_scenario(args.scenario)
    if args.envelope and args.branch is None:
        raise DomainError("--envelope: requires --branch")
    if args.branch is not None and not 0 <= args.branch < scenario.l_branches:
        raise DomainError(f"--branch: expected 0 <= branch < "
                          f"{scenario.l_branches}, got {args.branch}")
    if not 1 <= args.points <= _MAX_GRID_POINTS:
        raise DomainError(f"--points: expected 1 <= points <= "
                          f"{_MAX_GRID_POINTS}, got {args.points}")
    if not 0.0 <= args.ymin < args.ymax < math.inf:
        raise DomainError(f"--ymin/--ymax: expected finite 0 <= ymin < ymax, "
                          f"got {args.ymin!r} and {args.ymax!r}")
    if args.branch is not None:
        model = scenario.branches[args.branch]
        if args.envelope:
            pdf = lambda y: envelope_pdf(model, y)
        else:
            pdf = lambda y: power_pdf(model, scenario.nu, y)
    else:
        pdf = _sum_density(scenario)
    y = np.linspace(args.ymin, args.ymax, args.points)
    vals = pdf(y)
    lines = ["y,pdf"] + [f"{_fmt(a)},{_fmt(b)}" for a, b in zip(y, vals)]
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_ber(args) -> int:
    scenario, mc, echo = load_scenario(args.scenario)
    curve = _compute_curve(scenario, args.method, mc)
    write_curve_csv(curve, args.out)
    sidecar = {
        "scenario": echo,
        "method": args.method,
        "seed": curve.seed,
        "version": __version__,
        "metadata": {k: v for k, v in curve.metadata.items()},
    }
    with open(args.out + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({len(curve.points)} points, method={args.method})")
    return 0


def _cmd_fit(args) -> int:
    kappa2 = args.theory_kappa2
    if kappa2 is not None and not 0.0 < kappa2 < math.inf:
        raise DomainError("--theory-kappa2: expected a finite positive "
                          f"number, got {kappa2!r}")
    if not 0.0 <= args.tol < math.inf:
        raise DomainError("--tol: expected a finite number >= 0, "
                          f"got {args.tol!r}")
    curve = read_curve_csv(args.csv)
    window = None
    if args.window_lo is not None or args.window_hi is not None:
        if args.window_lo is None or args.window_hi is None:
            raise ScenarioError("--window-lo and --window-hi must be given together")
        window = (args.window_lo, args.window_hi)
    report = fit_power_law(curve, window=window)
    if kappa2 is not None:
        from .ber_analytic import AsymptoteLaw, AsymptoteSource
        theory = AsymptoteLaw(kappa1=1.0, kappa2=kappa2,
                              source=AsymptoteSource.FITTED)
        report = compare_to_theory(report, theory, tolerance=args.tol)
    out = {
        "kappa1": report.law.kappa1,
        "kappa2": report.law.kappa2,
        "r_squared": report.r_squared,
        "window": list(report.window),
        "excluded_zero_points": report.excluded_zero_points,
    }
    if report.relative_gap is not None:
        out["theory_kappa2"] = report.theory.kappa2
        out["relative_gap"] = report.relative_gap
        out["passed"] = report.passed
    _emit(args.out, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0 if report.passed is not False else 1


def _cmd_presets(args) -> int:
    _emit(args.out, json.dumps(list_presets(), indent=2, sort_keys=True) + "\n")
    return 0


def _check(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _cmd_verify(args) -> int:
    from scipy import integrate

    ok = True
    # Density normalization.
    model = alpha_mu_a_preset("indoor_1")
    mass, _ = integrate.quad(lambda y: power_pdf(model, 1.0, y), 0, np.inf)
    ok &= _check("alpha-mu power density normalizes", abs(mass - 1) < 1e-6,
                 f"mass={mass:.9f}")
    mg = mg_preset("mg_config1")
    mass, _ = integrate.quad(lambda y: envelope_pdf(mg, y), 0, np.inf, limit=200)
    ok &= _check("MG envelope density normalizes", abs(mass - 1) < 1e-6,
                 f"mass={mass:.9f}")

    # Fox-H route vs quadrature (form B, L=2).
    branches = [alpha_mu_b_preset("indoor_1")] * 2
    nodes = solve_mixture_nodes(branches, 1.0)
    u = 40.0
    p_h = ber_alpha_mu_gen_foxh(nodes, u)
    p_q = ber_exact_quadrature(lambda y: inid_sum_power_pdf(nodes, y), u, g=0.5)
    rel = abs(p_h - p_q) / p_q
    ok &= _check("Fox-H equals quadrature (form B, L=2)", rel < 1e-4,
                 f"rel={rel:.3e}")

    # Series vs Laplace inversion (form A, L=2) at a few points.
    a_model, ys = alpha_mu_a_preset("indoor_1"), np.linspace(0.2, 3.0, 9)
    series = iid_sum_power_pdf(IidAlphaMuSum.build(a_model, 1.0, 2), ys)
    sup = np.max(np.abs(series / sum_power_pdf([a_model] * 2, 1.0, ys) - 1))
    ok &= _check("series matches the Laplace inversion (form A, L=2)",
                 sup < 1e-6, f"sup rel={sup:.3e}")

    # Appendix-style Laplace: high-SNR vs numeric oracle.
    snr = SquaredMgSnr.from_model(mg, 1e6, 1.0)
    lap_h = float(laplace_high_snr(snr, 1.0))
    lap_n = laplace_numeric_oracle(lambda y: snr_pdf_mg(snr, y), 1.0)
    rel = abs(lap_h - lap_n) / lap_n
    ok &= _check("high-SNR Laplace within 1% at Upsilon=1e6", rel < 0.01,
                 f"rel={rel:.3e}")
    # Closed form vs numeric oracle where zeta / sqrt(Upsilon s) is about 15.
    snr = SquaredMgSnr.from_model(mg, 1e-4, 1.0)
    lap_c = laplace_exact_series(snr, 1.0)
    lap_n = laplace_numeric_oracle(lambda y: snr_pdf_mg(snr, y), 1.0)
    rel = abs(lap_c - lap_n) / lap_n
    ok &= _check("closed-form Laplace equals the numeric oracle at "
                 "Upsilon=1e-4", rel < 1e-6, f"rel={rel:.3e}")

    # MG i.n.i.d. diversity exponent (Configs 1+2).
    _, law = ber_mg_asymptote([mg_preset("mg_config1"), mg_preset("mg_config2")],
                              1.0, 1e6, dominant_only=True)
    expect = 0.5 * (min(mg_preset("mg_config1").shapes)
                    + min(mg_preset("mg_config2").shapes))
    ok &= _check("MG i.n.i.d. Configs 1+2 diversity exponent",
                 abs(law.kappa2 - expect) < 1e-9,
                 f"kappa2={law.kappa2:.9f}")
    return 0 if ok else 1


def _emit(path: str | None, text: str):
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process; each _cmd_* looks up its callees per call."""
    parser = argparse.ArgumentParser(
        prog="thzdiv",
        description="BER of MRC diversity receivers over THz fading channels")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pdf", help="tabulate a density to CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument("--branch", type=int, default=None,
                   help="branch index (default: the L-branch sum density)")
    p.add_argument("--envelope", action="store_true",
                   help="envelope density instead of power density")
    p.add_argument("--ymin", type=float, default=1e-3)
    p.add_argument("--ymax", type=float, default=10.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_pdf)

    p = sub.add_parser("ber", help="compute a BER curve to CSV (+JSON sidecar)")
    p.add_argument("--scenario", required=True)
    p.add_argument("--method", required=True,
                   choices=["mc", "exact", "foxh", "mgf", "asymptotic"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ber)

    p = sub.add_parser("fit", help="fit a power law to a curve CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--window-lo", type=float, default=None)
    p.add_argument("--window-hi", type=float, default=None)
    p.add_argument("--theory-kappa2", type=float, default=None)
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("presets", help="list shipped measurement presets")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_presets)

    p = sub.add_parser("verify", help="run the oracle cross-check suite")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except AccuracyError as exc:
        print(f"numeric accuracy failure: {exc}", file=sys.stderr)
        return 1
    except (DomainError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
