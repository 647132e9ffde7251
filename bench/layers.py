"""Where the traced run wraps thzdiv, and the per-layer metrics it derives.

Each entry names the module whose attribute is replaced: the module that
*calls* the function, since ``from .x import f`` binds ``f`` in the caller.
Span and leaf names are ``<defining module>.<short name>``.
"""

from __future__ import annotations

import os

import numpy as np

# Span names whose self time the ranking adds into one group; every other
# span name is a group of its own.  The oracle group holds the density
# evaluations it integrates, the sampling group the chunk loop, the envelope
# draws and the vectorised Q-function.
GROUPS = {
    "mg_laplace.oracle": ["mg_laplace.oracle", "mg_laplace.snr_pdf"],
    "monte_carlo.sampling+specfun.q": ["monte_carlo.chunk",
                                       "monte_carlo.sample", "specfun.q"],
    "cli": ["cli.main", "cli.parse", "cli.write"],
}

# The group each workload is expected to spend most self time in.
NAMED_GROUP = {
    "mg_mgf": "mg_laplace.oracle",
    "amu_routes": "sum_dist.mixture",
    "mc_both": "monte_carlo.sampling+specfun.q",
}


def install(tracer, thzdiv_modules):
    """Wrap every layer boundary the CLI path crosses."""
    cli, sum_dist, ber_analytic, mg_laplace, monte_carlo, errors = (
        thzdiv_modules)
    span, leaf, patch = tracer.span, tracer.leaf, tracer.patch

    def mixture_attrs(nodes):
        return {"psi": nodes.psi, "residual": nodes.residual}

    def sim_attrs(args, kwargs):
        return {"method": kwargs.get("method", "conditional_q"),
                "trials": kwargs["trials"]}

    def sim_result(curve):
        return {"n_chunks": curve.metadata["n_chunks"]}

    def q_elems(args, kwargs):
        return {"elems": int(np.size(args[0]))}

    patch(cli, "load_scenario", lambda f: span("cli.parse", f))
    patch(cli, "read_curve_csv", lambda f: span("cli.parse", f))
    patch(cli, "write_curve_csv", lambda f: span("cli.write", f))
    patch(sum_dist.IidAlphaMuSum, "build",
          lambda f: span("sum_dist.build", f))
    patch(cli, "iid_sum_power_pdf", lambda f: leaf("sum_dist.iid_pdf", f))
    patch(cli, "solve_mixture_nodes",
          lambda f: span("sum_dist.mixture", f, on_result=mixture_attrs))
    patch(cli, "inid_sum_power_pdf", lambda f: leaf("sum_dist.inid_pdf", f))
    patch(cli, "ber_exact_quadrature", lambda f: span("ber_analytic.quad", f))
    patch(cli, "ber_alpha_mu_gen_foxh", lambda f: span("ber_analytic.foxh", f))
    patch(cli, "ber_mg_mgf", lambda f: span("ber_analytic.mgf", f))
    for name in ("ber_alpha_mu_iid_asymptote", "ber_alpha_mu_gen_asymptote",
                 "ber_mg_asymptote"):
        patch(cli, name, lambda f: span("ber_analytic.asymptote", f))
    patch(cli, "simulate_mrc_ber",
          lambda f: span("monte_carlo.sim", f, on_call=sim_attrs,
                         on_result=sim_result))
    patch(cli, "fit_power_law", lambda f: span("diversity_fit.fit", f))
    patch(cli, "compare_to_theory", lambda f: span("diversity_fit.fit", f))
    patch(ber_analytic, "fox_h", lambda f: span("specfun.fox_h", f))
    patch(ber_analytic, "q_function",
          lambda f: leaf("specfun.q_scalar", f, count_elems=True))
    patch(ber_analytic, "laplace_exact_series",
          lambda f: span("mg_laplace.series", f,
                         refusal=errors.AccuracyError))
    patch(ber_analytic, "laplace_numeric_oracle",
          lambda f: span("mg_laplace.oracle", f))
    patch(ber_analytic, "snr_pdf_mg", lambda f: leaf("mg_laplace.snr_pdf", f))
    # The chunk function is private, but it is the unit each worker thread
    # runs, so its spans give the busy time behind parallel efficiency.
    patch(monte_carlo, "_run_chunk", lambda f: span("monte_carlo.chunk", f))
    patch(monte_carlo, "sample_branch_envelope",
          lambda f: span("monte_carlo.sample", f))
    patch(monte_carlo, "q_function",
          lambda f: span("specfun.q", f, on_call=q_elems))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> tuple[dict, dict]:
    """Per-layer metric values, and the self-time ranking of the groups."""
    def row(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                  "elems": 0, "attrs": []})

    def calls(name):
        return row(name)["calls"]

    def secs(name):
        return row(name)["s"]

    build, mixture = row("sum_dist.build"), row("sum_dist.mixture")
    quad, series = row("ber_analytic.quad"), row("mg_laplace.series")
    sims = row("monte_carlo.sim")["attrs"]
    workers = int(os.environ.get("THZDIV_MAX_WORKERS", "1"))
    refusals = sum(1 for _, a in series["attrs"] if "refused" in a)
    mixture_attrs = [a for _, a in mixture["attrs"] if "psi" in a]

    def per_1e6(method):
        picked = [(d, a["trials"]) for d, a in sims if a["method"] == method]
        return _ratio(sum(d for d, _ in picked),
                      sum(t for _, t in picked) / 1e6)

    sim_capacity = sum(d * min(workers, a.get("n_chunks", 1))
                       for d, a in sims)
    m = {
        "sum_dist.build_calls": build["calls"],
        "sum_dist.build_s": build["s"],
        "sum_dist.iid_pdf_calls": calls("sum_dist.iid_pdf"),
        "sum_dist.iid_pdf_s": secs("sum_dist.iid_pdf"),
        "sum_dist.mixture_calls": mixture["calls"],
        "sum_dist.mixture_s": mixture["s"],
        "sum_dist.mixture_psi_min": min((a["psi"] for a in mixture_attrs),
                                        default=0),
        "sum_dist.mixture_residual_max": max(
            (a["residual"] for a in mixture_attrs), default=0.0),
        "sum_dist.inid_pdf_calls": calls("sum_dist.inid_pdf"),
        "sum_dist.inid_pdf_s": secs("sum_dist.inid_pdf"),
        "ber_analytic.quad_calls": quad["calls"],
        "ber_analytic.quad_s": quad["s"],
        "ber_analytic.quad_self_s": quad["self_s"],
        "ber_analytic.evals_per_point": _ratio(
            calls("sum_dist.iid_pdf") + calls("sum_dist.inid_pdf"),
            quad["calls"]),
        "ber_analytic.foxh_calls": calls("ber_analytic.foxh"),
        "ber_analytic.foxh_s": secs("ber_analytic.foxh"),
        "ber_analytic.mgf_calls": calls("ber_analytic.mgf"),
        "ber_analytic.mgf_s": secs("ber_analytic.mgf"),
        "ber_analytic.mgf_laplace_calls_per_point": _ratio(
            series["calls"], calls("ber_analytic.mgf")),
        "ber_analytic.asymptote_s": secs("ber_analytic.asymptote"),
        "specfun.fox_h_calls": calls("specfun.fox_h"),
        "specfun.fox_h_s": secs("specfun.fox_h"),
        "specfun.q_calls": calls("specfun.q") + calls("specfun.q_scalar"),
        "specfun.q_elems": (row("specfun.q")["elems"]
                            + row("specfun.q_scalar")["elems"]),
        "specfun.q_s": secs("specfun.q") + secs("specfun.q_scalar"),
        "mg_laplace.series_calls": series["calls"],
        "mg_laplace.series_s": series["s"],
        "mg_laplace.series_refusals": refusals,
        "mg_laplace.series_accept_ratio": _ratio(series["calls"] - refusals,
                                                 series["calls"]),
        "mg_laplace.oracle_calls": calls("mg_laplace.oracle"),
        "mg_laplace.oracle_s": secs("mg_laplace.oracle"),
        "mg_laplace.snr_pdf_calls": calls("mg_laplace.snr_pdf"),
        "monte_carlo.sim_s": secs("monte_carlo.sim"),
        "monte_carlo.sample_busy_s": secs("monte_carlo.sample"),
        "monte_carlo.cq_s_per_1e6": per_1e6("conditional_q"),
        "monte_carlo.bit_s_per_1e6": per_1e6("bit_level"),
        "monte_carlo.parallel_eff": _ratio(secs("monte_carlo.chunk"),
                                           sim_capacity),
        "cli.parse_s": secs("cli.parse"),
        "cli.write_s": secs("cli.write"),
        "cli.self_s": row("cli.main")["self_s"],
        "diversity_fit.fit_s": secs("diversity_fit.fit"),
    }
    group_of = {n: g for g, names in GROUPS.items() for n in names}
    ranking: dict[str, float] = {}
    for name, r in summary.items():
        group = group_of.get(name, name)
        ranking[group] = ranking.get(group, 0.0) + r["self_s"]
    return m, ranking
