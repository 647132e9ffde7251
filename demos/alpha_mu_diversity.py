"""Walkthrough: exact BER, Monte Carlo check, and diversity order for an
L = 3 maximal-ratio-combining receiver over measured indoor THz fading.

Run:  python3 demos/alpha_mu_diversity.py
"""

import numpy as np

from thzdiv import (
    BerCurve,
    BerPoint,
    Scenario,
    alpha_mu_a_preset,
    ber_alpha_mu_iid_asymptote,
    ber_mg_mgf,
    compare_to_theory,
    fit_power_law,
    simulate_mrc_ber,
)

L = 3
model = alpha_mu_a_preset("indoor_1")
print(f"branch model: alpha = {model.alpha}, mu = {model.mu} (L = {L} i.i.d.)")

# Exact route: the Craig-form MGF over each branch's power Laplace transform,
# one call for the whole grid, as `thzdiv ber --method exact` makes it.
# g = 0.5 is the Q(sqrt(Upsilon x)) convention; ber_mg_mgf defaults to g = 1.
grid = np.geomspace(0.1, 316.0, 13)
exact = ber_mg_mgf([model] * L, 1.0, L, grid, g=0.5)

# Independent route: variance-reduced Monte Carlo over the same scenario.
sc = Scenario(branches=(model,) * L, snr_grid=tuple(grid[:9]))
mc = simulate_mrc_ber(sc, trials=200_000, seed=11)

print(f"\n{'SNR (dB)':>9} {'exact':>12} {'monte carlo':>12} {'z-score':>8}")
for u, ex, pt in zip(grid, exact, mc.points):
    z = (pt.ber - ex) / pt.se if pt.se else float("nan")
    print(f"{10 * np.log10(u):9.1f} {ex:12.4e} {pt.ber:12.4e} {z:8.2f}")

# Diversity law: fit the top decade of the exact curve and compare with the
# analytic power law kappa1 * Upsilon^(-kappa2), kappa2 = alpha * mu * L / 2.
_, law = ber_alpha_mu_iid_asymptote(model, 1.0, L, grid[-1])
exact_curve = BerCurve(points=tuple(BerPoint(float(u), float(b), 0.0, 1)
                                    for u, b in zip(grid, exact)),
                       seed=0, method="exact")
pts = fit_power_law(exact_curve)
out = compare_to_theory(pts, law, tolerance=0.05)
print(f"\nfitted  kappa2 = {pts.law.kappa2:.4f}")
print(f"theory  kappa2 = {law.kappa2:.4f}  (alpha*mu*L/2)")
print(f"agreement within 5%: {out.passed}")
