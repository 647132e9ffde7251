"""Walkthrough: mixture-of-gamma branches — exact MGF-product BER versus the
high-SNR power law, illustrating how slowly the asymptote is approached.

The asymptote keeps only the leading small-argument term of each mixture
component y^(b-1) exp(-c sqrt(y)), c = zeta / (nu sqrt(Upsilon)). The
component that sets kappa2 (smallest shape, b = 2.21 here) carries little of
the mixture's power, so c is still O(1) where BER reaches 1e-6, and the
ratio follows asymptote/exact = 1 + kappa3 Upsilon^(-1/2) + O(1/Upsilon)
with kappa3 = 0.409 for config1 x2. It is still ~3.5x at BER = 1e-6 and
enters a 15% band only near BER 1e-16 (10 dB). The exponent kappa2, however,
is already visible in the exact curve's slope.

Run:  python3 demos/mixture_gamma_asymptote.py
"""

import numpy as np

from thzdiv import ber_mg_asymptote, ber_mg_mgf, fit_power_law, mg_preset
from thzdiv.monte_carlo import BerCurve, BerPoint

branches = [mg_preset("mg_config1")] * 2
grid = np.geomspace(1e-3, 10.0, 14)

exact = ber_mg_mgf(branches, 1.0, 2, grid, g=1.0)
asym, law = ber_mg_asymptote(branches, 1.0, grid, g=1.0, dominant_only=True)
asym = np.atleast_1d(asym)

print(f"{'SNR (dB)':>9} {'exact':>12} {'asymptote':>12} {'ratio':>8}")
for u, ex, a in zip(grid, exact, asym):
    print(f"{10 * np.log10(u):9.1f} {ex:12.4e} {a:12.4e} {a / ex:8.3f}")

curve = BerCurve(points=tuple(BerPoint(float(u), float(b), 0.0, 1)
                              for u, b in zip(grid, exact)),
                 seed=0, method="exact")
fit = fit_power_law(curve, window=(1.0, 10.0))
print(f"\nanalytic kappa2 = {law.kappa2:.6f}  (L/2 * min component shape)")
print(f"fitted   kappa2 = {fit.law.kappa2:.6f}  "
      f"(gap {abs(fit.law.kappa2 / law.kappa2 - 1) * 100:.2f}%)")
print("\nThe exponent matches even though the prefactor ratio is still far "
      "from 1:\nthe law is correct as a limit, just approached at "
      "O(Upsilon^-1/2).")
