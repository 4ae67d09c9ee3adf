"""Dual-route check of the band quartic Q(s), s = -i omega.

Route A evaluates the package's five real coefficients of Q at
s = -i omega for random complex omega.  Route B computes
(w^2 L eta1 eta2)^2 (Lam^2 - yx^2 - yy^2) / (eta1 eta2) straight from the
Bloch matrix entries, no polynomial algebra involved: the cleared-denominator
determinant with the pole factor eta1 eta2 divided out.  Both routes must
agree to near machine precision, relative to the largest term of Q; the
worst relative error over the sample set is the frozen tolerance for the
packaged test.
"""

import numpy as np

from topochain import CircuitParams, bloch_admittance, lambda_diag
from topochain.spectral import _quartic

rng = np.random.default_rng(7)
worst = 0.0
for _ in range(500):
    r1, r2, c1, c2, l = rng.uniform(0.05, 2.0, size=5)
    k = rng.uniform(0.0, 2.0 * np.pi)
    p = CircuitParams(r1, r2, c1, c2, l, n_cells=2)
    coeffs = _quartic(p, k)
    for _ in range(20):
        w = complex(rng.normal(), rng.normal())
        if abs(w) < 0.3:
            continue
        eta1 = 1.0 + 1j * w * r1 * c1
        eta2 = 1.0 + 1j * w * r2 * c2
        y = bloch_admittance(p, w, k)
        lam = lambda_diag(p, w)
        route_b = (w**2 * l * eta1 * eta2) ** 2 * (lam**2 - y.y_x**2 - y.y_y**2) \
            / (eta1 * eta2)
        terms = coeffs * (-1j * w) ** np.arange(len(coeffs))
        worst = max(worst, abs(terms.sum() - route_b) / np.abs(terms).max())

print(f"worst relative disagreement over 10k samples: {worst:.3e}")
