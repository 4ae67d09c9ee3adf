"""Lossless-limit band check against the closed-form two-band expression.

With both resistances zero the natural frequencies must satisfy
omega^2 * X * L * sqrt(C1 C2) = 1, where X is the closed-form normalized
band pair (the small-X band pairs with the large-omega root and vice
versa).  Evaluated on a 256-point midpoint grid; the worst relative
deviation freezes the acceptance tolerance.
"""

import numpy as np

from topochain import CircuitParams, hermitian_reference_bands, midpoint_grid
from topochain.spectral import _coefficients

C1, C2, L = 0.95, 0.45, 0.81
p = CircuitParams(0.0, 0.0, C1, C2, L, n_cells=2)

worst = 0.0
for k in midpoint_grid(256):
    coeffs = _coefficients(p, k)
    top = np.max(np.abs(coeffs))
    cut = len(coeffs)
    while cut > 1 and abs(coeffs[cut - 1]) < 1e-14 * top:
        cut -= 1
    roots = np.roots(coeffs[:cut][::-1])
    pos = np.sort(roots[roots.real > 1e-12].real)
    x_minus, x_plus = hermitian_reference_bands(C1, C2, L, k)
    scale = L * np.sqrt(C1 * C2)
    # big X pairs with the small positive root
    worst = max(worst,
                abs(pos[0] ** 2 * x_plus * scale - 1.0),
                abs(pos[1] ** 2 * x_minus * scale - 1.0))

print(f"worst relative duality deviation on 256-point grid: {worst:.3e}")
