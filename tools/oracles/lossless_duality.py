"""Lossless-limit band check against the closed-form two-band expression.

With both resistances zero the natural frequencies must satisfy
omega^2 * X * L * sqrt(C1 C2) = 1, where X is the closed-form normalized
band pair (the small-X band pairs with the large-omega root and vice
versa).  Evaluated on a 256-point midpoint grid; the worst relative
deviation freezes the acceptance tolerance.  The roots come from np.roots
on the band quartic Q(s), s = -i omega, which for R1 = R2 = 0 is the
biquadratic 1 + 2L(C1 + C2) s^2 + 2L^2 C1 C2 (1 - cos k) s^4.  The
closed form is hermitian_reference_bands from tests/reference.py, the
definition the acceptance test reads.
"""

import sys
from pathlib import Path

import numpy as np

from topochain import CircuitParams, band_polynomial_coefficients, midpoint_grid

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tests"))
from reference import hermitian_reference_bands  # noqa: E402

C1, C2, L = 0.95, 0.45, 0.81
p = CircuitParams(0.0, 0.0, C1, C2, L, n_cells=2)

worst = 0.0
for k in midpoint_grid(256):
    roots = 1j * np.roots(band_polynomial_coefficients(p, k)[::-1])
    pos = np.sort(roots[roots.real > 1e-12].real)
    x_minus, x_plus = hermitian_reference_bands(C1, C2, L, k)
    scale = L * np.sqrt(C1 * C2)
    # big X pairs with the small positive root
    worst = max(worst,
                abs(pos[0] ** 2 * x_plus * scale - 1.0),
                abs(pos[1] ** 2 * x_minus * scale - 1.0))

print(f"worst relative duality deviation on 256-point grid: {worst:.3e}")
