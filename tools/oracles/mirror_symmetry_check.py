"""Numerical witness that the root set is closed under omega -> -conj(omega).

The symmetry is structural: the physical roots are omega = i s for the roots
s of the real quartic Q(s), s = -i omega, so a conjugate pair s, conj(s) is
the mirror pair omega, -conj(omega) and a real s is an imaginary-axis
omega; the pole roots i/(R_j C_j) lie on the axis.  (In omega, the sextic's
coefficients satisfy conj(c_j) = (-1)^j c_j.)  Mirror pairs project onto
identical admittance-plane curves, so the four tracked branches can only
produce winding multisets that pair up.  Verified here over random
parameter draws: the reflected set matches the root set in every draw,
exactly, since LAPACK returns the eigenvalues of a real companion matrix as
exact conjugate pairs and the polish keeps them so.
"""

import numpy as np

from topochain import CircuitParams, natural_frequencies

rng = np.random.default_rng(11)
worst = 0.0
for _ in range(2000):
    r1, r2, c1, c2, l = rng.uniform(0.02, 2.0, size=5)
    k = rng.uniform(0.05, 2.0 * np.pi - 0.05)
    p = CircuitParams(r1, r2, c1, c2, l, n_cells=2)
    roots = natural_frequencies(p, k).roots
    mirrored = -np.conj(roots)
    for z in mirrored:
        worst = max(worst, np.abs(roots - z).min() / max(1.0, abs(z)))

print(f"worst mirror-pair mismatch over 2000 draws: {worst:.3e}")
