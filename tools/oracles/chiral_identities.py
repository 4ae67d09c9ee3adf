"""Sublattice-symmetry identities of the hopping matrix, sampled at random.

Two exact identities hold for the zero-diagonal cell matrix Y(omega, k):

  sigma_z Y sigma_z            = -Y            (plain anticommutation)
  sigma_z Y(omega)^dag sigma_z = -Y(-conj(omega))   (dagger form)

The dagger form needs the frequency reflected through the imaginary axis
because conjugating Y conjugates the hopping weights, and v(-conj(omega))
= conj(v(omega)).  Worst absolute deviations over 10^4 random draws are
printed and frozen.  SIGMA_Z comes from tests/reference.py, the tests'
own definition.
"""

import sys
from pathlib import Path

import numpy as np

from topochain import CircuitParams, bloch_admittance

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tests"))
from reference import SIGMA_Z  # noqa: E402

rng = np.random.default_rng(23)
worst_anti = 0.0
worst_dagger = 0.0
for _ in range(10_000):
    r1, r2, c1, c2, l = rng.uniform(0.05, 2.0, size=5)
    p = CircuitParams(r1, r2, c1, c2, l, n_cells=2)
    omega = complex(rng.normal(), rng.normal())
    if abs(omega) < 0.1:
        continue
    k = rng.uniform(0.0, 2.0 * np.pi)
    y = bloch_admittance(p, omega, k).entries
    y_mirror = bloch_admittance(p, -np.conj(omega), k).entries
    worst_anti = max(worst_anti,
                     np.abs(SIGMA_Z @ y @ SIGMA_Z + y).max())
    worst_dagger = max(worst_dagger,
                       np.abs(SIGMA_Z @ y.conj().T @ SIGMA_Z + y_mirror).max())

print(f"worst anticommutation deviation: {worst_anti:.3e}")
print(f"worst dagger-form deviation:     {worst_dagger:.3e}")
