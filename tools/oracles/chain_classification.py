"""Frozen reference numbers for the finite-chain experiments.

Branch-effective open chains at the pinned parameter row used by the
eigenvector figure (N = 300, n_k = 1024): per-branch winding or its
origin-crossing status, bulk gap, state-label counts, center-of-mass shift,
the skin verdict, and the drift numbers of the mid-chain perturbation
experiment on the gapped branch.  Run once, eyeballed, frozen into tests.

The edge drift is re-derived without compare_perturbed: scipy's eig on both
chains, the principal angles and projector distance between the spans of
the two states nearest zero, and the exact zero-mode amplitudes at the
perturbed cells from the recurrence H psi = 0.
"""

import numpy as np
import scipy.linalg as sl

import topochain as tc
from topochain.errors import OriginCrossing
from topochain.spectral import BRANCH_LABELS

PARS = (0.05, 1.41, 0.03, 1.34, 1.17)
N = 300

p = tc.CircuitParams(*PARS, n_cells=N)
band = tc.band_trace(p, 1024)

spectra = {}
for lab in BRANCH_LABELS:
    m = tc.branch_effective_matrix(p, band, lab)
    spec = tc.eigendecompose(m)
    gap = tc.bulk_gap(p, band.branches[lab])
    spec = tc.classify_states(spec, gap)
    spectra[lab] = (spec, gap, m)
    try:
        mu = tc.winding_number(p, band.branches[lab], band.k_grid)
    except OriginCrossing:
        mu = None
    present = tc.skin_effect_present(band, lab)
    counts = {t: spec.labels.count(t) for t in ("Edge", "Skin", "Bulk")}
    com = tc.center_of_mass_shift(spec)
    print(f"{lab}: mu={mu} gap={gap:.9f} counts={counts} "
          f"com={com:.6f} skin_present={present}")

spec, _, matrix = spectra["omega6"]
center = N // 2
cells = (center - 1, center, center + 1)
pert = tc.perturb_chain(matrix, cells, 0.05)
pert_spec = tc.eigendecompose(pert)
rep = tc.compare_perturbed(spec, pert_spec)
print(f"perturbation omega6 cells={cells} fraction=0.05:")
print(f"  edge_state_drift  {rep.edge_state_drift:.3e}")
print(f"  skin_state_drift  {rep.skin_state_drift:.12f}")
print(f"  bulk_state_drift  {rep.bulk_state_drift:.12f}")
print(f"  max_eig_shift     {rep.max_eigenvalue_shift:.12f}")

edge_idx = [i for i, t in enumerate(spec.labels) if t == "Edge"]
print(f"  edge eigvals      {[f'{spec.eigenvalues[i]:.3e}' for i in edge_idx]}")
print(f"  edge ipr          {[f'{spec.ipr[i]:.4f}' for i in edge_idx]}")

# --- edge subspace under the perturbation, without compare_perturbed ------
# The two Edge states are a pair at zero energy, degenerate to roundoff, so
# only their span is defined.  Solve both chains with scipy's eig, take the
# two eigenvalues nearest zero of each, and measure how far the span moves.
base_vals, base_vecs = sl.eig(matrix.entries)
pert_vals, pert_vecs = sl.eig(pert.entries)
v0 = base_vecs[:, np.argsort(np.abs(base_vals))[:2]]
v1 = pert_vecs[:, np.argsort(np.abs(pert_vals))[:2]]
angles = sl.subspace_angles(v0, v1)
q0, q1 = sl.orth(v0), sl.orth(v1)
proj_dist = np.linalg.norm(q0 @ q0.conj().T - q1 @ q1.conj().T, 2)
print("edge subspace (scipy.linalg.eig, two eigenvalues nearest zero):")
print(f"  baseline eigvals  {np.sort_complex(base_vals[np.argsort(np.abs(base_vals))[:2]])}")
print(f"  principal angles  {angles}")
print(f"  projector 2-norm distance  {proj_dist:.3e}")

# sigma_z restricted to the pair: eigenvalues +-1 mean one
# sublattice-polarized mode per end
sz = np.tile([1.0, -1.0], N)
restricted = np.linalg.lstsq(v0, sz[:, None] * v0, rcond=None)[0]
print(f"  sigma_z on the pair  {np.sort(np.linalg.eigvals(restricted).real)}")

# split the pair into its two polarized modes; each decays exponentially
# away from its own end until it reaches roundoff, so fit log10 |psi| on its
# sublattice over the cells above 1e-12 and extrapolate to the perturbed cells
pol_vals, pol = np.linalg.eig(restricted)
modes = v0 @ pol
for name, k, sub, depth in (("left", np.argmax(pol_vals.real), 0, np.arange(N)),
                            ("right", np.argmin(pol_vals.real), 1,
                             np.arange(N)[::-1])):
    amp = np.abs(modes[sub::2, k])
    amp = amp / amp.max()
    keep = amp > 1e-12
    slope, icpt = np.polyfit(depth[keep], np.log10(amp[keep]), 1)
    far = icpt + slope * depth[list(cells)]
    print(f"  {name} mode: decays {-slope:.4f} decades/cell over "
          f"{keep.sum()} cells; extrapolated log10 amplitude at cells "
          f"{cells}: {np.round(far, 1)}")

# --- center-of-mass shift, basis-free, without center_of_mass_shift -------
# On the gapped branches the Edge pair is degenerate to roundoff, so the
# profile of each member depends on the basis the eigensolver picks inside
# the pair's span.  Solve with scipy's eig, sum the pair through sl.orth of
# its span when its splitting is under 1e-8 max(1, max |lambda|), and check
# that no other two eigenvalues come that close.
print("center-of-mass shift (scipy.linalg.eig, degenerate pair through sl.orth):")
for lab in BRANCH_LABELS:
    vals, vecs = sl.eig(spectra[lab][2].entries)
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    tol = 1e-8 * max(1.0, np.abs(vals).max())
    pair = np.argsort(np.abs(vals))[:2]
    split = abs(vals[pair[0]] - vals[pair[1]])
    if split < tol:
        vecs[:, pair] = sl.orth(vecs[:, pair])
    rest = np.delete(vals, pair)
    dist = np.abs(rest[:, None] - rest[None, :])
    np.fill_diagonal(dist, np.inf)
    com = (np.arange(2 * N) @ np.abs(vecs) ** 2).mean() - 0.5 * (2 * N - 1)
    print(f"  {lab}: pair splitting {split:.2e} (tol {tol:.2e}), closest other "
          f"gap {dist.min():.2e}, com {com:.6e}")
