"""Reference numbers for the time-domain solver.

Three independent checks, run once and frozen:

1. Eigenvalues of the free-phase state matrix of a small periodic chain
   against i*omega over the natural frequencies at the quantized wavenumbers
   (plus the conserved-charge zero mode).
2. A trapezoid trace against scipy's adaptive RK45 on the same state system.
3. The location of the least-damped mode cluster on the hybrid branches,
   which every late-time ringdown fit locks onto, and a dry run of the
   ringdown fits at the bundled drive protocol.
4. A variable-projection fit of the fig8a mid-chain ground current, the
   single damped cosine that the cluster-lock test pins, found without the
   package's fitter.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

import topochain as tc
from topochain import cli

PARS = (0.05, 1.41, 0.03, 1.34, 1.17)

# --- 1: state-matrix eigenvalues vs natural frequencies ------------------
n = 8
p = tc.CircuitParams(*PARS, n_cells=n, boundary=tc.Boundary.PERIODIC)
setup = tc.TransientSetup(p, drive_frequency=1.0)
space = tc.assemble_state_space(setup)
evals = np.linalg.eigvals(space.a_free)

candidates = [0.0]
physical = []
for m in range(n):
    k = 2.0 * np.pi * m / n
    fr = tc.natural_frequencies(p, k)
    candidates.extend(1j * z for z in fr.roots)
    physical.extend(1j * z for z in fr.physical_roots)
candidates = np.array(candidates)
physical = np.array(physical)

worst_fwd = max(np.abs(candidates - z).min() / max(1.0, abs(z)) for z in evals)
worst_bwd = max(np.abs(evals - z).min() / max(1.0, abs(z)) for z in physical)
print(f"state matrix {space.a_free.shape} eigs {len(evals)} "
      f"candidates {len(candidates)} physical {len(physical)}")
print(f"worst eig->root {worst_fwd:.3e}  worst physical-root->eig {worst_bwd:.3e}")

# --- 2: trapezoid vs adaptive RK45 ---------------------------------------
p6 = tc.CircuitParams(*PARS, n_cells=6)
s6 = tc.TransientSetup(p6, drive_frequency=3.77, switch_open_time=17.0,
                       t_end=19.0)
trace = tc.simulate(s6, max_samples=4000)
sp6 = tc.assemble_state_space(s6)


def rhs_driven(t, x):
    return sp6.a_driven @ x + sp6.b_driven * np.sin(s6.drive_frequency * t)


def rhs_free(t, x):
    return sp6.a_free @ x


x0 = np.zeros(sp6.a_driven.shape[0])
mid = np.searchsorted(trace.times, s6.switch_open_time) - 2
t_mid = trace.times[mid]
sol = solve_ivp(rhs_driven, (0.0, t_mid), x0, rtol=1e-11, atol=1e-13,
                dense_output=True)
v_ref = sp6.v_map_driven @ sol.y[:, -1] + sp6.v_src_driven * np.sin(
    s6.drive_frequency * t_mid)
dev = np.abs(v_ref - trace.node_voltages(range(sp6.n_nodes))[mid]).max()
print(f"driven-phase node voltages vs RK45 at t={t_mid:.4f}: max dev {dev:.3e}")

# --- 3: least-damped cluster and ringdown fit dry run --------------------
band = tc.band_trace(tc.CircuitParams(*PARS, n_cells=2), 1024)
best = None
for lab in ("omega4", "omega5"):
    br = band.branches[lab]
    j = np.argmin(np.abs(br.imag))
    if best is None or abs(br[j].imag) < abs(best[1].imag):
        best = (lab, br[j], band.k_grid[j])
print(f"least-damped hybrid mode: {best[0]} omega={best[1]:.6f} "
      f"k={best[2]:.4f}")

kpi = np.argmin(np.abs(band.k_grid - np.pi))
for lab in ("omega4", "omega5"):
    print(f"{lab} at k~pi: {band.branches[lab][kpi]:.6f}")

# --- 4: variable-projection fit of the fig8a mid-chain ringdown -----------
# The series the cluster-lock test fits, fitted without
# fit_damped_oscillation.  For fixed (omega_r, omega_i) the model
# A exp(-wi t) cos(wr t + phi) is linear in (A cos phi, A sin phi), so those
# two solve by linear least squares and Nelder-Mead minimizes the residual
# over the two frequencies alone, from the same data-derived guess the
# package uses: frequency from the mean zero-crossing spacing, decay from a
# log-linear fit of the local maxima of |s|.
cfg = cli.load_preset("fig8a")
p8 = tc.circuit_from_mapping(cfg["circuit"])
section = cli._section(cfg, "transient")
s8, _ = cli._setup_from_section(p8, section)
trace = tc.simulate(s8, max_samples=int(section["max_samples"]))
fit_t0 = trace.switch_time + float(section["fit_t0_periods"]) * s8.drive_period
keep = trace.times >= fit_t0
t8 = trace.times[keep] - fit_t0
y8 = trace.ground_currents([p8.n_cells])[keep, 0]

flip = np.where(np.diff(np.signbit(y8)))[0]
zeros = t8[flip] - y8[flip] * (t8[flip + 1] - t8[flip]) / (y8[flip + 1] - y8[flip])
mag = np.abs(y8)
peaks = np.where((mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:]))[0] + 1
peaks = peaks[mag[peaks] > 1e-3 * mag.max()]
guess = (np.pi / np.mean(np.diff(zeros)),
         -np.polyfit(t8[peaks], np.log(mag[peaks]), 1)[0])


def projected_residual(w):
    env = np.exp(-w[1] * t8)
    basis = np.column_stack([env * np.cos(w[0] * t8), -env * np.sin(w[0] * t8)])
    coef = np.linalg.lstsq(basis, y8, rcond=None)[0]
    return y8 - basis @ coef


best = minimize(lambda w: np.sum(projected_residual(w) ** 2), guess,
                method="Nelder-Mead",
                options={"xatol": 1e-13, "fatol": 1e-20, "maxiter": 20000})
rms = np.sqrt(np.mean(projected_residual(best.x) ** 2) / np.mean(y8 ** 2))
print(f"fig8a node {p8.n_cells} variable projection from guess "
      f"({guess[0]:.6f}, {guess[1]:.6f}): omega_r {best.x[0]:.12f} "
      f"omega_i {best.x[1]:.12f} rms residual {rms:.12f} ({best.nfev} evals)")
