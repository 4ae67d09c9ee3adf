"""Dry run of the four bundled ringdown presets, printing what the fits find.

Runs each preset through the same code path as the CLI, then reports the
fitted (omega_r, omega_i) at the low-index end node against the driven-mode
target, plus the shape statistics of the ground-current RMS profile
(fraction of RMS weight on the outer 20 nodes per side, left/right split).
The printed numbers freeze the ringdown acceptance expectations.
"""

import json
import time
from importlib import resources

import numpy as np

import topochain as tc
from topochain import cli, spectral


def run(name):
    cfg = json.loads(
        (resources.files("topochain") / "presets" / f"{name}.json").read_text())
    params = tc.circuit_from_mapping(cfg["circuit"], prefix="circuit")
    section = cli._section(cfg, "transient")
    setup, info = cli._setup_from_section(params, section)
    t0 = time.time()
    trace = tc.simulate(setup, max_samples=int(section["max_samples"]))
    wall = time.time() - t0

    window = (trace.switch_time + 3.0 * 2.0 * np.pi / setup.drive_frequency,
              setup.t_end)
    profile = tc.ground_current_profile(trace, window)
    n_nodes = len(profile)
    left, right = profile[:20].sum(), profile[-20:].sum()
    uniform = 20.0 / n_nodes
    src_lo, src_hi = setup.source_nodes
    src_mass = profile[src_lo - 8:src_lo + 9].sum() \
        + profile[src_hi - 8:src_hi + 9].sum()

    period = 2.0 * np.pi / setup.drive_frequency
    fit_t0 = trace.switch_time + float(section["fit_t0_periods"]) * period
    target = complex(*info["mode"])
    print(f"{name}: drive {setup.drive_frequency:.6f} target {target:.6f} "
          f"wall {wall:.1f}s")
    print(f"  profile: ends20 L {left:.6f} R {right:.6f} uniform20 {uniform:.4f} "
          f"half L {profile[:n_nodes//2].sum():.6f} src34 {src_mass:.4f}")
    nodes = (0, params.n_cells, 2 * params.n_cells - 1)
    for node, series in zip(nodes, trace.node_voltages(nodes).T):
        try:
            fit = tc.fit_damped_oscillation(trace.times, series, fit_t0)
        except tc.NumericError as exc:
            print(f"  node {node}: fit failed: {exc}")
            continue
        err_r = abs(fit.omega_r - abs(target.real)) / abs(target.real)
        err_i = abs(fit.omega_i - target.imag) / abs(target.imag)
        print(f"  node {node}: omega_r {fit.omega_r:.9f} ({err_r:.3%}) "
              f"omega_i {fit.omega_i:.9f} ({err_i:.3%}) "
              f"resid {fit.rms_residual:.3e}")


for name in ("fig8a", "fig8b", "fig8c", "fig8d"):
    run(name)
