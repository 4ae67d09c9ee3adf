"""Command-line front end: presets, experiment orchestration, file export.

Every command takes a JSON config (or a packaged preset), computes, and
writes plot-ready CSV/JSON plus a resolved-config echo into its own run
directory.  Every grid is fixed by the config, so a repeated run produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import netlist as netlist_mod
from . import spectral, topology, transient
from .errors import (
    ConfigError,
    GapUnknown,
    InvalidParams,
    NumericError,
    OriginCrossing,
    OutOfRange,
    OutputError,
    TopochainError,
    UnknownKey,
)
from .params import CircuitParams, check_object, circuit_from_mapping, load_config

OUT_ROOT_ENV = "TOPOCHAIN_OUT"

# each section's keys as (JSON type, default); see params.check_object
PERTURBATION = {"cells": ((list, int), None), "fraction": (float, 0.05)}
SECTIONS = {
    "bands": {"n_k": (int, 256)},
    "winding": {"n_k": (int, 1024)},
    "skin": {"n_k": (int, 512), "branches": ((list, str), None)},
    "eigvecs": {"n_k": (int, 1024), "branch": (str, "omega6"),
                "perturbation": (PERTURBATION, None)},
    "transient": {
        "branch": (str, "omega6"), "k_at": (float, 3.141592653589793),
        "n_k": (int, 256), "amplitude": (float, 1.0),
        "source_nodes": ((list, int), None),
        "periods_drive": (float, transient.MIN_DRIVE_PERIODS),
        "periods_free": (float, transient.FREE_PERIODS),
        "fit_t0_periods": (float, transient.SETTLE_PERIODS),
        "max_samples": (int, 8000), "dt": (float, None),
    },
    "sweep": {"points": ((list, dict), None), "n_k": (int, 256),
              "check_skin": (bool, True)},
}
# each subcommand's config section
COMMANDS = {
    "bands": "bands", "winding": "winding", "skin": "skin", "eigvecs": "eigvecs",
    "transient": "transient", "netlist": "transient", "sweep": "sweep",
}


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    # tolist() gives Python floats, ints and strs; str of a float is the
    # shortest round-trip form, of an int the plain digits.  Each distinct
    # column is formatted once: a column bitwise equal to an earlier one (the
    # mirror nodes of a mirror-symmetric ringdown) repeats its strings.
    # Bitwise, since np.array_equal would also match 0.0 with -0.0 and 1
    # with 1.0, whose strings differ
    first, distinct, picks = {}, [], []
    for col in columns:
        key = (col.dtype.str, col.tobytes())
        if key not in first:
            first[key] = len(distinct)
            distinct.append(col)
        picks.append(first[key])
    cells = zip(*(map(str, col.tolist()) for col in distinct))
    if len(distinct) < len(columns):
        cells = map(operator.itemgetter(*picks), cells)
    rows = [",".join(header)] + [",".join(row) for row in cells]
    _write_text(path, "\n".join(rows) + "\n")


def _pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _section(config: dict, name: str) -> dict:
    merged = check_object(name, config.get(name, {}), SECTIONS[name])
    named = [merged["branch"]] if "branch" in merged else merged.get("branches") or []
    bad = [b for b in named if b not in spectral.BRANCH_LABELS]
    if bad:
        raise InvalidParams(f"unknown branch labels {bad} in section '{name}'")
    return merged


def _write_branch_csv(path: Path, k: np.ndarray, curves: dict) -> None:
    header, cols = ["k"], [k]
    for lab in spectral.BRANCH_LABELS:
        header += [f"{lab}_re", f"{lab}_im"]
        cols += [curves[lab].real, curves[lab].imag]
    _write_csv(path, header, cols)


def cmd_bands(params: CircuitParams, section: dict, outdir: Path, fmt: str) -> None:
    if fmt not in ("csv", "json"):
        raise InvalidParams(f"--format must be one of csv, json, got {fmt!r}")
    band = spectral.band_trace(params, section["n_k"])
    lam = spectral.lambda_spectrum(params, band)
    labels = spectral.BRANCH_LABELS
    if fmt == "json":
        _write_json(outdir / "bands.json", {
            "k": band.k_grid.tolist(),
            "branches": {lab: [_pair(z) for z in band.branches[lab]] for lab in labels},
            "lambda": {lab: [_pair(z) for z in lam[lab]] for lab in labels},
        })
    else:
        _write_branch_csv(outdir / "bands.csv", band.k_grid, band.branches)
        _write_branch_csv(outdir / "lambda.csv", band.k_grid, lam)
    _write_json(outdir / "bands_meta.json", {
        "closure_permutation": list(band.closure_permutation),
        "continuity_residual": {k: float(v) for k, v in band.continuity_residual.items()},
        "gap_per_branch": {
            lab: spectral.bulk_gap(params, band.branches[lab]) for lab in labels
        },
    })


def cmd_winding(params: CircuitParams, section: dict, outdir: Path) -> None:
    band = spectral.band_trace(params, section["n_k"])
    results = topology.winding_per_branch(params, band)
    branches = {}
    for lab in sorted(band.branches):
        r = results.get(lab)
        if r is None:
            branches[lab] = {"winding": None,
                             "note": "curve crosses the origin; undefined"}
        else:
            branches[lab] = {
                "winding": r.winding,
                "quadrature": r.quadrature,
                "curve_min_radius": r.curve_min_radius,
                "quadrature_residual": abs(r.quadrature - r.winding),
            }
    report = {
        "n_k": section["n_k"],
        "branches": branches,
        "multiset": sorted(r.winding for r in results.values()),
        "undefined": sorted(set(band.branches) - set(results)),
    }
    _write_json(outdir / "winding.json", report)


def cmd_skin(params: CircuitParams, section: dict, outdir: Path) -> None:
    chosen = section["branches"]
    if chosen == []:
        raise InvalidParams("skin.branches must name at least one branch")
    band = spectral.band_trace(params, section["n_k"])
    labels = spectral.BRANCH_LABELS
    report = {lab: {"present": topology.skin_effect_present(band, lab),
                    "partner": labels[band.closure_permutation[labels.index(lab)]]}
              for lab in (labels if chosen is None else chosen)}
    _write_json(outdir / "skin.json", report)


def _center_cells(n_cells: int) -> list[int]:
    """The middle cell and its two neighbours, those of them inside the chain."""
    mid = n_cells // 2
    return [c for c in (mid - 1, mid, mid + 1) if c < n_cells]


def cmd_eigvecs(params: CircuitParams, section: dict, outdir: Path) -> None:
    label = section["branch"]
    band = spectral.band_trace(params, section["n_k"])
    matrix = spectral.branch_effective_matrix(params, band, label)
    pert_cfg = section["perturbation"]
    if pert_cfg is not None:
        cells = pert_cfg["cells"] or _center_cells(params.n_cells)
        try:
            perturbed = topology.perturb_chain(matrix, tuple(cells), pert_cfg["fraction"])
        except OutOfRange as exc:
            raise InvalidParams(f"eigvecs.perturbation: {exc}") from None
    spectrum = spectral.eigendecompose(matrix)
    gap = spectral.bulk_gap(params, band.branches[label])
    notes = []
    try:
        spectrum = topology.classify_states(spectrum, gap)
    except GapUnknown as exc:
        notes.append(str(exc))
    try:
        mu = topology.winding_number(params, band.branches[label], band.k_grid)
    except OriginCrossing as exc:
        mu = None
        notes.append(str(exc))
    report = {
        "branch": label,
        "gap": gap,
        "winding": mu,
        "com_shift_sites": topology.center_of_mass_shift(spectrum),
        "eigenvalues": [_pair(z) for z in spectrum.eigenvalues],
        "labels": list(spectrum.labels) if spectrum.labels else None,
        "ipr": spectrum.ipr.tolist(),
        "left_weight": spectrum.left_weight.tolist(),
        "right_weight": spectrum.right_weight.tolist(),
        "notes": notes,
    }
    if pert_cfg is not None and spectrum.labels is not None:
        pert_spec = spectral.eigendecompose(perturbed)
        cmp = topology.compare_perturbed(spectrum, pert_spec)
        report["perturbation"] = {
            "cells": list(cells),
            "fraction": pert_cfg["fraction"],
            "edge_state_drift": cmp.edge_state_drift,
            "skin_state_drift": cmp.skin_state_drift,
            "bulk_state_drift": cmp.bulk_state_drift,
            "max_eigenvalue_shift": cmp.max_eigenvalue_shift,
        }
    _write_json(outdir / "spectrum.json", report)
    mags = np.abs(spectrum.eigenvectors) ** 2
    header = ["site"] + [f"state{i}" for i in range(mags.shape[1])]
    cols = [np.arange(mags.shape[0])] + [mags[:, i] for i in range(mags.shape[1])]
    _write_csv(outdir / "eigvecs.csv", header, cols)


def _setup_from_section(params: CircuitParams, section: dict) -> tuple[transient.TransientSetup, dict]:
    if section["fit_t0_periods"] < transient.SETTLE_PERIODS:
        raise InvalidParams("transient.fit_t0_periods: below the "
                            f"{transient.SETTLE_PERIODS:g}-period settling after release")
    band = spectral.band_trace(params, section["n_k"])
    label = section["branch"]
    idx = int(np.argmin(np.abs(band.k_grid - section["k_at"])))
    mode = band.branches[label][idx]
    omega_r = abs(float(np.real(mode)))
    omega_i = float(np.imag(mode))
    if omega_r <= 0.0:
        raise InvalidParams(
            f"branch {label} has no oscillatory part at k={band.k_grid[idx]:.4f}"
        )
    period = 2.0 * np.pi / omega_r
    setup = transient.TransientSetup(
        params=params,
        drive_frequency=omega_r,
        source_nodes=(tuple(section["source_nodes"])
                      if section["source_nodes"] is not None else None),
        source_amplitude=section["amplitude"],
        switch_open_time=section["periods_drive"] * period,
        t_end=(section["periods_drive"] + section["periods_free"]) * period,
        dt=section["dt"],
    )
    drive_info = {
        "branch": label,
        "k": float(band.k_grid[idx]),
        "mode": _pair(mode),
        "omega_r": omega_r,
        "omega_i": omega_i,
    }
    return setup, drive_info


def _fit_entry(times: np.ndarray, column: np.ndarray, t0: float) -> dict:
    """One node's transient.json fit: the fitted parameters, marked with a
    note when the residual says one damped cosine does not describe the
    signal, or the error that stopped the fit."""
    try:
        fit = transient.fit_damped_oscillation(times, column, t0)
    except (TopochainError, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    entry = dataclasses.asdict(fit)
    if fit.rms_residual > transient.FIT_RMS_BOUND:
        entry["note"] = (f"rms_residual above {transient.FIT_RMS_BOUND:g}: a summary "
                         "of a multi-mode signal, not one mode")
    return entry


def cmd_transient(params: CircuitParams, section: dict, outdir: Path) -> None:
    setup, drive_info = _setup_from_section(params, section)
    trace = transient.simulate(setup, max_samples=section["max_samples"])
    window = (trace.switch_time + transient.SETTLE_PERIODS * setup.drive_period,
              float(trace.times[-1]))
    profile = transient.ground_current_profile(trace, window)
    fit_t0 = trace.switch_time + section["fit_t0_periods"] * setup.drive_period
    n_nodes = 2 * params.n_cells
    watch = sorted({0, n_nodes - 1, n_nodes // 2, *setup.source_nodes})
    fits, fitted = {}, []   # fitted: (column, entry) of each distinct column
    for node in watch:
        column = trace.ground_currents[:, node]
        # mirror nodes of a mirror-symmetric run carry equal columns: fit once
        entry = next((e for col, e in fitted if np.array_equal(col, column)), None)
        if entry is None:
            entry = _fit_entry(trace.times, column, fit_t0)
            fitted.append((column, entry))
        fits[str(node)] = entry
    _write_json(outdir / "transient.json", {
        "drive": drive_info,
        "switch_time": trace.switch_time,
        "window": list(window),
        "fit_t0": fit_t0,
        "profile": profile.tolist(),
        "fits": fits,
        "final_energy": float(trace.energy[-1]),
    })
    cols = [trace.times]
    header = ["time"]
    for node in watch:
        header += [f"v{node}", f"i{node}"]
        cols += [trace.node_voltages[:, node], trace.ground_currents[:, node]]
    _write_csv(outdir / "trace.csv", header, cols)
    _write_csv(outdir / "energy.csv", ["time", "energy"],
               [trace.times, trace.energy])


def cmd_netlist(params: CircuitParams, section: dict, outdir: Path) -> None:
    setup, _ = _setup_from_section(params, section)
    _write_text(outdir / "chain.cir", netlist_mod.netlist_text(setup))


def _sweep_point(params: CircuitParams, n_k: int) -> tuple[str, float, int]:
    """One sweep row's winding multiset, min_gap and skin flag."""
    band = spectral.band_trace(params, n_k)
    results = topology.winding_per_branch(params, band)
    multiset = "|".join(str(w) for w in sorted(r.winding for r in results.values()))
    min_gap = spectral.bulk_gap(params, np.stack(list(band.branches.values())))
    skin = any(topology.skin_effect_present(band, lab) for lab in spectral.BRANCH_LABELS)
    return multiset, min_gap, int(skin)


def cmd_sweep(params: CircuitParams, section: dict, outdir: Path) -> None:
    # perfbench's sweep configs pin the key; false would write skin 0, as
    # "checked, none" does
    if not section["check_skin"]:
        raise InvalidParams("sweep.check_skin must be true")
    points = section["points"]
    grid = ([circuit_from_mapping(e, prefix="sweep.point") for e in points]
            if points else [params])
    rows = [_sweep_point(p, section["n_k"]) for p in grid]
    keys = ["r1", "r2", "c1", "c2", "l"]
    cols = [np.array([getattr(p, key) for p in grid]) for key in keys]
    _write_csv(outdir / "sweep.csv", keys + ["mu_multiset", "min_gap", "skin"],
               cols + [np.array(col) for col in zip(*rows)])


def preset_names() -> list[str]:
    root = resources.files("topochain") / "presets"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> dict:
    root = resources.files("topochain") / "presets"
    ref = root / f"{name}.json"
    if not ref.is_file():
        raise InvalidParams(
            f"unknown preset '{name}'; available: {', '.join(preset_names())}"
        )
    return json.loads(ref.read_text())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topochain",
        description="Dissipative SSH-circuit band, topology, and transient toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", type=str, help="JSON config path")
        src.add_argument("--preset", type=str, help="packaged preset name")
        p.add_argument("--out", type=str, default=None,
                       help=f"output root (default ${OUT_ROOT_ENV} or ./topochain_out)")
        if name == "bands":
            p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    return parser


def run_command(command: str, config: dict, outdir: Path, fmt: str,
                threads: int = 1) -> None:
    if command not in COMMANDS:
        raise InvalidParams(f"unknown command '{command}'")
    # perfbench/workloads.run_op passes threads=1; every sweep runs serially
    if threads != 1:
        raise InvalidParams(f"threads must be 1, got {threads!r}")
    if "circuit" not in config:
        raise InvalidParams("config lacks a 'circuit' section")
    known = {"circuit"} | set(SECTIONS)
    for key in config:
        if key not in known:
            raise UnknownKey(key)
    params = circuit_from_mapping(config["circuit"])
    key = COMMANDS[command]
    section = _section(config, key)
    # looked up at call time, so a rebound module attribute is the one called
    globals()[f"cmd_{command}"](params, section, outdir,
                                *([fmt] if command == "bands" else []))
    # written last, so a refused config leaves no run directory behind
    _write_json(outdir / "resolved_config.json",
                {"circuit": params.to_dict(), key: section})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            config = load_config(args.config)
            run_name = Path(args.config).stem
        else:
            config = load_preset(args.preset)
            run_name = args.preset
        out_root = Path(args.out or os.environ.get(OUT_ROOT_ENV, "topochain_out"))
        outdir = out_root / f"{args.command}-{run_name}"
        # only bands parses --format
        run_command(args.command, config, outdir, getattr(args, "fmt", None))
    except ConfigError as exc:
        print(f"{args.command}: config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"{args.command}: numeric error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except (OutputError, OSError) as exc:
        print(f"{args.command}: output error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
