"""The three workloads: inputs made from a seed, one operation, output checks.

Every operation goes through ``topochain.cli.run_command``, which is what the
``topochain`` command runs after parsing its arguments.  Checks read the
files the operation wrote and run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from topochain import cli, spectral, topology
from topochain.params import circuit_from_mapping

CHAIN_PRESETS = ("fig6a", "fig6b", "fig6c", "fig6d", "fig6e")
# fig8a/fig8c release for 25 periods, fig8b/fig8d for 200
RINGDOWN_PRESETS = ("fig8a", "fig8b", "fig8c", "fig8d")
SWEEP_POOL = 1024          # more points than any run reaches
SWEEP_N_K = 256
ELEMENT_RANGE = (0.05, 2.0)   # as the random-draw tests draw element values

# eigenvalue agreement, relative to the largest |eigenvalue|; the same
# scale as topochain's own eigen-residual gate, and loose enough for an
# exact change of eigensolver (roundoff in a non-normal 600x600 spectrum)
EIG_TOL = 1e-8
COLUMN_SUM_TOL = 1e-9
PROFILE_SUM_TOL = 1e-9
ENERGY_GROWTH_TOL = 1e-9   # the integrator's own post-release energy gate
FINAL_ENERGY_TOL = 1e-6


@dataclass(frozen=True)
class Op:
    key: str          # preset name, or the sweep point's index in the pool
    command: str
    config: dict


@dataclass(frozen=True)
class Inputs:
    ops: tuple[Op, ...]
    cycle: int        # a run stops only after a whole number of cycles


def sweep_points(seed: int, count: int = SWEEP_POOL) -> list[dict]:
    """Random 2-cell parameter sets, every element uniform in ELEMENT_RANGE."""
    rng = np.random.default_rng(seed)
    draws = rng.uniform(*ELEMENT_RANGE, size=(count, 5))
    return [dict(zip(("r1", "r2", "c1", "c2", "l"), map(float, row)), n_cells=2)
            for row in draws]


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload == "sweep":
        ops = tuple(
            Op(str(i), "sweep", {
                "circuit": point,
                "sweep": {"points": [point], "n_k": SWEEP_N_K, "check_skin": True},
            })
            for i, point in enumerate(sweep_points(seed)))
        return Inputs(ops, cycle=1)
    names = CHAIN_PRESETS if workload == "chain" else RINGDOWN_PRESETS
    command = "eigvecs" if workload == "chain" else "transient"
    order = np.random.default_rng(seed).permutation(len(names))
    ops = tuple(Op(names[i], command, cli.load_preset(names[i])) for i in order)
    # chain presets differ in cost (fig6e solves twice), so a run takes them
    # all; the ringdown presets cost about the same, so pairs suffice
    return Inputs(ops, cycle=len(ops) if workload == "chain" else 2)


def run_op(op: Op, outdir: Path) -> None:
    # looked up at call time, so an installed tracer sees the call
    cli.run_command(op.command, op.config, outdir, "csv", threads=1)


def digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    header, body = path.read_text().split("\n", 1)
    cols = header.split(",")
    values = np.array(body.replace(",", " ").split(), dtype=float)
    return cols, values.reshape(-1, len(cols))


def _set_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance: how far a point of either set is from the other set."""
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=0).max(), d.min(axis=1).max()))


def check_sweep(op: Op, outdir: Path, reference: dict) -> list[str]:
    point = op.config["circuit"]
    lines = (outdir / "sweep.csv").read_text().splitlines()
    if len(lines) != 2:
        return [f"sweep.csv has {len(lines) - 1} rows, expected 1"]
    fields = lines[1].split(",")
    problems = []
    echoed = [float(x) for x in fields[:5]]
    if echoed != [point[k] for k in ("r1", "r2", "c1", "c2", "l")]:
        problems.append("sweep.csv does not echo the point's element values")
    multiset = [int(m) for m in fields[5].split("|")] if fields[5] else []
    params = circuit_from_mapping(point)
    band = spectral.band_trace(params, SWEEP_N_K)
    results = topology.winding_per_branch(params, band)
    for lab, res in results.items():
        crossings = topology.winding_crossings(params, band.branches[lab], band.k_grid)
        quadrature = round(res.quadrature)
        if not crossings == quadrature == res.winding:
            problems.append(f"{lab}: winding {res.winding}, crossings {crossings}, "
                            f"quadrature {res.quadrature:.6f}")
    if multiset != sorted(r.winding for r in results.values()):
        problems.append(f"multiset {multiset} differs from the certified windings")
    return problems


def check_chain(op: Op, outdir: Path, reference: dict) -> list[str]:
    report = json.loads((outdir / "spectrum.json").read_text())
    lam = np.array([complex(re, im) for re, im in report["eigenvalues"]])
    tol = EIG_TOL * max(1.0, float(np.abs(lam).max()))
    problems = []
    pairing = _set_distance(lam, -lam)
    if pairing > tol:
        problems.append(f"eigenvalues not in +- pairs: {pairing:.3e} > {tol:.3e}")
    ref = np.array([complex(re, im) for re, im in reference["chain"][op.key]])
    if len(ref) != len(lam):
        problems.append(f"{len(lam)} eigenvalues, reference has {len(ref)}")
    else:
        drift = _set_distance(lam, ref)
        if drift > tol:
            problems.append(f"eigenvalues moved {drift:.3e} > {tol:.3e} from reference")
    _, mags = _read_csv(outdir / "eigvecs.csv")
    sums = mags[:, 1:].sum(axis=0)
    if len(sums) != len(lam) or np.abs(sums - 1.0).max() > COLUMN_SUM_TOL:
        problems.append("eigvecs.csv columns do not each sum to 1")
    return problems


def check_ringdown(op: Op, outdir: Path, reference: dict) -> list[str]:
    report = json.loads((outdir / "transient.json").read_text())
    problems = []
    profile = np.array(report["profile"])
    if profile.min() < 0.0 or abs(profile.sum() - 1.0) > PROFILE_SUM_TOL:
        problems.append("ground-current profile is not a distribution")
    _, energy = _read_csv(outdir / "energy.csv")
    post = energy[energy[:, 0] >= report["switch_time"], 1]
    growth = np.diff(post).max()
    if growth > ENERGY_GROWTH_TOL * post[0]:
        problems.append(f"stored energy grew by {growth:.3e} after release")
    ref = reference["ringdown"][op.key]
    if abs(report["final_energy"] - ref) > FINAL_ENERGY_TOL * abs(ref):
        problems.append(f"final energy {report['final_energy']!r}, reference {ref!r}")
    return problems


CHECKS = {"sweep": check_sweep, "chain": check_chain, "ringdown": check_ringdown}
