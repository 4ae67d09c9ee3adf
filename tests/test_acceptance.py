"""Acceptance gate: ten criteria, one test line per criterion.

Three criteria assert target values this implementation measurably cannot
produce.  Those are strict expected failures: the test body asserts the
criterion exactly as stated, the reason string summarizes why it cannot
hold, and companion tests freeze what the code actually computes so any
drift stays visible.  Everything frozen here was produced by the oracle
scripts under tools/oracles/ and verified against independent routes.
"""

import time

import numpy as np
import pytest

import topochain as tc
from topochain.cli import (
    _section,
    _setup_from_section,
    load_preset,
    preset_names,
    run_command,
)
from topochain.errors import OriginCrossing
from topochain.spectral import BRANCH_LABELS
from topochain.topology import winding_crossings

from conftest import ROWS, row_params
from reference import SIGMA_Z, hermitian_reference_bands

TABLE_MULTISETS = {
    1: sorted([-1, 1, 1, 0]),
    2: sorted([0, 0, 2, 0]),
    3: sorted([1, 0, 0, 1]),
    4: sorted([2, 1, -1, 0]),
}
CERTIFIED_WINDINGS = {
    1: {"omega3": 1, "omega6": 1},
    2: {"omega3": 0, "omega6": 0},
    3: {"omega3": 1, "omega6": 1},
    4: {"omega3": 1, "omega6": 1},
}
EDGE_DRIFT_BOUND = 0.004   # robustness ceiling; the edge span moves 1e-15


# --- criterion 1 -----------------------------------------------------------

@pytest.mark.xfail(strict=True, reason=(
    "the certifiable branch windings are {1,1}/{0,0}/{1,1}/{1,1}; the other "
    "two branches pass within ~1e-4 of the origin, where the invariant is "
    "undefined; the target multisets are sign-asymmetric, which the exact "
    "root mirror symmetry omega -> -conj(omega) forbids"))
def test_criterion_01_table_winding_multisets():
    """Per-row winding multisets against the four tabulated targets.

    Cannot hold for two independent reasons, both machine-checked below in
    the companions: (a) every coefficient of the band polynomial satisfies
    conj(c_j) = (-1)^j c_j, so roots come in (omega, -conj(omega)) pairs
    and any per-branch multiset must be symmetric under mu -> mu of the
    mirrored branch; rows 1, 2, and 4 are not.  (b) The zone-boundary pair
    of branches grazes the origin of the projected-hopping plane (minimum
    distance about 1.6e-4 at these elements), so their winding fails the
    origin-crossing gate at every tested grid. The two certifiable branches
    give sub-multisets of rows 1-3 but contradict row 4.
    """
    for row, want in TABLE_MULTISETS.items():
        t0 = time.perf_counter()
        p = row_params(row)
        band = tc.band_trace(p, 1024)
        results = tc.winding_per_branch(p, band)
        for r in results.values():
            assert abs(r.quadrature - r.winding) < 1e-3
        got = sorted(r.winding for r in results.values())
        assert time.perf_counter() - t0 < 10.0
        assert got == want, f"row {row}: {got} != {want}"


def test_criterion_01_companion_certified_windings():
    """What the winding computation actually certifies, frozen, <10 s/row."""
    for row, want in CERTIFIED_WINDINGS.items():
        t0 = time.perf_counter()
        p = row_params(row)
        band = tc.band_trace(p, 1024)
        results = tc.winding_per_branch(p, band)
        assert {lab: r.winding for lab, r in results.items()} == want
        for r in results.values():
            assert abs(r.quadrature - r.winding) < 1e-3
        for lab in ("omega4", "omega5"):
            assert lab not in results
            with pytest.raises(OriginCrossing):
                tc.winding_number(p, band.branches[lab], band.k_grid)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_01_companion_root_mirror_symmetry():
    """The pairing that rules the multisets out: every polynomial root at
    every k comes with its reflection through the imaginary axis."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        r1, r2, c1, c2, l = rng.uniform(0.05, 2.0, size=5)
        p = tc.CircuitParams(r1, r2, c1, c2, l, n_cells=2)
        roots = np.array(tc.natural_frequencies(p, rng.uniform(0, 2 * np.pi)).roots)
        mirrored = -np.conj(roots)
        worst = max(np.abs(roots - z).min() for z in mirrored)
        assert worst < 1e-7 * max(1.0, np.abs(roots).max())


# --- criterion 2 -----------------------------------------------------------

def test_criterion_02_lossless_limit_closed_form():
    """Zero-resistance bands against the closed-form two-band expression on
    a 256-point grid: omega^2 * X * L * sqrt(C1 C2) = 1 with the large X
    pairing with the small root.  Frozen worst deviation 5.0e-13
    (tools/oracles/lossless_duality.py)."""
    c1, c2, l = 0.95, 0.45, 0.81
    p = tc.CircuitParams(0.0, 0.0, c1, c2, l, n_cells=2)
    scale = l * np.sqrt(c1 * c2)
    worst = 0.0
    for k in tc.midpoint_grid(256):
        fr = tc.natural_frequencies(p, k)
        assert len(fr.pole_roots) == 0
        pos = np.sort([z.real for z in fr.roots if z.real > 1e-12])
        assert len(pos) == 2
        x_minus, x_plus = hermitian_reference_bands(c1, c2, l, k)
        worst = max(worst,
                    abs(pos[0] ** 2 * x_plus * scale - 1.0),
                    abs(pos[1] ** 2 * x_minus * scale - 1.0))
    assert worst < 1e-9


# --- criterion 3 -----------------------------------------------------------

def test_criterion_03_pole_roots_exact_and_k_independent():
    """The poles are roots at every k because the band sextic factors as
    p(omega) = eta1 eta2 Q(-i omega): checked at random complex omega
    against the determinant (omega^2 L eta1 eta2)^2 (Lambda^2 - y_x^2 - y_y^2)
    straight from the Bloch entries."""
    draws = [(row_params(row), k)
             for row in ROWS for k in tc.midpoint_grid(16)]
    rng = np.random.default_rng(3)
    for _ in range(60):
        r1, r2, c1, c2, l = rng.uniform(0.05, 2.0, size=5)
        draws.append((tc.CircuitParams(r1, r2, c1, c2, l, n_cells=2),
                      rng.uniform(0.0, 2.0 * np.pi)))
    for p, k in draws:
        got = np.array(tc.natural_frequencies(p, k).pole_roots)
        assert len(got) == 2
        for want in (1j / (p.r1 * p.c1), 1j / (p.r2 * p.c2)):
            assert np.abs(got - want).min() < 1e-8 * abs(want)
        q = tc.band_polynomial_coefficients(p, k)
        for w in rng.normal(size=4) + 1j * rng.normal(size=4):
            eta1, eta2 = 1.0 + 1j * w * p.r1 * p.c1, 1.0 + 1j * w * p.r2 * p.c2
            y = tc.bloch_admittance(p, w, k)
            direct = (w**2 * p.l * eta1 * eta2) ** 2 \
                * (tc.lambda_diag(p, w) ** 2 - y.y_x**2 - y.y_y**2)
            terms = q * (-1j * w) ** np.arange(5)
            factored = eta1 * eta2 * terms.sum()
            assert abs(factored - direct) < 1e-12 * abs(eta1 * eta2) * np.abs(terms).max()


# --- criterion 4 -----------------------------------------------------------

def test_criterion_04_sublattice_symmetry_identities():
    """Both identities hold exactly (frozen deviation 0.0 over 1e4 draws):
    plain anticommutation, and the conjugate-transpose form once the
    frequency is reflected through the imaginary axis, because conjugating
    the hoppings maps v(omega) to v(-conj(omega))."""
    rng = np.random.default_rng(23)
    worst_anti = 0.0
    worst_dagger = 0.0
    for _ in range(10_000):
        r1, r2, c1, c2, l = rng.uniform(0.05, 2.0, size=5)
        p = tc.CircuitParams(r1, r2, c1, c2, l, n_cells=2)
        omega = complex(rng.normal(), rng.normal())
        if abs(omega) < 0.1:
            continue
        k = rng.uniform(0.0, 2.0 * np.pi)
        y = tc.bloch_admittance(p, omega, k).entries
        y_mirror = tc.bloch_admittance(p, -np.conj(omega), k).entries
        worst_anti = max(worst_anti,
                         np.abs(SIGMA_Z @ y @ SIGMA_Z + y).max())
        worst_dagger = max(worst_dagger,
                           np.abs(SIGMA_Z @ y.conj().T @ SIGMA_Z + y_mirror).max())
    assert worst_anti < 1e-12
    assert worst_dagger < 1e-12


# --- criterion 5 -----------------------------------------------------------

def test_criterion_05_winding_route_equivalence(random_draw_bands):
    """Signed-angle accumulation, trapezoid quadrature of the log-derivative,
    and axis-crossing counting agree on every curve that clears the
    origin-crossing gate: all four element rows plus 100 random sets."""
    for row, want in CERTIFIED_WINDINGS.items():
        p = row_params(row)
        band = tc.band_trace(p, 1024)
        for lab, mu in want.items():
            br = band.branches[lab]
            assert tc.winding_number(p, br, band.k_grid) == mu
            assert winding_crossings(p, br, band.k_grid) == mu
            assert round(tc.winding_quadrature(p, br, band.k_grid)) == mu

    certified = 0
    excluded = 0
    for p, band in random_draw_bands:
        for lab, br in band.branches.items():
            try:
                mu = tc.winding_number(p, br, band.k_grid)
            except OriginCrossing:
                excluded += 1
                continue
            assert winding_crossings(p, br, band.k_grid) == mu
            assert round(tc.winding_quadrature(p, br, band.k_grid)) == mu
            certified += 1
    assert certified == 225
    assert excluded == 175


# --- criterion 6 -----------------------------------------------------------

@pytest.mark.xfail(strict=True, reason=(
    "no branch at these elements carries mu in {2, -1, 0} apart from the "
    "trivial rows; the fourth row's certifiable branches both give mu = 1 "
    "and the remaining pair is origin-crossing, so branches to test the "
    "mu = 2, -1, 0 clauses against do not exist"))
def test_criterion_06_bulk_edge_for_tabulated_windings(band_row4):
    """Edge-state count per edge equals |mu| on the branches with mu = 1,
    -1, 0, and the mu = 2 branch shows >= 2 in-gap states.  The premise
    fails: the required mu values never occur (companion below pins the law
    on the branches that do exist)."""
    p = row_params(4)
    mus = {}
    for lab in BRANCH_LABELS:
        try:
            mus[lab] = tc.winding_number(p, band_row4.branches[lab],
                                         band_row4.k_grid)
        except OriginCrossing:
            mus[lab] = None
    assert {2, -1, 0} <= set(mus.values()), f"windings found: {mus}"


def test_criterion_06_companion_edge_law_on_certified_branches(chain300):
    """On the two mu = 1 branches of the 300-cell open chain: one boundary
    mode per edge, pinned at zero admittance.  The pair is numerically
    degenerate, so the solver returns arbitrary mixtures of the left and
    right modes; the basis-free certificate is the pair's summed weight,
    unit mass at each end.  The origin-crossing pair carries no certificate
    but still shows its two in-gap zero modes; all counts frozen."""
    for lab in ("omega3", "omega6"):
        spec, gap, _ = chain300[lab]
        assert gap == pytest.approx(2.654656483, rel=1e-6)
        edges = [i for i, t in enumerate(spec.labels) if t == "Edge"]
        assert len(edges) == 2   # |mu| = 1 per edge, two edges
        pair_mass = sum(np.abs(spec.eigenvectors[:, i]) ** 2 for i in edges)
        assert pair_mass[:10].sum() == pytest.approx(1.0, abs=0.05)
        assert pair_mass[-10:].sum() == pytest.approx(1.0, abs=0.05)
        for i in edges:
            assert abs(spec.eigenvalues[i]) < 1e-10 * gap
    for lab in ("omega4", "omega5"):
        spec, gap, _ = chain300[lab]
        assert gap == pytest.approx(0.000156600, rel=1e-4)
        assert spec.labels.count("Edge") == 2


# --- criterion 7 -----------------------------------------------------------

def test_criterion_07_skin_effect_biconditional(chain300, band_row4):
    """skin_effect_present is true exactly where the open-chain spectrum
    shows macroscopic boundary accumulation: Skin-labeled states plus a
    center-of-mass shift beyond one site (frozen: -4.56 sites on the
    zone-boundary-swapped pair, |shift| < 1e-8 on the other two, whose
    Edge pair is summed as one degenerate cluster).  The pair with skin is
    the pair one period of k carries onto each other."""
    for lab in BRANCH_LABELS:
        spec, gap, _ = chain300[lab]
        com = tc.center_of_mass_shift(spec)
        accumulates = abs(com) > 1.0 and spec.labels.count("Skin") > 0
        present = tc.skin_effect_present(band_row4, lab)
        assert present == accumulates, f"{lab}: {present} vs com {com:.3f}"
    closure = band_row4.closure_permutation
    assert BRANCH_LABELS[closure[BRANCH_LABELS.index("omega4")]] == "omega5"
    assert BRANCH_LABELS[closure[BRANCH_LABELS.index("omega5")]] == "omega4"
    assert tc.skin_effect_present(band_row4, "omega4") is True
    assert tc.skin_effect_present(band_row4, "omega6") is False


# --- criterion 8 -----------------------------------------------------------

def test_criterion_08_perturbation_robustness(chain300):
    """5% scaling of all bonds touching the three center cells: the edge
    subspace stays within the bound while bulk profiles blow through ten
    times the bound (measured 1e-15 vs 1.41).  The edge pair is degenerate
    to roundoff, so its drift is the projector distance between the spans;
    each edge mode has decayed below 1e-240 at the perturbed cells, so the
    span moves by roundoff only, and anything above 1e-12 is an error."""
    spec, _, matrix = chain300["omega6"]
    pert = tc.perturb_chain(matrix, (149, 150, 151), 0.05)
    rep = tc.compare_perturbed(spec, tc.eigendecompose(pert))
    assert rep.edge_state_drift < EDGE_DRIFT_BOUND
    assert rep.bulk_state_drift > 10.0 * EDGE_DRIFT_BOUND
    assert rep.edge_state_drift < 1e-12
    assert rep.bulk_state_drift == pytest.approx(1.411329684702, rel=1e-6)
    assert rep.max_eigenvalue_shift == pytest.approx(0.091822851192, rel=1e-6)


# --- criterion 9 -----------------------------------------------------------

def _ringdown(preset: str):
    config = load_preset(preset)
    params = tc.circuit_from_mapping(config["circuit"])
    section = _section(config, "transient")
    setup, drive = _setup_from_section(params, section)
    t0 = time.perf_counter()
    trace = tc.simulate(setup, max_samples=int(section["max_samples"]))
    wall = time.perf_counter() - t0
    fit_t0 = trace.switch_time + float(section["fit_t0_periods"]) * setup.drive_period
    n_nodes = 2 * params.n_cells
    fits = {}
    for node in (0, n_nodes // 2, n_nodes - 1):
        fits[node] = tc.fit_damped_oscillation(
            trace.times, trace.ground_currents[:, node], fit_t0)
    window = (trace.switch_time + 3.0 * setup.drive_period,
              float(trace.times[-1]))
    profile = tc.ground_current_profile(trace, window)
    target = complex(*drive["mode"])
    return {"fits": fits, "profile": profile, "target": target,
            "wall": wall, "n_nodes": n_nodes}


@pytest.fixture(scope="module")
def ringdown_band_edge():
    return _ringdown("fig8b")


@pytest.fixture(scope="module")
def ringdown_low_frequency():
    return _ringdown("fig8a")


@pytest.mark.xfail(strict=True, reason=(
    "the released network is reciprocal (complex-symmetric Laplacian), so "
    "its ringdown relaxes onto the least-damped natural-mode cluster near "
    "3.79 + 0.011i regardless of what was driven: the low-frequency panels "
    "fit 7x off their drive, the band-edge panel's decay rate lands 2.6% "
    "off (window-dependent beating between cluster members), and the RMS "
    "current profiles are exactly mirror-symmetric, never one-sided"))
def test_criterion_09_transient_cross_validation(ringdown_band_edge):
    """State-matrix eigenvalues vs polynomial roots (holds, 1e-13), then
    ringdown fits within 1% of the driven mode (decay rate fails at 2.6%),
    then edge-concentrated / one-sided profiles (unreachable: profiles are
    symmetric to roundoff because mirror-image sources drive a reciprocal
    network).  Honest subresults are pinned by the companions."""
    n = 8
    p = row_params(4, n_cells=n, boundary=tc.Boundary.PERIODIC)
    space = tc.assemble_state_space(tc.TransientSetup(p, drive_frequency=1.0))
    evals = np.linalg.eigvals(space.a_free)
    candidates = [0.0]
    for m in range(n):
        candidates.extend(
            1j * z for z in tc.natural_frequencies(p, 2 * np.pi * m / n).roots)
    worst = max(np.abs(np.array(candidates) - z).min() / max(1.0, abs(z))
                for z in evals)
    assert worst < 1e-6

    run = ringdown_band_edge
    fit = run["fits"][run["n_nodes"] // 2]
    target = run["target"]
    assert abs(fit.omega_r - abs(target.real)) < 0.01 * abs(target.real)
    assert abs(fit.omega_i - target.imag) < 0.01 * target.imag


def test_criterion_09_companion_state_matrix(ringdown_band_edge):
    """The green clauses of criterion 9, frozen: eigenvalue match at 1e-12
    (criterion asks 1e-6), band-edge ringdown frequency within 1% of the
    driven mode at the mid-chain node (0.29%), runtime far under 5 min."""
    n = 8
    p = row_params(4, n_cells=n, boundary=tc.Boundary.PERIODIC)
    space = tc.assemble_state_space(tc.TransientSetup(p, drive_frequency=1.0))
    evals = np.linalg.eigvals(space.a_free)
    candidates = [0.0]
    for m in range(n):
        candidates.extend(
            1j * z for z in tc.natural_frequencies(p, 2 * np.pi * m / n).roots)
    worst = max(np.abs(np.array(candidates) - z).min() / max(1.0, abs(z))
                for z in evals)
    assert worst < 1e-12

    run = ringdown_band_edge
    assert run["wall"] < 300.0
    fit = run["fits"][run["n_nodes"] // 2]
    target = run["target"]
    assert abs(target.real) == pytest.approx(3.774312, abs=1e-4)
    assert abs(fit.omega_r - abs(target.real)) < 0.01 * abs(target.real)
    assert fit.omega_r == pytest.approx(3.785060417204, rel=1e-6)
    assert fit.omega_i == pytest.approx(0.010413783931, rel=1e-6)
    # the decay-rate miss that breaks the criterion, pinned: 2.64%
    rel_err = abs(fit.omega_i - target.imag) / target.imag
    assert 0.01 < rel_err < 0.1


def test_criterion_09_companion_cluster_lock(ringdown_low_frequency):
    """Driving the heavily damped low-frequency mode (0.478 + 0.301i) still
    rings down at the least-damped cluster near 3.79: the fitted frequency
    lands at 3.836, 7x the drive.  Pinned as the measured behavior behind
    the a/c-panel failure.  The mid-chain signal beats between cluster
    members, so one damped cosine leaves a residual with 88% of the signal's
    RMS: the fit is the converged least-squares summary of that beat, not a
    mode."""
    run = ringdown_low_frequency
    assert run["wall"] < 300.0
    assert abs(run["target"].real) == pytest.approx(0.477648, abs=1e-4)
    fit = run["fits"][run["n_nodes"] // 2]
    assert fit.omega_r == pytest.approx(3.835740476981, rel=1e-6)
    assert fit.rms_residual == pytest.approx(0.880478648039, rel=1e-6)
    assert fit.omega_r > 7.0 * abs(run["target"].real)


def test_criterion_09_companion_profile_symmetry(ringdown_band_edge,
                                                 ringdown_low_frequency):
    """RMS ground-current profiles are mirror-symmetric to roundoff in both
    protocols (sources sit at mirror-image nodes of a reciprocal network),
    so neither edge concentration nor one-sidedness can appear."""
    for run in (ringdown_band_edge, ringdown_low_frequency):
        prof = run["profile"]
        assert np.abs(prof - prof[::-1]).max() < 1e-6
        assert prof[:run["n_nodes"] // 2].sum() == pytest.approx(0.5, abs=1e-6)
    ends20 = ringdown_band_edge["profile"][:20].sum()
    assert ends20 == pytest.approx(0.000940, abs=2e-4)   # not edge-heavy


# --- criterion 10 ----------------------------------------------------------

def _preset_command(name: str) -> str:
    for prefix, command in (("table1", "winding"), ("fig3", "bands"),
                            ("fig6", "eigvecs"), ("fig8", "transient")):
        if name.startswith(prefix):
            return command
    raise AssertionError(f"no command mapping for preset '{name}'")


def test_criterion_10_preset_determinism(tmp_path):
    names = preset_names()
    assert len(names) == 14
    for name in names:
        command = _preset_command(name)
        dirs = []
        for tag in ("first", "second"):
            outdir = tmp_path / tag / f"{command}-{name}"
            run_command(command, load_preset(name), outdir, "csv")
            dirs.append(outdir)
        a, b = dirs
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b and files_a
        for fname in files_a:
            assert (a / fname).read_bytes() == (b / fname).read_bytes(), \
                f"{name}: {fname} differs between identical runs"
