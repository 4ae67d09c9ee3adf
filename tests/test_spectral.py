import numpy as np
import pytest

import topochain as tc
from topochain.errors import OutOfRange, TrackingAmbiguous
from topochain import spectral
from topochain.spectral import BRANCH_LABELS, midpoint_grid

from conftest import ROWS, assert_close, row_params
from reference import chain_matrix_from_hoppings, continue_step, real_space_matrix

# 50-digit mpmath roots (tools/oracles/root_reference.py), lexicographic order
ROOTS_ROW2_K_THIRD_PI = [
    -3.9034471493958173 + 0.28692731352856501j,
    -0.71766276249071808 + 0.011318300506522709j,
    0.71766276249071808 + 0.011318300506522709j,
    3.9034471493958173 + 0.28692731352856501j,
]
ROOTS_ROW4_K21 = [
    -4.3477737078793535 + 0.11477728708556820j,
    -0.47883537477603901 + 0.29983761740496706j,
    0.47883537477603901 + 0.29983761740496706j,
    4.3477737078793535 + 0.11477728708556820j,
]


def test_coefficients_constant_term_is_one():
    coeffs = spectral._quartic(row_params(1), 1.3)
    assert coeffs[0] == 1.0
    assert coeffs.dtype == np.float64 and len(coeffs) == 5


def test_coefficients_match_direct_determinant():
    """Quartic route against the cleared-denominator determinant.

    (omega^2 L eta1 eta2)^2 (Lambda^2 - y_x^2 - y_y^2) evaluated straight
    from the matrix entries must equal eta1 eta2 Q(-i omega); the two code
    paths share no algebra (tools/oracles/polynomial_crosscheck.py route B).
    """
    rng = np.random.default_rng(7)
    for _ in range(40):
        r1, r2, c1, c2, l = rng.uniform(0.05, 2.0, size=5)
        k = rng.uniform(0.0, 2.0 * np.pi)
        p = tc.CircuitParams(r1, r2, c1, c2, l, n_cells=2)
        coeffs = spectral._quartic(p, k)
        for _ in range(5):
            w = complex(rng.normal(), rng.normal())
            if abs(w) < 0.3:
                continue
            eta1 = 1.0 + 1j * w * r1 * c1
            eta2 = 1.0 + 1j * w * r2 * c2
            y = tc.bloch_admittance(p, w, k)
            lam = tc.lambda_diag(p, w)
            direct = (w**2 * l * eta1 * eta2) ** 2 \
                * (lam**2 - y.y_x**2 - y.y_y**2)
            s = -1j * w
            poly = eta1 * eta2 * sum(c * s**j for j, c in enumerate(coeffs))
            scale = abs(eta1 * eta2) * max(abs(c) * abs(s) ** j for j, c in enumerate(coeffs))
            assert abs(poly - direct) / scale < 1e-12


def test_degenerate_leading_coefficient_lossless():
    """A lossless circuit has a biquadratic Q off the zone endpoints; only
    at cos k == 1 does the degree collapse."""
    p = tc.CircuitParams(0.0, 0.0, 1.0, 1.0, 1.0)
    coeffs = spectral._quartic(p, 1.0)
    assert coeffs[1] == 0.0 and coeffs[3] == 0.0
    assert coeffs[4] > 0.0
    assert spectral._quartic(p, 0.0)[4] == 0.0


@pytest.mark.parametrize("k", [0.0, 2.0 * np.pi])
@pytest.mark.parametrize("params, want", [
    (row_params(4), 3),
    (tc.CircuitParams(0.0, 0.0, 1.0, 1.0, 1.0), [-0.5, 0.5]),
])
def test_zone_endpoint_roots(params, want, k):
    """At cos k == 1 Q loses its s^4 term, and natural_frequencies solves
    the lower-degree polynomial left: a cubic for row 4, the quadratic
    1 + 4 s^2 (omega = +-0.5) for the lossless unit circuit.  Each root
    passes the root-residual gate."""
    roots = tc.natural_frequencies(params, k).physical_roots
    if isinstance(want, int):
        assert len(roots) == want
    else:
        assert_close(roots, want, 1e-14, "lossless endpoint roots")
    coeffs = spectral._quartic(params, k)
    s = -1j * roots
    terms = coeffs * s[:, None] ** np.arange(5)
    residual = np.abs(terms.sum(axis=1)) / np.abs(terms).sum(axis=1)
    assert residual.max() <= spectral.ROOT_RESIDUAL_TOL


def test_roots_against_mpmath_row2():
    fr = tc.natural_frequencies(row_params(2), np.pi / 3)
    assert_close(fr.physical_roots, ROOTS_ROW2_K_THIRD_PI, 1e-10, "row2 roots")


def test_roots_against_mpmath_row4():
    fr = tc.natural_frequencies(row_params(4), 2.1)
    assert_close(fr.physical_roots, ROOTS_ROW4_K21, 1e-10, "row4 roots")


def _pole_mismatch(fr, params):
    want = np.array(params.pole_frequencies())
    assert len(fr.pole_roots) == 2
    return max(np.abs(fr.pole_roots - w).min() / abs(w) for w in want)


@pytest.mark.parametrize("row", list(ROWS))
def test_pole_roots_k_independent(row):
    p = row_params(row)
    for k in (0.3, 1.1, 2.0, np.pi, 4.4, 5.9):
        fr = tc.natural_frequencies(p, k)
        assert _pole_mismatch(fr, p) < 1e-8, (row, k)


def test_pole_roots_random_params():
    rng = np.random.default_rng(3)
    for _ in range(60):
        r1, r2, c1, c2, l = rng.uniform(0.05, 2.0, size=5)
        p = tc.CircuitParams(r1, r2, c1, c2, l, n_cells=2)
        k = rng.uniform(0.05, 2 * np.pi - 0.05)
        assert _pole_mismatch(tc.natural_frequencies(p, k), p) < 1e-8


def test_root_set_mirror_symmetric():
    # coefficients alternate real/imaginary, so roots come in
    # (omega, -conj(omega)) pairs; 2000-draw sweep measured 5.9e-14 worst
    rng = np.random.default_rng(11)
    for _ in range(200):
        r1, r2, c1, c2, l = rng.uniform(0.02, 2.0, size=5)
        p = tc.CircuitParams(r1, r2, c1, c2, l, n_cells=2)
        k = rng.uniform(0.05, 2.0 * np.pi - 0.05)
        roots = tc.natural_frequencies(p, k).roots
        for z in -np.conj(roots):
            assert np.abs(roots - z).min() / max(1.0, abs(z)) < 1e-10


def test_lossless_limit_four_real_roots():
    p = tc.CircuitParams(0.0, 0.0, 0.95, 0.45, 0.81)
    fr = tc.natural_frequencies(p, 1.0)
    assert len(fr.roots) == 4
    assert len(fr.pole_roots) == 0
    assert np.abs(fr.roots.imag).max() < 1e-12


def test_midpoint_grid():
    g = midpoint_grid(4)
    assert_close(g, np.pi / 4 * np.array([1, 3, 5, 7]), 1e-15)


def test_band_trace_needs_enough_points():
    with pytest.raises(TrackingAmbiguous):
        tc.band_trace(row_params(1), 32)


@pytest.mark.parametrize("row", list(ROWS))
def test_branch_structure(row, bands_all_rows):
    band = bands_all_rows[row]
    assert set(band.branches) == set(BRANCH_LABELS)
    assert all(len(b) == 1024 for b in band.branches.values())
    # hybrid pair trades places across the zone boundary, m branches close
    assert band.closure_permutation == (0, 2, 1, 3)
    assert set(band.continuity_residual) == set(BRANCH_LABELS)
    # the closed m branches step smoothly; the hybrids blow up at the axis
    # pole so only their identities, not their step sizes, are constrained
    assert band.continuity_residual["omega3"] < 1.0
    assert band.continuity_residual["omega6"] < 1.0


def _sweep_point(seed, index):
    # point `index` of perfbench's sweep_points(seed): rows of (r1, r2, c1, c2, l)
    draws = np.random.default_rng(seed).uniform(0.05, 2.0, size=(index + 1, 5))
    return tc.CircuitParams(*draws[index], n_cells=2)


def _stepwise_trace(params, n_k):
    """Branches continued one reference.continue_step per grid step over the
    band's own mirrored rows (the first ceil(n_k / 2) rows solved, then the
    same rows reversed), and the last -> first assignment: the oracle of the
    reflection shortcut, which never reads a second-half step."""
    h = (n_k + 1) // 2
    half = spectral._solve(params, midpoint_grid(n_k)[:h])
    roots = np.concatenate([half, half[::-1][2 * h - n_k:]])
    traced = np.empty((n_k, 4), dtype=complex)
    traced[0] = roots[0]
    for j in range(1, n_k):
        traced[j] = roots[j][continue_step(traced[j - 1], roots[j])]
    closure = tuple(continue_step(traced[-1], traced[0]).tolist())
    return traced, closure


def test_tracking_matches_stepwise_assignment(bands_all_rows):
    """Bitwise the stepwise oracle's branches and closure on the four rows
    at 256, 257 and 1024 points, on 40 random 2-cell draws (the sweep's
    element range), some of which pass a square-root branch point, and on
    three sweep points with 2 <-> 4 tie steps."""
    rng = np.random.default_rng(5001)
    cases = [(tc.CircuitParams(*row, n_cells=2), 256)
             for row in rng.uniform(0.05, 2.0, size=(40, 5))]
    cases += [(row_params(row), n_k) for row in ROWS for n_k in (256, 257, 1024)]
    cases += [(_sweep_point(seed, i), 256) for seed, i in ((8001, 100), (5001, 48), (1, 154))]
    for p, n_k in cases:
        band = tc.band_trace(p, n_k)
        want, closure = _stepwise_trace(p, n_k)
        for i, lab in enumerate(BRANCH_LABELS):
            assert np.array_equal(band.branches[lab], want[:, i]), (p, n_k, lab)
        assert band.closure_permutation == closure, (p, n_k)


def test_axis_pair_tie_goes_to_smaller_im():
    """sweep_points(8001)[100], step 33 of n_k = 256: a mirror pair lands on
    the imaginary axis beside another axis pair (axis count 2 -> 4).  The
    two cheapest permutations cost bitwise the same, and the trace continues
    the Re < 0 member into the smaller-Im axis root.  The closures of four
    points with such steps do not depend on the grid."""
    p = _sweep_point(8001, 100)
    roots = spectral._solve(p, midpoint_grid(256)[:128])
    assert [np.count_nonzero(roots[j].real == 0.0) for j in (33, 34)] == [2, 4]
    cost = np.sort(spectral._step_costs(roots)[0][33])
    assert cost[0] == cost[1] < cost[2]
    traced = np.stack(list(tc.band_trace(p, 256).branches.values()), axis=1)
    (neg,), (pos,) = np.flatnonzero(traced[33].real < 0.0), np.flatnonzero(traced[33].real > 0.0)
    assert np.all(traced[34].real == 0.0)
    assert traced[34, neg].imag < traced[34, pos].imag
    for (seed, i), want in {(5001, 48): (0, 1, 3, 2), (8001, 8): (1, 0, 2, 3),
                            (8001, 100): (1, 0, 2, 3), (8001, 136): (0, 1, 3, 2)}.items():
        for n_k in (256, 257, 512, 1024, 4096):
            assert tc.band_trace(_sweep_point(seed, i), n_k).closure_permutation == want, \
                (seed, i, n_k)


@pytest.mark.parametrize("n_k", [256, 257])
def test_band_rows_mirror(n_k):
    """The first ceil(n_k / 2) rows are bitwise the roots solved there, and
    row n_k - 1 - j holds row j's roots in some slot order."""
    p = row_params(4)
    h = (n_k + 1) // 2
    band = tc.band_trace(p, n_k)
    traced = np.stack([band.branches[lab] for lab in BRANCH_LABELS], axis=1)
    solved = spectral._solve(p, midpoint_grid(n_k)[:h])
    assert np.array_equal(np.sort(traced[:h], axis=1), solved)
    for j in range(h):
        assert np.array_equal(np.sort(traced[n_k - 1 - j]), np.sort(traced[j])), j


def _step(prev, new):
    """The index of new that band_trace continues each root of prev into."""
    op, on = np.lexsort((prev.imag, prev.real)), np.lexsort((new.imag, new.real))
    cost = spectral._step_costs(np.stack([prev[op], new[on]]))[0][0]
    step = np.empty(4, dtype=int)
    step[op] = on[spectral._PERMS[cost.argmin()]]
    return step.tolist()


def test_branch_point_convention():
    """At a square-root branch point the larger-|Im| axis root continues
    into the Re > 0 member of the newborn pair and the smaller into Re < 0;
    on re-merging the Re > 0 member continues into the smaller-|Im| axis
    root.  Both synthetic steps are built so that minimum distance would
    pair the axis roots the other way; the far roots follow distance.  A
    mirror pair leaving the axis beside another axis pair (4 -> 2) ties,
    and the smaller-Im axis root continues into the Re < 0 member."""
    far = np.array([3.0 + 0.1j, -3.0 + 0.1j])
    # split: the axis roots 1.0i (slot 1) and 1.2i (slot 3) leave the axis
    prev = np.array([far[0], 1.0j, far[1], 1.2j])
    new = np.array([-0.05 + 1.15j, far[1] - 0.01, 0.05 + 1.05j, far[0] + 0.01])
    assert _step(prev, new) == continue_step(prev, new).tolist() == [3, 0, 1, 2]
    # merge: 0.05 + 1.15i (slot 0) and -0.05 + 1.05i (slot 2) meet the axis
    prev = np.array([0.05 + 1.15j, far[0], -0.05 + 1.05j, far[1]])
    new = np.array([1.2j, far[1] - 0.01, 1.0j, far[0] + 0.01])
    assert _step(prev, new) == continue_step(prev, new).tolist() == [2, 3, 0, 1]
    # tie: 1.2i (slot 0) and 1.0i (slot 2) leave as +-0.1 + 1.1i; 0.5i and
    # 2.0i stay on the axis
    prev = np.array([1.2j, 0.5j, 1.0j, 2.0j])
    new = np.array([0.1 + 1.1j, 2.02j, -0.1 + 1.1j, 0.48j])
    rows = np.stack([np.sort_complex(prev), np.sort_complex(new)])
    cost = np.sort(spectral._step_costs(rows)[0][0])
    assert cost[0] == cost[1]
    assert _step(prev, new) == continue_step(prev, new).tolist() == [0, 3, 2, 1]


def test_branch_first_points_row4(band_row4):
    # canonical labels: lexicographic (Re, Im) at the first midpoint
    first = {lab: band_row4.branches[lab][0] for lab in BRANCH_LABELS}
    assert first["omega3"].real == pytest.approx(-0.482236, abs=1e-5)
    assert first["omega3"].imag == pytest.approx(0.295279, abs=1e-5)
    assert first["omega6"].real == pytest.approx(+0.482236, abs=1e-5)
    assert abs(first["omega4"].real) < 1e-8
    assert abs(first["omega5"].real) < 1e-8
    assert first["omega4"].imag < first["omega5"].imag


def test_grid_refinement_consistency():
    """Tracking at n_k and 2 n_k agrees where the grids coincide.

    The coarse midpoint grid is exactly every second point of the doubled
    one shifted by half a step; instead we compare on a common k by
    re-solving, branch by branch, at the coarse grid's k values.
    """
    p = row_params(3)
    coarse = tc.band_trace(p, 128)
    fine = tc.band_trace(p, 256)
    for lab in ("omega3", "omega6"):
        cb = coarse.branches[lab]
        fb = fine.branches[lab]
        # nearest fine sample sits half a coarse step away at most
        for j in range(0, 128, 17):
            k = coarse.k_grid[j]
            jf = np.argmin(np.abs(fine.k_grid - k))
            assert abs(cb[j] - fb[jf]) < 0.05


def test_lambda_spectrum_and_gap(band_row4):
    p = row_params(4)
    lams = tc.lambda_spectrum(p, band_row4)
    assert set(lams) == set(BRANCH_LABELS)
    for lab in ("omega3", "omega6"):
        gap = tc.bulk_gap(p, band_row4.branches[lab])
        assert gap == pytest.approx(2.654656483, rel=1e-6)
        assert gap == pytest.approx(2.0 * np.abs(lams[lab]).min(), rel=1e-12)
    for lab in ("omega4", "omega5"):
        assert tc.bulk_gap(p, band_row4.branches[lab]) == pytest.approx(
            1.566e-4, rel=1e-2)


def test_bulk_gap_refuses_empty_branch():
    """An empty branch has no gap; the refusal is a package error."""
    with pytest.raises(OutOfRange, match="non-empty branch"):
        tc.bulk_gap(row_params(4), np.array([], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigendecompose_refuses_non_finite_entries(bad):
    p = row_params(1, n_cells=3)
    m = np.eye(6, dtype=complex)
    m[2, 3] = bad
    with pytest.raises(OutOfRange, match="non-finite"):
        tc.eigendecompose(tc.RealSpaceMatrix(entries=m, params=p))


def test_eigendecompose_sorting_and_norms():
    p = row_params(1, n_cells=10)
    m = real_space_matrix(p, 1.0 + 0.5j)
    spec = tc.eigendecompose(m)
    assert spec.n_states == 20
    norms = np.linalg.norm(spec.eigenvectors, axis=0)
    assert_close(norms, np.ones(20), 1e-12, "unit columns")
    keys = [(z.real, z.imag) for z in spec.eigenvalues]
    assert keys == sorted(keys)


def test_eigendecompose_residuals():
    p = row_params(4, n_cells=30)
    m = real_space_matrix(p, 0.9 + 0.1j)
    spec = tc.eigendecompose(m)
    for i in range(spec.n_states):
        r = m.entries @ spec.eigenvectors[:, i] \
            - spec.eigenvalues[i] * spec.eigenvectors[:, i]
        assert np.linalg.norm(r) < 1e-10


def test_ipr_and_end_weights():
    m = np.zeros((6, 6), dtype=complex)
    m[0, 0] = 1.0  # the lambda = 1 state is pinned to the first site
    p = row_params(1, n_cells=3)
    spec = tc.eigendecompose(tc.RealSpaceMatrix(entries=m, params=p))
    j = int(np.argmax(np.abs(spec.eigenvalues)))
    assert spec.ipr[j] == pytest.approx(1.0)
    assert spec.left_weight[j] == pytest.approx(1.0)
    assert spec.right_weight[j] == pytest.approx(0.0)


def test_branch_effective_matrix_needs_dense_grid():
    p = row_params(4, n_cells=200)
    band = tc.band_trace(p, 256)
    with pytest.raises(OutOfRange):
        tc.branch_effective_matrix(p, band, "omega6")


def test_branch_effective_matrix_reciprocal_on_m_branch(band_row4):
    """The closed m branches give reciprocal (transpose-symmetric) chains.

    Non-reciprocity enters only through the zone-boundary swap of the
    hybrid pair, so omega6's effective chain must be symmetric to rounding
    while omega4's must not.
    """
    p = row_params(4, n_cells=40)
    sym = tc.branch_effective_matrix(p, band_row4, "omega6").entries
    asym = tc.branch_effective_matrix(p, band_row4, "omega4").entries
    scale = np.abs(sym).max()
    assert np.abs(sym - sym.T).max() < 1e-10 * scale
    assert np.abs(asym - asym.T).max() > 1e-5 * np.abs(asym).max()


def test_dimer_reference_zero_modes():
    # |v| < |w| hosts two end modes with exponentially small energy
    m = chain_matrix_from_hoppings(0.5, 1.0, 20, tc.Boundary.OPEN)
    vals = np.sort(np.abs(np.linalg.eigvalsh(m)))
    assert vals[0] < 1e-4 and vals[1] < 1e-4
    assert vals[2] > 0.4
    m_trivial = chain_matrix_from_hoppings(1.0, 0.5, 20, tc.Boundary.OPEN)
    vals_t = np.sort(np.abs(np.linalg.eigvalsh(m_trivial)))
    assert vals_t[0] > 0.4
