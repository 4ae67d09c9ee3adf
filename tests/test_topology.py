from dataclasses import replace

import numpy as np
import pytest

import topochain as tc
from topochain.errors import (
    GapUnknown,
    OriginCrossing,
    OutOfRange,
)
from topochain import topology
from topochain.topology import winding_crossings

from conftest import ROWS, assert_close, row_params
from reference import (certified_winding, curve_quadrature, offdiag_product,
                       origin_gates, real_space_matrix)

# grid-stable winding facts measured at n_k = 256 and 1024
# (tools/oracles/winding_multisets.py): the gapped m branches certify an
# integer, the gapless hybrid pair refuses with OriginCrossing everywhere
DEFINED_WINDINGS = {
    1: {"omega3": 1, "omega6": 1},
    2: {"omega3": 0, "omega6": 0},
    3: {"omega3": 1, "omega6": 1},
    4: {"omega3": 1, "omega6": 1},
}


@pytest.mark.parametrize("row", list(ROWS))
def test_winding_per_branch_frozen(row, bands_all_rows):
    band = bands_all_rows[row]
    results = tc.winding_per_branch(row_params(row), band)
    assert {lab: r.winding for lab, r in results.items()} \
        == DEFINED_WINDINGS[row]


@pytest.mark.parametrize("row", list(ROWS))
def test_hybrid_branches_raise_origin_crossing(row, bands_all_rows):
    p = row_params(row)
    band = bands_all_rows[row]
    for lab in ("omega4", "omega5"):
        with pytest.raises(OriginCrossing):
            tc.winding_number(p, band.branches[lab], band.k_grid)


def test_winding_grid_stable():
    for row in ROWS:
        p = row_params(row)
        coarse = tc.band_trace(p, 256)
        got = {lab: r.winding
               for lab, r in tc.winding_per_branch(p, coarse).items()}
        assert got == DEFINED_WINDINGS[row]


@pytest.mark.parametrize("row", list(ROWS))
def test_three_routes_agree_on_defined_branches(row, bands_all_rows):
    p = row_params(row)
    band = bands_all_rows[row]
    for lab, want in DEFINED_WINDINGS[row].items():
        br = band.branches[lab]
        assert tc.winding_number(p, br, band.k_grid) == want
        assert winding_crossings(p, br, band.k_grid) == want
        quad = tc.winding_quadrature(p, br, band.k_grid)
        assert round(quad) == want
        # midpoint quadrature of these smooth curves carries the universal
        # pi^2/(3 n^2) leading error, 3.1e-6 at n_k = 1024
        assert abs(quad - want) < 1e-3


def test_winding_rejects_short_branch():
    """The sample floor guards the certified winding only; the quadrature
    and crossing routes read a curve of any length."""
    p = row_params(1)
    branch, k_grid = np.full(16, 1.0 + 0.1j), tc.midpoint_grid(16)
    with pytest.raises(OutOfRange):
        tc.winding_number(p, branch, k_grid)
    band = tc.BandSet(k_grid=k_grid, branches=dict.fromkeys(topology.BRANCH_LABELS, branch),
                      continuity_residual={}, closure_permutation=(0, 1, 2, 3))
    with pytest.raises(OutOfRange):
        tc.winding_per_branch(p, band)
    assert np.isfinite(tc.winding_quadrature(p, branch, k_grid))
    assert isinstance(winding_crossings(p, branch, k_grid), int)


def test_winding_routes_random_draws(random_draw_bands):
    """Angle, quadrature, and crossing routes agree wherever all are defined.

    Seeded draw, 100 parameter sets at n_k = 512: 225 of the 400 branch
    curves certify (the rest pass too close to the origin), and the three
    routes give the same integer on every certified curve.
    """
    defined = 0
    excluded = 0
    for p, band in random_draw_bands:
        for lab, br in band.branches.items():
            try:
                wa = tc.winding_number(p, br, band.k_grid)
            except OriginCrossing:
                excluded += 1
                continue
            assert winding_crossings(p, br, band.k_grid) == wa
            assert round(tc.winding_quadrature(p, br, band.k_grid)) == wa
            defined += 1
    assert defined == 225
    assert excluded == 175


def test_winding_refused_where_quadrature_disagrees():
    """A coarse grid can keep every segment turn under the pi/2 gate and
    still misread a near-origin passage: at n_k = 256 the hybrid pair's
    angle count reads 1 while the quadrature of the same curve reads 0.464
    (finer grids refuse the pair outright).  The pair must be refused."""
    p = tc.CircuitParams(0.1488923269822715, 0.5037867215811828,
                         0.5512816015358734, 0.4370392537494254,
                         1.6172542853670244, n_cells=2)
    band = tc.band_trace(p, 256)
    results = tc.winding_per_branch(p, band)
    assert {lab: r.winding for lab, r in results.items()} \
        == {"omega3": 0, "omega6": 0}
    for lab in ("omega4", "omega5"):
        assert 0.4 < tc.winding_quadrature(p, band.branches[lab], band.k_grid) < 0.5
        with pytest.raises(OriginCrossing, match="quadrature"):
            tc.winding_number(p, band.branches[lab], band.k_grid)


def test_crossings_count_vertex_on_positive_axis(monkeypatch):
    """A vertex exactly on the positive x axis joins a segment arriving from
    below and one leaving above; the pair crosses once and must count once."""
    theta = 2.0 * np.pi * np.arange(64) / 64
    x, y = np.cos(theta), np.sin(theta)
    assert y[0] == 0.0 and x[0] > 0.0
    monkeypatch.setattr(topology, "_admittance_plane_curve",
                        lambda params, branch, k_grid: (x, y))
    assert winding_crossings(row_params(1), np.zeros(64), tc.midpoint_grid(64)) == 1


def _sweep_draws(seed, count):
    # the draw of perfbench's sweep_points: rows of (r1, r2, c1, c2, l)
    draws = np.random.default_rng(seed).uniform(0.05, 2.0, size=(count, 5))
    return [tc.CircuitParams(*row, n_cells=2) for row in draws]


# sweep draws that reach every gate a traced curve can fail at n_k = 256:
# 1/0 fails the segment-turn gate on omega5 and certifies the other three,
# 3/673 fails the radius gate on omega4 and omega5, and 2007/11 the
# quadrature gate on omega4 and omega5; the table rows fail the turn gate
# on their hybrid pair
GATE_DRAWS = [(1, 0), (3, 673), (2007, 11)]


def _gate_cases():
    """(params, band, x, y) of the gate draws and the four table rows at
    n_k = 256, x and y the stacked curves of all four branches."""
    points = [_sweep_draws(s, i + 1)[i] for s, i in GATE_DRAWS]
    for p in points + [row_params(row) for row in ROWS]:
        band = tc.band_trace(p, 256)
        stack = np.stack(list(band.branches.values()))
        yield (p, band, *topology._admittance_plane_curve(p, stack, band.k_grid))


def _per_curve(gates, x, y):
    """A reference check on one curve: its value, or the refusal's message."""
    try:
        return gates(x, y)
    except OriginCrossing as exc:
        return str(exc)


def _row(gated, i):
    return tuple(column[i] for column in gated)


def test_stacked_gates_equal_per_curve_gates():
    """One gate pass over the four-branch stack gives, bit for bit, what the
    gates checked one curve at a time give: each winding and quadrature,
    the refused set, and each refusal's message; so do the one-branch
    routes, and a one-row stack equals its row of the four-row stack."""
    refused_by = set()
    for p, band, x, y in _gate_cases():
        gated = topology._gate(x, y)
        refusals = gated[3]
        results = tc.winding_per_branch(p, band)
        for i, (lab, branch) in enumerate(band.branches.items()):
            assert _row(topology._gate(x[i:i + 1], y[i:i + 1]), 0) == _row(gated, i)
            want = _per_curve(certified_winding, x[i], y[i])
            if isinstance(want, str):
                gate, message = refusals[i]
                refused_by.add(gate)
                assert message == want and lab not in results
                with pytest.raises(OriginCrossing) as exc:
                    tc.winding_number(p, branch, band.k_grid)
                assert str(exc.value) == want
            else:
                assert refusals[i] is None
                radius = float(np.hypot(x[i], y[i]).min())
                assert results[lab] == topology.WindingResult(lab, *want, radius)
                assert tc.winding_number(p, branch, band.k_grid) == want[0]
            # the quadrature and crossing routes apply the origin gates only
            origin = _per_curve(origin_gates, x[i], y[i])
            for route in (tc.winding_quadrature, winding_crossings):
                if isinstance(origin, str):
                    with pytest.raises(OriginCrossing) as exc:
                        route(p, branch, band.k_grid)
                    assert str(exc.value) == origin
            if not isinstance(origin, str):
                quad = tc.winding_quadrature(p, branch, band.k_grid)
                assert quad == curve_quadrature(x[i], y[i]) == gated[1][i]
    assert refused_by == {topology.RADIUS, topology.TURN, topology.QUADRATURE}


# sweep points whose branches retrace their own k -> 2pi - k reflection up to
# roundoff (measured <= 2.04e-12 relative) with no branch point, so the
# closure is the identity at n_k 256 and 1024: (seed, index, the branch a
# ray-crossing witness search once flagged from a base point on its curve)
ROUNDOFF_POINTS = [(5001, 168, "omega3"), (7001, 157, "omega4"),
                   (9001, 11, "omega4"), (9001, 114, "omega4"),
                   (9001, 173, "omega4")]


@pytest.mark.parametrize("seed, index, lab", ROUNDOFF_POINTS)
def test_roundoff_points_are_skin_free(seed, index, lab):
    p = _sweep_draws(seed, index + 1)[index]
    band = tc.band_trace(p, 256)
    assert band.closure_permutation == (0, 1, 2, 3)
    assert not any(tc.skin_effect_present(band, b) for b in band.branches)
    qq = offdiag_product(p, band.branches[lab], band.k_grid)
    assert np.abs(qq - qq[::-1]).max() <= 1e-11 * np.abs(qq).max()


# sweep points whose trace holds a step with two equal-cost assignments:
# 1/154 has axis-root count 2 -> 4 and 4 -> 2 steps, 4/703 two branch
# points in one grid step.  Settled by rounding in each half on its own,
# the tie closed one branch on another and flagged skin; settled once
# and retraced, every branch closes on itself
TIED_POINTS = [(1, 154), (4, 703)]


@pytest.mark.parametrize("seed, index", TIED_POINTS)
def test_tied_step_is_decided_once(seed, index):
    p = _sweep_draws(seed, index + 1)[index]
    band = tc.band_trace(p, 256)
    assert band.closure_permutation == (0, 1, 2, 3)
    windings = sorted(r.winding for r in tc.winding_per_branch(p, band).values())
    assert windings == [0, 0, 0]
    assert not any(tc.skin_effect_present(band, lab) for lab in band.branches)


def test_skin_verdict_matches_finite_chain():
    """The verdict against the open chain it predicts: on 20 sweep draws at
    N = 60, a branch with skin moves its states' center of mass by more
    than one site (measured minimum 1.08 over 32 branches) and a branch
    without by under 1e-6 (measured maximum 1.3e-8 over 48)."""
    counts = {True: 0, False: 0}
    for p in _sweep_draws(1, 20):
        band = tc.band_trace(p, 256)
        for lab in band.branches:
            m = tc.branch_effective_matrix(replace(p, n_cells=60), band, lab)
            com = abs(tc.center_of_mass_shift(tc.eigendecompose(m)))
            present = tc.skin_effect_present(band, lab)
            assert com > 1.0 if present else com < 1e-6, (p, lab, com)
            counts[present] += 1
    assert counts == {True: 32, False: 48}


# skin per row: the zone-boundary-swapped hybrid pair closes on its partner,
# the m branches on themselves
@pytest.mark.parametrize("row", list(ROWS))
def test_skin_effect_presence_pattern(row, bands_all_rows):
    band = bands_all_rows[row]
    for lab in ("omega3", "omega6"):
        assert tc.skin_effect_present(band, lab) is False
    for lab in ("omega4", "omega5"):
        assert tc.skin_effect_present(band, lab) is True


def test_axis_branch_has_no_skin_witness():
    """sweep_points(5001)[105] omega4 lies on the imaginary axis, where v and
    w are real, so q(k) is real and its curve encloses no area.  Roots of
    the real quartic put it there exactly, and it has no skin (an axis test
    with a tolerance once left roundoff in Re omega and read a false witness
    at E0 = 14.381)."""
    band = tc.band_trace(_sweep_draws(5001, 106)[105], 256)
    assert np.abs(band.branches["omega4"].real).max() == 0.0
    assert tc.skin_effect_present(band, "omega4") is False


def test_classify_requires_open_and_gapped():
    p = row_params(1, n_cells=6, boundary=tc.Boundary.PERIODIC)
    m = real_space_matrix(p, 1.0 + 0.5j)
    spec = tc.eigendecompose(m)
    with pytest.raises(GapUnknown):
        tc.classify_states(spec, 1.0)
    p_open = row_params(1, n_cells=6)
    spec_open = tc.eigendecompose(real_space_matrix(p_open, 1.0 + 0.5j))
    with pytest.raises(GapUnknown):
        tc.classify_states(spec_open, 0.0)


def _labels_by_loop(spec, gap):
    """classify_states's rule applied one state at a time: the reference."""
    labels = []
    for lam, ipr, lw, rw in zip(spec.eigenvalues, spec.ipr,
                                spec.left_weight, spec.right_weight):
        if abs(lam) < 0.5 * gap and ipr > 5.0 / spec.n_states:
            labels.append("Edge")
        elif (lw > 0.5 and lw > 3.0 * max(rw, 1e-300)) or \
                (rw > 0.5 and rw > 3.0 * max(lw, 1e-300)):
            labels.append("Skin")
        else:
            labels.append("Bulk")
    return tuple(labels)


def test_classification_counts_row4(chain300):
    for spec, gap, _ in chain300.values():
        assert spec.labels == _labels_by_loop(spec, gap)
    for lab in ("omega3", "omega6"):
        spec, gap, _ = chain300[lab]
        counts = {t: spec.labels.count(t) for t in ("Edge", "Skin", "Bulk")}
        assert counts == {"Edge": 2, "Skin": 0, "Bulk": 598}
    for lab in ("omega4", "omega5"):
        spec, gap, _ = chain300[lab]
        counts = {t: spec.labels.count(t) for t in ("Edge", "Skin", "Bulk")}
        assert counts == {"Edge": 2, "Skin": 2, "Bulk": 596}


def test_edge_states_are_zero_modes_row4(chain300):
    """The Edge pair splits by roundoff, so each of its two eigenvectors is
    a mix of the two sublattice-polarized end modes that roundoff sets, and
    so are their ipr and end weights.  sigma_z restricted to the pair's
    span does not depend on that mix: its eigenvalues are +-1 and its
    eigenvectors are the polarized modes, whose ipr and end weights
    (weight on the first and last tenth of the sites) are those of
    tools/oracles/chain_classification.py: ipr 0.9989527502 each, weight 1
    on the mode's own end and 6.1e-28 (roundoff) on the other."""
    spec, gap, _ = chain300["omega6"]
    idx = [i for i, t in enumerate(spec.labels) if t == "Edge"]
    assert len(idx) == 2
    assert np.all(np.abs(spec.eigenvalues[idx]) < 1e-10)
    pair = spec.eigenvectors[:, idx]
    sz = np.tile([1.0, -1.0], 300)
    sz_vals, sz_vecs = np.linalg.eig(np.linalg.lstsq(pair, sz[:, None] * pair, rcond=None)[0])
    order = np.argsort(-sz_vals.real)   # the A-polarized mode first
    assert_close(sz_vals[order], [1.0, -1.0], 1e-12, "sigma_z on the Edge pair")
    modes = pair @ sz_vecs[:, order]
    mags = np.abs(modes / np.linalg.norm(modes, axis=0)) ** 2
    assert_close((mags ** 2).sum(axis=0), [0.9989527502] * 2, 1e-9, "polarized ipr")
    left, right = mags[:60].sum(axis=0), mags[-60:].sum(axis=0)
    assert_close([left[0], right[1]], [1.0, 1.0], 1e-12, "weight on the mode's own end")
    assert left[1] < 1e-20 and right[0] < 1e-20


def test_center_of_mass_shift_row4(chain300):
    com = {lab: tc.center_of_mass_shift(chain300[lab][0])
           for lab in chain300}
    # the Edge pair is summed as one cluster; oracle: omega3 6.9e-9, omega6 -6.7e-9
    assert abs(com["omega3"]) < 1e-6
    assert abs(com["omega6"]) < 1e-6
    assert com["omega4"] == pytest.approx(-4.556079, abs=1e-3)
    assert com["omega5"] == pytest.approx(-4.556079, abs=1e-3)


def test_center_of_mass_shift_basis_free():
    """Rotating the Edge pair, degenerate to roundoff, inside its span must
    not move the center-of-mass shift."""
    p = row_params(4, n_cells=40)
    band = tc.band_trace(p, 128)
    spec = tc.eigendecompose(tc.branch_effective_matrix(p, band, "omega6"))
    edge = np.argsort(np.abs(spec.eigenvalues))[:2]
    assert abs(spec.eigenvalues[edge[0]] - spec.eigenvalues[edge[1]]) < 1e-12
    base = tc.center_of_mass_shift(spec)
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        mixed = spec.eigenvectors[:, edge] @ np.linalg.qr(z)[0]
        vecs = spec.eigenvectors.copy()
        vecs[:, edge] = mixed / np.linalg.norm(mixed, axis=0)
        rot = tc.center_of_mass_shift(replace(spec, eigenvectors=vecs))
        assert rot == pytest.approx(base, abs=1e-12)


def _close(values, tol):
    return np.abs(values[:, None] - values[None, :]) < tol


@pytest.mark.parametrize("seed", range(20))
def test_clusters_match_connected_components(seed):
    """The numpy clustering gives scipy's connected_components partition:
    on values closer than tol in chains (a ~ b ~ c with a and c apart),
    pairs and singletons, in shuffled order, and on random symmetric
    relations; each cluster is labelled with its least index."""
    from scipy.sparse.csgraph import connected_components
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    steps = np.where(rng.random(n) < 0.5, rng.uniform(0.5, 0.99, n), rng.uniform(1.5, 3.0, n))
    values = rng.permutation(np.cumsum(steps))
    noise = rng.random((n, n)) < 2.0 / n
    relations = [_close(values, 1.0), noise | noise.T | np.eye(n, dtype=bool)]
    if n >= 3:
        relations.append(_close(np.arange(n, dtype=float), 1.5))  # one long chain
    for close in relations:
        got = topology._clusters(close)
        scipy_labels = connected_components(close, directed=False)[1]
        least = np.array([np.flatnonzero(scipy_labels == c).min() for c in scipy_labels])
        assert np.array_equal(got, least)


@pytest.mark.parametrize("boundary", [tc.Boundary.OPEN, tc.Boundary.PERIODIC])
def test_center_of_mass_shift_bitwise_unchanged(boundary):
    """Bitwise the shift computed with scipy's connected_components, on the
    open chain's degenerate Edge pair and on the periodic chain's +-k
    pairs."""
    from scipy.sparse.csgraph import connected_components
    p = row_params(4, n_cells=40, boundary=boundary)
    band = tc.band_trace(p, 128)
    spec = tc.eigendecompose(tc.branch_effective_matrix(p, band, "omega6"))
    vals, n = spec.eigenvalues, spec.n_states
    close = _close(vals, 1e-8 * max(1.0, float(np.abs(vals).max())))
    cluster = connected_components(close, directed=False)[1]
    assert np.bincount(cluster).max() == 2
    vecs = spec.eigenvectors.copy()
    for c in np.flatnonzero(np.bincount(cluster) > 1):
        members = cluster == c
        vecs[:, members] = np.linalg.qr(vecs[:, members])[0]
    centers = np.arange(n) @ np.abs(vecs) ** 2
    assert tc.center_of_mass_shift(spec) == float(centers.mean() - 0.5 * (n - 1))


def test_perturb_chain_locality():
    p = row_params(1, n_cells=8)
    m = real_space_matrix(p, 1.0 + 0.5j)
    out = tc.perturb_chain(m, (3,), 0.1)
    diff = out.entries != m.entries
    changed = set(zip(*np.nonzero(diff)))
    assert changed == {(6, 7), (7, 6), (7, 8), (8, 7)}
    assert out.entries[6, 7] == pytest.approx(m.entries[6, 7] * 1.1)


def test_perturb_chain_bounds():
    p = row_params(1, n_cells=8)
    m = real_space_matrix(p, 1.0 + 0.5j)
    with pytest.raises(OutOfRange):
        tc.perturb_chain(m, (3,), 0.5)
    with pytest.raises(OutOfRange):
        tc.perturb_chain(m, (9,), 0.1)


def test_compare_perturbed_identity():
    p = row_params(4, n_cells=40)
    band = tc.band_trace(p, 128)
    m = tc.branch_effective_matrix(p, band, "omega6")
    gap = tc.bulk_gap(p, band.branches["omega6"])
    spec = tc.classify_states(tc.eigendecompose(m), gap)
    rep = tc.compare_perturbed(spec, tc.eigendecompose(m))
    assert rep.edge_state_drift == 0.0
    assert rep.bulk_state_drift == 0.0
    assert rep.max_eigenvalue_shift == 0.0
    assert all(i == j for i, j in rep.matched_pairs)


def test_compare_perturbed_edge_drift_basis_free():
    """The Edge pair is degenerate to roundoff, so any unitary mix of it is
    an equally valid eigenbasis; the edge drift must not see the mix."""
    p = row_params(4, n_cells=40)
    band = tc.band_trace(p, 128)
    m = tc.branch_effective_matrix(p, band, "omega6")
    gap = tc.bulk_gap(p, band.branches["omega6"])
    spec = tc.classify_states(tc.eigendecompose(m), gap)
    pert = tc.eigendecompose(tc.perturb_chain(m, (19, 20, 21), 0.05))
    edge = [i for i, lab in enumerate(spec.labels) if lab == "Edge"]
    assert len(edge) == 2
    rep = tc.compare_perturbed(spec, pert)
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        mixed = spec.eigenvectors[:, edge] @ np.linalg.qr(z)[0]
        vecs = spec.eigenvectors.copy()
        vecs[:, edge] = mixed / np.linalg.norm(mixed, axis=0)
        rot = tc.compare_perturbed(replace(spec, eigenvectors=vecs), pert)
        assert rot.edge_state_drift == pytest.approx(rep.edge_state_drift,
                                                     abs=1e-14)
        assert rot.bulk_state_drift == rep.bulk_state_drift


def test_compare_perturbed_frozen_drifts(chain300):
    spec, _, matrix = chain300["omega6"]
    pert = tc.perturb_chain(matrix, (149, 150, 151), 0.05)
    rep = tc.compare_perturbed(spec, tc.eigendecompose(pert))
    assert rep.edge_state_drift < 1e-12
    assert rep.skin_state_drift == 0.0
    assert rep.bulk_state_drift == pytest.approx(1.411329684702, rel=1e-6)
    assert rep.max_eigenvalue_shift == pytest.approx(0.091822851192, rel=1e-6)
