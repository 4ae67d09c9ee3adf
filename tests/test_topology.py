from dataclasses import replace

import numpy as np
import pytest

import topochain as tc
from topochain.errors import (
    GapUnknown,
    OriginCrossing,
    OutOfRange,
    SpectrumHit,
)
from topochain import topology
from topochain.topology import winding_crossings

from conftest import ROWS, assert_close, row_params

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
    p = row_params(1)
    with pytest.raises(OutOfRange):
        tc.winding_number(p, np.full(16, 1.0 + 0.1j))


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
    assert winding_crossings(row_params(1), np.zeros(64)) == 1


def _segment_distance(curve, points):
    """Distance from each point to the nearest segment of a closed polyline."""
    a, b = curve[None, :], np.roll(curve, -1)[None, :]
    d = b - a
    t = np.clip(((points[:, None] - a) * d.conj()).real / np.abs(d) ** 2, 0.0, 1.0)
    return np.abs(points[:, None] - (a + t * d)).min(axis=1)


def test_ray_crossings_match_angle_route_off_curve():
    rng = np.random.default_rng(17)
    curve = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    points = 1.5 * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000))
    away = points[_segment_distance(curve, points) > 1e-6]
    pad = topology.ON_CURVE_TOL * max(1.0, np.abs(curve).max(), np.abs(away).max())
    winding, on_curve = topology._ray_crossings(curve, away, pad)
    want = topology._complex_winding(curve[None, :] - away[:, None])
    assert np.array_equal(winding, want)
    assert set(want.tolist()) >= {-1, 0, 1}
    assert not on_curve.any()
    # the vertices and the midpoints of the segments are on the curve
    mids = 0.5 * (curve + np.roll(curve, -1))
    assert topology._ray_crossings(curve, np.concatenate([curve, mids]), pad)[1].all()


def dense_first_witness(cands, qq):
    """The angle route over every candidate x k sample, as the skin scan read
    it before ray crossings: the oracle the scan must reproduce."""
    traj = cands[:, None] ** 2 - qq[None, :]
    scale = np.maximum(1.0, np.abs(traj).max(axis=1))
    valid = np.abs(traj).min(axis=1) >= 1e-12 * scale
    angles = np.angle(traj)
    step = np.diff(angles, append=angles[:, :1], axis=1)
    winding = np.rint(((step + np.pi) % (2.0 * np.pi) - np.pi).sum(axis=1)
                      / (2.0 * np.pi))
    hits = np.nonzero(valid & (winding != 0))[0]
    return complex(cands[hits[0]]) if len(hits) else None


def _sweep_draws(seed, count):
    # the draw of perfbench's sweep_points: rows of (r1, r2, c1, c2, l)
    draws = np.random.default_rng(seed).uniform(0.05, 2.0, size=(count, 5))
    return [tc.CircuitParams(*row, n_cells=2) for row in draws]


@pytest.fixture(scope="module")
def scan_corpus(bands_all_rows):
    """40 sweep points, point 168 (four branches on the imaginary axis, whose
    real curves the scan turns; omega3 reports a witness on its real
    segment), the knife-edge point 190 (a real locus whose witness sits on
    the curve's end) and the four table rows."""
    draws = _sweep_draws(5001, 191)
    return [tc.band_trace(p, 256) for p in draws[:40] + draws[168:169] + draws[190:]] \
        + [bands_all_rows[row] for row in ROWS]


def test_skin_scan_matches_dense_angle_route(monkeypatch, scan_corpus):
    """The same witness as the dense angle route on every branch of the scan
    corpus; some candidates lie on the curve and take the angle-route
    fallback."""
    on_curve = []
    ray_crossings = topology._ray_crossings

    def counting(curve, points, pad):
        winding, near = ray_crossings(curve, points, pad)
        on_curve.append(int(near.sum()))
        return winding, near

    fast = topology._first_witness
    for band in scan_corpus:
        for lab in band.branches:
            monkeypatch.setattr(topology, "_ray_crossings", counting)
            got = tc.skin_effect_present(band, lab)
            monkeypatch.setattr(topology, "_first_witness", dense_first_witness)
            want = tc.skin_effect_present(band, lab)
            monkeypatch.setattr(topology, "_first_witness", fast)
            assert got == want, (band.params, lab)
    assert sum(on_curve) > 0


def test_skin_scan_gates_before_angles(monkeypatch, scan_corpus):
    """On-curve candidates reach the angle route only once their trajectory
    clears SPECTRUM_GATE; those on the spectrum are refused without it."""
    received = []
    complex_winding = topology._complex_winding

    def gated(traj):
        received.append(topology._clearance(traj))
        return complex_winding(traj)

    monkeypatch.setattr(topology, "_complex_winding", gated)
    for band in scan_corpus:
        for lab in band.branches:
            tc.skin_effect_present(band, lab)
    clearance = np.concatenate(received)
    assert len(clearance) > 0
    assert (clearance >= topology.SPECTRUM_GATE).all()


def raster_and_sheet_candidates(qq, scan=50):
    """A wider candidate set, in order: a scan x scan raster over the
    bounding box of +-sqrt(q) inflated by 10%, then the reflection midpoints
    of the sheets sqrt(q), -sqrt(q) and conj(sqrt(q)).  The reference whose
    verdicts the reflection midpoints alone must reproduce."""
    rad = np.sqrt(qq)
    locs = np.concatenate([rad, -rad])
    re_lo, re_hi = locs.real.min(), locs.real.max()
    im_lo, im_hi = locs.imag.min(), locs.imag.max()
    re_pad = 0.1 * max(re_hi - re_lo, 1e-6)
    im_pad = 0.1 * max(im_hi - im_lo, 1e-6)
    res = np.linspace(re_lo - re_pad, re_hi + re_pad, scan)
    ims = np.linspace(im_lo - im_pad, im_hi + im_pad, scan)
    grid = (res[None, :] + 1j * ims[:, None]).ravel()
    step = max(1, len(rad) // 128)
    mids = [0.5 * (sheet + sheet[::-1])[::step]
            for sheet in (rad, -rad, np.conj(rad))]
    return np.concatenate([grid, *mids])


def test_reflection_midpoints_match_raster_and_sheet_verdicts(scan_corpus):
    """On every branch of the scan corpus the reflection midpoints find a
    witness exactly where the raster and all three sheets do, and every
    witness winds."""
    found = 0
    for band in scan_corpus:
        for lab in band.branches:
            qq = topology._offdiag_product(band, lab)
            witness = tc.skin_effect_present(band, lab)
            reference = topology._first_witness(raster_and_sheet_candidates(qq), qq)
            assert (witness is None) == (reference is None), (band.params, lab)
            if witness is not None:
                found += 1
                assert tc.skin_winding(band, lab, witness).winding != 0
    assert found > 0


def _record_pair_counts(monkeypatch):
    """The number of candidate-segment pairs of each _interval_pairs call,
    appended to the returned list."""
    sizes = []
    interval_pairs = topology._interval_pairs

    def recording(ys, lo, hi):
        pairs = interval_pairs(ys, lo, hi)
        sizes.append(len(pairs[0]))
        return pairs

    monkeypatch.setattr(topology, "_interval_pairs", recording)
    return sizes


def test_skin_scan_pairs_bounded_on_near_real_curve(monkeypatch):
    """A curve within 1e-18 of the real axis, read by horizontal rays, would
    pair every segment with every real candidate.  The scan turns it so the
    rays cross its long axis: 224 pairs instead of 256 * n_k, and still the
    right witness through the on-curve fallback."""
    n_k = 256
    k = tc.midpoint_grid(n_k)
    qq = 1.5 + np.cos(k) + 1e-18j * np.sin(k)
    cands = np.linspace(-2.0, 2.0, 256) + 0j
    sizes = _record_pair_counts(monkeypatch)
    witness = topology._first_witness(cands, qq)
    # E0^2 inside (0.5, 2.5) lies in the counter-clockwise sliver
    assert witness == cands[np.argmax(cands.real ** 2 < 2.5)]
    assert witness == dense_first_witness(cands, qq)
    assert sizes == [224]


def test_turned_scan_matches_dense_angle_route(monkeypatch):
    """A random closed polyline squashed to 1e-3 in Im is wider than tall, so
    the scan turns it by -90 degrees before counting.  The first witness is
    the dense angle route's, whatever the candidate order, and the count
    read on the turned plane is the signed angle winding of every candidate
    off the curve: a turn keeps the sign, where a swap of Re and Im would
    flip it and still find the same witnesses."""
    rng = np.random.default_rng(23)
    qq = rng.standard_normal(256) + 1e-3j * rng.standard_normal(256)
    w = 2.0 * rng.standard_normal(2000) + 2e-3j * rng.standard_normal(2000)
    cands = np.sqrt(w)
    counts = []
    ray_crossings = topology._ray_crossings

    def recording(curve, points, pad):
        winding, on_curve = ray_crossings(curve, points, pad)
        counts.append((np.ptp(curve.imag) > np.ptp(curve.real), winding, on_curve))
        return winding.copy(), on_curve

    monkeypatch.setattr(topology, "_ray_crossings", recording)
    for _ in range(5):
        cands = rng.permutation(cands)
        witness = topology._first_witness(cands, qq)
        assert witness is not None
        assert witness == dense_first_witness(cands, qq)
        turned, winding, on_curve = counts.pop()
        want = topology._complex_winding(cands[:, None] ** 2 - qq[None, :])
        assert turned
        assert np.array_equal(winding[~on_curve], want[~on_curve])
        assert set(want[~on_curve].tolist()) >= {-1, 0, 1}


def test_skin_scan_pairs_bounded_on_axis_branches(monkeypatch):
    """sweep_points(5001)[168]: all four branches on the imaginary axis, so
    every q(k) is real to roundoff.  Turned, each scan makes at most 5 n_k
    candidate-segment pairs (256 * n_k before the turn)."""
    n_k = 256
    band = tc.band_trace(_sweep_draws(5001, 169)[168], n_k)
    sizes = _record_pair_counts(monkeypatch)
    for lab, branch in band.branches.items():
        assert np.abs(branch.real).max() == 0.0
        tc.skin_effect_present(band, lab)
    assert len(sizes) == 4
    assert max(sizes) <= 5 * n_k


def test_skin_scan_hands_at_most_256_candidates(monkeypatch, band_row4):
    """ceil(n_k / 128)-th reflection midpoints and their conjugates: at most
    256 candidates on any grid, so at most 256 * n_k candidate-segment
    pairs."""
    counts = []
    first_witness = topology._first_witness

    def counting(cands, qq):
        counts.append(len(cands))
        return first_witness(cands, qq)

    monkeypatch.setattr(topology, "_first_witness", counting)
    p = row_params(4)
    for band in (tc.band_trace(p, 64), tc.band_trace(p, 200),
                 tc.band_trace(p, 256), band_row4):
        tc.skin_effect_present(band, "omega4")
    assert counts == [128, 200, 256, 256]


def test_skin_winding_trajectory_and_base_point(band_row3):
    res = tc.skin_winding(band_row3, "omega4", -1.4 - 0.012j)
    assert res.winding == -1
    assert res.base_point == -1.4 - 0.012j
    assert len(res.trajectory) == 1024
    far = tc.skin_winding(band_row3, "omega4", 300.0 + 300.0j)
    assert far.winding == 0


def test_skin_winding_rejects_base_point_on_spectrum(band_row3):
    p = row_params(3)
    branch = band_row3.branches["omega4"]
    qq_point = tc.bloch_admittance(p, branch[10], band_row3.k_grid[10])
    e0 = np.sqrt(qq_point.entries[0, 1] * qq_point.entries[1, 0])
    with pytest.raises(SpectrumHit):
        tc.skin_winding(band_row3, "omega4", complex(e0))


# witness existence, frozen per row: the zone-boundary-swapped hybrid pair
# is non-reciprocal (winding -1 sliver), the m branches never are
@pytest.mark.parametrize("row", list(ROWS))
def test_skin_effect_presence_pattern(row, bands_all_rows):
    band = bands_all_rows[row]
    for lab in ("omega3", "omega6"):
        assert tc.skin_effect_present(band, lab) is None
    for lab in ("omega4", "omega5"):
        witness = tc.skin_effect_present(band, lab)
        assert witness is not None
        assert tc.skin_winding(band, lab, witness).winding != 0


def test_axis_branch_has_no_skin_witness():
    """sweep_points(5001)[105] omega4 lies on the imaginary axis, where v and
    w are real, so q(k) is real and its curve encloses no area.  Roots of
    the real quartic put it there exactly; the scan finds no witness (an
    axis test with a tolerance left roundoff in Re omega and read a false
    witness at E0 = 14.381)."""
    band = tc.band_trace(_sweep_draws(5001, 106)[105], 256)
    assert np.abs(band.branches["omega4"].real).max() == 0.0
    assert tc.skin_effect_present(band, "omega4") is None


def test_row4_witness_needs_sheet_midpoints(band_row4):
    """The row-4 non-reciprocal sliver is ~4e-4 wide, and a reflection
    midpoint inside it is the witness."""
    witness = tc.skin_effect_present(band_row4, "omega4")
    assert witness is not None
    assert abs(witness) < 0.5  # tiny base point inside the sliver


def test_classify_requires_open_and_gapped():
    p = row_params(1, n_cells=6, boundary=tc.Boundary.PERIODIC)
    m = tc.real_space_matrix(p, 1.0 + 0.5j)
    spec = tc.eigendecompose(m)
    with pytest.raises(GapUnknown):
        tc.classify_states(spec, 1.0)
    p_open = row_params(1, n_cells=6)
    spec_open = tc.eigendecompose(tc.real_space_matrix(p_open, 1.0 + 0.5j))
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
    spec, gap, _ = chain300["omega6"]
    idx = [i for i, t in enumerate(spec.labels) if t == "Edge"]
    assert len(idx) == 2
    for i in idx:
        assert abs(spec.eigenvalues[i]) < 1e-10
        assert spec.ipr[i] == pytest.approx(0.5, abs=1e-3)


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


def test_perturb_chain_locality():
    p = row_params(1, n_cells=8)
    m = tc.real_space_matrix(p, 1.0 + 0.5j)
    out = tc.perturb_chain(m, (3,), 0.1)
    diff = out.entries != m.entries
    changed = set(zip(*np.nonzero(diff)))
    assert changed == {(6, 7), (7, 6), (7, 8), (8, 7)}
    assert out.entries[6, 7] == pytest.approx(m.entries[6, 7] * 1.1)


def test_perturb_chain_bounds():
    p = row_params(1, n_cells=8)
    m = tc.real_space_matrix(p, 1.0 + 0.5j)
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
