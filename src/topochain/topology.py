"""Winding invariants, skin-effect diagnostics, and state classification."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse.csgraph import connected_components

from .circuit import RealSpaceMatrix, bloch_admittance, chain_bonds
from .errors import GapUnknown, OriginCrossing, OutOfRange, SpectrumHit
from .params import Boundary, CircuitParams
from .spectral import BRANCH_LABELS, MIN_WINDING_SAMPLES, BandSet, ChainSpectrum

ORIGIN_TOL = 1e-10
# a single polygon segment turning more than this around the origin means
# the curve passes closer to the origin than the sampling resolves; the
# winding of such a curve is not certified
MAX_SEGMENT_TURN = np.pi / 2
# a base point E0 lies on a branch's admittance spectrum when its det
# trajectory E0^2 - q(k) has min|det| under SPECTRUM_GATE * max(1, max|det|)
SPECTRUM_GATE = 1e-12


def _admittance_plane_curve(params: CircuitParams,
                            branch: np.ndarray,
                            k_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real-projected admittance vector (Re y_x, Re y_y) along a branch, or
    along each row of a stack of branches, sampled on k_grid."""
    y = bloch_admittance(params, np.asarray(branch), np.asarray(k_grid))
    return y.y_x.real, y.y_y.real


def _turns(angles: np.ndarray) -> np.ndarray:
    """Wrapped angle increments of a closed curve, last sample back to the first."""
    step = np.diff(angles, append=angles[..., :1], axis=-1)
    return (step + np.pi) % (2.0 * np.pi) - np.pi


def _check_away_from_origin(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Raise OriginCrossing unless the curve clears both gates; return its turns."""
    r = np.hypot(x, y)
    if r.min() < ORIGIN_TOL * max(1.0, r.max()):
        raise OriginCrossing(
            f"admittance curve passes within {r.min():.3e} of the origin; "
            f"winding undefined"
        )
    dang = _turns(np.arctan2(y, x))
    if np.max(np.abs(dang)) > MAX_SEGMENT_TURN:
        raise OriginCrossing(
            f"one curve segment turns {np.max(np.abs(dang)):.3f} rad around "
            f"the origin; the near-origin passage is unresolved and the "
            f"winding undefined"
        )
    return dang


def _quadrature(x: np.ndarray, y: np.ndarray) -> float:
    xc = np.append(x, x[0])
    yc = np.append(y, y[0])
    dx = np.diff(xc)
    dy = np.diff(yc)
    xm = 0.5 * (xc[1:] + xc[:-1])
    ym = 0.5 * (yc[1:] + yc[:-1])
    return float(np.sum((xm * dy - ym * dx) / (xm * xm + ym * ym)) / (2.0 * np.pi))


def _certified_winding(x: np.ndarray, y: np.ndarray) -> tuple[int, float]:
    """Angle-count winding of a curve and its trapezoid quadrature.

    Raises OriginCrossing when either origin gate fails, when the angle
    count is not close to an integer, or when the quadrature rounds to a
    different integer: a curve sampled too coarsely near the origin can
    keep every segment under the turn gate and still be misread.
    """
    if len(x) < MIN_WINDING_SAMPLES:
        raise OutOfRange(
            f"branch has {len(x)} samples; need >= {MIN_WINDING_SAMPLES}"
        )
    total = _check_away_from_origin(x, y).sum() / (2.0 * np.pi)
    rounded = int(np.rint(total))
    if abs(total - rounded) > 1e-6:
        raise OriginCrossing(
            f"winding accumulated to {total:.6f}, not close to an integer; "
            f"refine the grid"
        )
    quad = _quadrature(x, y)
    if int(np.rint(quad)) != rounded:
        raise OriginCrossing(
            f"trapezoid quadrature reads {quad:.4f}, {abs(quad - rounded):.4f} "
            f"from the angle count {rounded} (agreement needs under 0.5); "
            f"the near-origin passage is unresolved and the winding undefined"
        )
    return rounded, quad


def winding_number(params: CircuitParams,
                   branch: np.ndarray,
                   k_grid: np.ndarray) -> int:
    """Signed turns of the real-projected admittance vector around the origin.

    The branch must sample one full period of k on k_grid.  Accumulates
    wrapped angle increments between consecutive samples and closes the curve
    back to its first point, so the result is an exact integer for any curve
    sampled finely enough that no single step turns by more than pi.  The
    trapezoid quadrature of the same curve must round to the same integer.
    """
    return _certified_winding(*_admittance_plane_curve(params, branch, k_grid))[0]


def winding_quadrature(params: CircuitParams,
                       branch: np.ndarray,
                       k_grid: np.ndarray) -> float:
    """Independent route: trapezoid quadrature of (x dy - y dx)/(x^2+y^2).

    Returns the raw (unrounded) value so tests can compare routes without
    the rounding step hiding disagreement.
    """
    x, y = _admittance_plane_curve(params, branch, k_grid)
    _check_away_from_origin(x, y)
    return _quadrature(x, y)


def winding_crossings(params: CircuitParams,
                      branch: np.ndarray,
                      k_grid: np.ndarray) -> int:
    """Second independent route: signed crossings of the positive x axis.

    A segment crosses upward when y0 <= 0 < y1 and downward when
    y1 <= 0 < y0, so a vertex on the axis counts the two segments meeting
    there once between them; the crossing lies on the positive side when
    the origin is left of an upward segment (right of a downward one).
    """
    x0, y0 = _admittance_plane_curve(params, branch, k_grid)
    _check_away_from_origin(x0, y0)
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    # positive when the origin lies left of the segment's direction
    cross = x0 * (y1 - y0) - (x1 - x0) * y0
    up = (y0 <= 0.0) & (0.0 < y1) & (cross > 0.0)
    down = (y1 <= 0.0) & (0.0 < y0) & (cross < 0.0)
    return int(up.sum()) - int(down.sum())


@dataclass(frozen=True)
class WindingResult:
    label: str
    winding: int
    quadrature: float
    curve_min_radius: float


def winding_per_branch(params: CircuitParams, band: BandSet) -> dict[str, WindingResult]:
    """Winding results for every branch whose curve clears the origin.

    Branches whose admittance curve dips through the exceptional point (the
    gapless, axis-visiting ones) are omitted rather than reported with a
    non-robust integer; callers detect them as missing keys.
    """
    # one evaluation over all branches, each row gated on its own
    xs, ys = _admittance_plane_curve(params, np.stack(list(band.branches.values())),
                                     band.k_grid)
    out = {}
    for lab, x, y in zip(band.branches, xs, ys):
        try:
            winding, quadrature = _certified_winding(x, y)
        except OriginCrossing:
            continue
        out[lab] = WindingResult(label=lab, winding=winding, quadrature=quadrature,
                                 curve_min_radius=float(np.hypot(x, y).min()))
    return out


@dataclass(frozen=True)
class SkinWindingResult:
    base_point: complex
    winding: int
    trajectory: np.ndarray


def _offdiag_product(band: BandSet, label: str) -> np.ndarray:
    """q(k) = (v + w e^{-ik})(v + w e^{+ik}) along a tracked branch."""
    y = bloch_admittance(band.params, band.branches[label], band.k_grid).entries
    return y[:, 0, 1] * y[:, 1, 0]


def skin_winding(band: BandSet, label: str, e0: complex) -> SkinWindingResult:
    """Point-gap winding of det(Y - E0) = E0^2 - q(k) over the zone along
    the named branch.

    A base point whose trajectory has min|det| under
    SPECTRUM_GATE * max(1, max|det|) sits on the branch's spectrum, where the
    count is undefined; that raises SpectrumHit.
    """
    traj = e0 * e0 - _offdiag_product(band, label)
    mag = np.abs(traj)
    clearance = mag.min() / max(1.0, mag.max())
    if clearance < SPECTRUM_GATE:
        raise SpectrumHit(
            f"base point {e0} lies on the admittance spectrum of {label} "
            f"(clearance {clearance:.3e} < {SPECTRUM_GATE:g})"
        )
    winding = np.rint(_turns(np.angle(traj)).sum() / (2.0 * np.pi))
    return SkinWindingResult(base_point=complex(e0), winding=int(winding),
                             trajectory=traj)


def skin_effect_present(band: BandSet, label: str) -> bool:
    """Whether the named branch's open chain accumulates at one end: one
    period of k carries the branch onto another branch, so
    band.closure_permutation does not fix it.

    q(k) depends on k only through cos k and the branch omega(k), and the
    root multiset at k equals the one at 2pi - k.  A branch that closes on
    itself retraces its own reflection, its curve q encloses no area, and
    its chain has no skin.  A branch that closes on its partner ends on a
    different root than it starts, so the symbol of branch_effective_matrix
    jumps at k = 0; the point-gap-area theorem for finite-range hoppings
    does not reach such a symbol, and the q-plane area beside a branch
    point is chord area that shrinks with the grid.  The finite chain
    follows the closure: on the first 20 seed-1 sweep draws at n_k = 256,
    the N = 60 chain of every branch that closes on its partner has
    |center_of_mass_shift| > 1 site (minimum 1.08) and every other one
    under 1e-6.
    """
    i = BRANCH_LABELS.index(label)
    return band.closure_permutation[i] != i


def classify_states(spectrum: ChainSpectrum, gap: float) -> ChainSpectrum:
    """Label each state Edge, Skin, or Bulk.

    Edge: eigenvalue magnitude under half the bulk gap and inverse
    participation ratio above 5/(2N).  Skin: over half the total weight on
    one 10% end of the chain with at least 3x asymmetry over the other end.
    Requires an open-chain spectrum and a positive gap.
    """
    if spectrum.boundary is not Boundary.OPEN:
        raise GapUnknown("classification is defined for open chains only")
    if not gap > 0.0:
        raise GapUnknown(f"need a positive bulk gap, got {gap}")
    lam, ipr = np.abs(spectrum.eigenvalues), spectrum.ipr
    lw, rw = spectrum.left_weight, spectrum.right_weight
    edge = (lam < 0.5 * gap) & (ipr > 5.0 / spectrum.n_states)
    skin = ((lw > 0.5) & (lw > 3.0 * np.maximum(rw, 1e-300))) \
        | ((rw > 0.5) & (rw > 3.0 * np.maximum(lw, 1e-300)))
    labels = np.where(edge, "Edge", np.where(skin, "Skin", "Bulk"))
    return replace(spectrum, labels=tuple(labels.tolist()))


def center_of_mass_shift(spectrum: ChainSpectrum) -> float:
    """Mean state displacement from the chain midpoint, in sites.

    Positive values mean weight accumulated toward the high-index end.
    Translation symmetry pins the periodic-chain value at zero, so this is
    the skin-effect order parameter for open chains.  Eigenvalues closer
    than 1e-8 max(1, max |lambda|) (the eigen-residual gate's scale) form
    one cluster whose states are summed through an orthonormal basis of
    their span, so no choice of basis inside a degenerate subspace (the
    Edge pair of a gapped chain) moves the result.
    """
    vals = spectrum.eigenvalues
    n = spectrum.n_states
    tol = 1e-8 * max(1.0, float(np.abs(vals).max()))
    close = np.abs(vals[:, None] - vals[None, :]) < tol
    cluster = connected_components(close, directed=False)[1]
    vecs = spectrum.eigenvectors.copy()
    for c in np.flatnonzero(np.bincount(cluster) > 1):
        members = cluster == c
        vecs[:, members] = np.linalg.qr(vecs[:, members])[0]
    centers = np.arange(n) @ np.abs(vecs) ** 2
    return float(centers.mean() - 0.5 * (n - 1))


def perturb_chain(matrix: RealSpaceMatrix, cells: tuple[int, ...],
                  fraction: float) -> RealSpaceMatrix:
    """Scale the hopping entries touching the given cells by (1 + fraction).

    For each listed cell this rescales its internal bond and the bond to the
    next cell, both matrix directions, leaving everything else bitwise
    intact.  fraction is capped at 0.2 to stay in the gentle-disorder regime.
    """
    if not 0.0 <= fraction <= 0.2:
        raise OutOfRange(f"fraction {fraction} outside [0, 0.2]")
    n = matrix.params.n_cells
    c = np.asarray(cells, dtype=int)
    outside = c[(c < 0) | (c >= n)]
    if outside.size:
        raise OutOfRange(f"cell index {outside[0]} outside [0, {n})")
    tail, head = chain_bonds(n, matrix.params.boundary)
    # cell c's bonds are c and n + c; the last cell's second bond exists
    # only on a periodic chain
    bonds = np.concatenate([c, n + c])
    bonds = bonds[bonds < len(tail)]
    out = matrix.entries.copy()
    # multiply.at applies a cell listed twice twice, as its bonds are touched twice
    np.multiply.at(out, (np.concatenate([tail[bonds], head[bonds]]),
                         np.concatenate([head[bonds], tail[bonds]])), 1.0 + fraction)
    return RealSpaceMatrix(entries=out, params=matrix.params)


@dataclass(frozen=True)
class PerturbationReport:
    matched_pairs: tuple[tuple[int, int], ...]
    edge_state_drift: float
    skin_state_drift: float
    bulk_state_drift: float
    max_eigenvalue_shift: float


def _span_distance(u: np.ndarray, v: np.ndarray) -> float:
    """2-norm distance between the orthogonal projectors onto span(u), span(v).

    For spans of equal dimension this is the sine of the largest principal
    angle between them; it does not depend on the basis either array gives,
    and it is exactly zero when both arrays are identical.
    """
    if u.shape[1] == 0:
        return 0.0
    qu = np.linalg.qr(u)[0]
    qv = np.linalg.qr(v)[0]
    # the projector difference is Hermitian with its range inside
    # span(u) + span(v), so its 2-norm is that of its restriction to an
    # orthonormal basis of that sum
    basis = np.linalg.qr(np.hstack([qu, qv]))[0]
    cu = basis.conj().T @ qu
    cv = basis.conj().T @ qv
    return float(np.linalg.norm(cu @ cu.conj().T - cv @ cv.conj().T, 2))


def compare_perturbed(baseline: ChainSpectrum,
                      perturbed: ChainSpectrum) -> PerturbationReport:
    """Match spectra by eigenvalue distance and measure state drift.

    The Edge-labelled baseline states are degenerate to roundoff (a pair at
    zero energy), so any basis of their span is as valid as another.  They
    are matched as one cluster to the same number of perturbed states with
    eigenvalues nearest zero, and edge_state_drift is the 2-norm distance
    between the orthogonal projectors onto the two spans: the sine of the
    largest principal angle, which no choice of basis inside either span
    changes.  Every other state is matched greedily by eigenvalue distance
    outside that cluster, and its drift is the 2-norm change of the
    magnitude profile |psi|, reported as the largest per baseline label.
    matched_pairs holds (baseline index, perturbed index), with edge states
    paired greedily inside the cluster.  Baseline must be classified.
    """
    if baseline.labels is None:
        raise GapUnknown("baseline spectrum is unclassified")
    n = baseline.n_states
    is_edge = np.array(baseline.labels) == "Edge"
    cluster = np.zeros(n, dtype=bool)
    nearest_zero = np.argsort(np.abs(perturbed.eigenvalues), kind="stable")
    cluster[nearest_zero[:is_edge.sum()]] = True
    taken = np.zeros(n, dtype=bool)
    pairs = []
    drift_by = {"Skin": 0.0, "Bulk": 0.0}
    max_shift = 0.0
    order = np.argsort(-np.abs(baseline.eigenvalues))
    for i in order:
        d = np.abs(perturbed.eigenvalues - baseline.eigenvalues[i])
        d[taken | (cluster != is_edge[i])] = np.inf
        j = int(np.argmin(d))
        taken[j] = True
        pairs.append((int(i), j))
        max_shift = max(max_shift, float(d[j]))
        lab = baseline.labels[i]
        if lab == "Edge":
            continue
        drift = float(np.linalg.norm(
            np.abs(perturbed.eigenvectors[:, j]) - np.abs(baseline.eigenvectors[:, i])
        ))
        drift_by[lab] = max(drift_by[lab], drift)
    edge_drift = _span_distance(baseline.eigenvectors[:, is_edge],
                                perturbed.eigenvectors[:, cluster])
    return PerturbationReport(
        matched_pairs=tuple(pairs),
        edge_state_drift=edge_drift,
        skin_state_drift=drift_by["Skin"],
        bulk_state_drift=drift_by["Bulk"],
        max_eigenvalue_shift=max_shift,
    )
