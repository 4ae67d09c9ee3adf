"""Winding invariants, skin-effect diagnostics, and state classification."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuit import RealSpaceMatrix, bloch_admittance, chain_bonds
from .errors import GapUnknown, OriginCrossing, OutOfRange
from .params import Boundary, CircuitParams
from .spectral import BRANCH_LABELS, MIN_WINDING_SAMPLES, BandSet, ChainSpectrum

ORIGIN_TOL = 1e-10
# a single polygon segment turning more than this around the origin means
# the curve passes closer to the origin than the sampling resolves; the
# winding of such a curve is not certified
MAX_SEGMENT_TURN = np.pi / 2
# the gates a curve must clear for its winding to be certified, in the
# order they are checked, and the message of each one's refusal
RADIUS, TURN, QUADRATURE = 1, 2, 3
_REFUSALS = {
    RADIUS: "admittance curve passes within {r:.3e} of the origin; winding undefined",
    TURN: "one curve segment turns {turn:.3f} rad around the origin; the near-origin "
          "passage is unresolved and the winding undefined",
    QUADRATURE: "trapezoid quadrature reads {quad:.4f}, {off:.4f} from the angle count "
                "{winding} (agreement needs under 0.5); the near-origin passage is "
                "unresolved and the winding undefined",
}


def _admittance_plane_curve(params: CircuitParams,
                            branch: np.ndarray,
                            k_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real-projected admittance vector (Re y_x, Re y_y) along a branch, or
    along each row of a stack of branches, sampled on k_grid."""
    y = bloch_admittance(params, np.asarray(branch), np.asarray(k_grid))
    return y.y_x.real, y.y_y.real


def _turns(angles: np.ndarray) -> np.ndarray:
    """Angle increments along each row of closed-curve angles (the last
    sample repeats the first), wrapped into [-pi, pi)."""
    step = np.fmod(angles[..., 1:] - angles[..., :-1] + np.pi, 2.0 * np.pi)
    # fmod keeps the dividend's sign; % would add 2pi to a negative one
    return np.where(step < 0.0, step + 2.0 * np.pi, step) - np.pi


def _gate(x: np.ndarray, y: np.ndarray) -> tuple[list, list, list, list]:
    """Angle-count winding, trapezoid quadrature and minimum radius of each
    row of a stack of closed curves (x, y), and its refusal: None, or the
    first gate it fails and that gate's OriginCrossing message.

    A row is refused when it passes within ORIGIN_TOL max(1, max radius) of
    the origin, when one segment turns more than MAX_SEGMENT_TURN around it,
    or when the quadrature of (x dy - y dx)/(x^2 + y^2) at the segment
    midpoints rounds to a different integer: a curve sampled too coarsely
    near the origin can keep every segment under the turn gate and still be
    misread.  The wrapped turns of a closed curve sum to 2pi times an
    integer up to about n ulp(pi), so the angle count needs no gate of its
    own.  Every gate is evaluated on every row in one pass.
    """
    # (x, y) planes of each curve, closed by its first sample
    xy = np.stack([x, y])
    xy = np.concatenate([xy, xy[..., :1]], axis=-1)
    r = np.hypot(xy[0], xy[1])
    r_min, r_max = r.min(axis=-1), r.max(axis=-1)
    dang = _turns(np.arctan2(xy[1], xy[0]))
    turn = np.abs(dang).max(axis=-1)
    rounded = np.rint(dang.sum(axis=-1) / (2.0 * np.pi))
    (dx, dy), (xm, ym) = xy[..., 1:] - xy[..., :-1], 0.5 * (xy[..., 1:] + xy[..., :-1])
    # a midpoint on the origin divides by zero, on a row the turn gate refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        quad = np.sum((xm * dy - ym * dx) / (xm * xm + ym * ym), axis=-1) / (2.0 * np.pi)
    fails = np.stack([r_min < ORIGIN_TOL * np.maximum(1.0, r_max), turn > MAX_SEGMENT_TURN,
                      np.rint(quad) != rounded])
    winding = rounded.astype(int).tolist()
    refusal = [None] * len(winding)
    for i in np.flatnonzero(fails.any(axis=0)).tolist():
        gate = RADIUS + int(np.argmax(fails[:, i]))
        refusal[i] = (gate, _REFUSALS[gate].format(
            r=r_min[i], turn=turn[i], quad=quad[i],
            off=abs(quad[i] - winding[i]), winding=winding[i]))
    return winding, quad.tolist(), r_min.tolist(), refusal


def _check_samples(n: int) -> None:
    """A certified winding needs a curve of MIN_WINDING_SAMPLES samples."""
    if n < MIN_WINDING_SAMPLES:
        raise OutOfRange(f"branch has {n} samples; need >= {MIN_WINDING_SAMPLES}")


def _gated_curve(params: CircuitParams, branch: np.ndarray, k_grid: np.ndarray,
                 certify: bool) -> tuple[int, float, np.ndarray, np.ndarray]:
    """Angle count and quadrature of one branch's curve, and the curve as a
    one-row stack (x, y).  Raises OriginCrossing when the curve fails one of
    the two origin gates, or, when certify, any gate of _gate or the sample
    floor (OutOfRange)."""
    if certify:
        _check_samples(len(branch))
    x, y = np.atleast_2d(*_admittance_plane_curve(params, branch, k_grid))
    (winding,), (quad,), _, (refusal,) = _gate(x, y)
    if refusal is not None and (certify or refusal[0] in (RADIUS, TURN)):
        raise OriginCrossing(refusal[1])
    return winding, quad, x, y


def winding_number(params: CircuitParams,
                   branch: np.ndarray,
                   k_grid: np.ndarray) -> int:
    """Signed turns of the real-projected admittance vector around the origin.

    The branch must sample one full period of k on k_grid.  Accumulates
    wrapped angle increments between consecutive samples and closes the curve
    back to its first point, so the result is an exact integer for any curve
    sampled finely enough that no single step turns by more than pi.  Every
    gate of _gate must pass, the trapezoid quadrature of the same curve
    rounding to the same integer among them.
    """
    return _gated_curve(params, branch, k_grid, certify=True)[0]


def winding_quadrature(params: CircuitParams,
                       branch: np.ndarray,
                       k_grid: np.ndarray) -> float:
    """Independent route: trapezoid quadrature of (x dy - y dx)/(x^2+y^2).

    Returns the raw (unrounded) value so tests can compare routes without
    the rounding step hiding disagreement; only the two origin gates apply.
    """
    return _gated_curve(params, branch, k_grid, certify=False)[1]


def winding_crossings(params: CircuitParams,
                      branch: np.ndarray,
                      k_grid: np.ndarray) -> int:
    """Second independent route: signed crossings of the positive x axis.

    A segment crosses upward when y0 <= 0 < y1 and downward when
    y1 <= 0 < y0, so a vertex on the axis counts the two segments meeting
    there once between them; the crossing lies on the positive side when
    the origin is left of an upward segment (right of a downward one).
    Only the two origin gates apply.
    """
    _, _, x0, y0 = _gated_curve(params, branch, k_grid, certify=False)
    x1, y1 = np.roll(x0, -1, axis=-1), np.roll(y0, -1, axis=-1)
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
    # one evaluation and one gate pass over all branches, each gated on its own
    _check_samples(len(band.k_grid))
    stack = np.stack(list(band.branches.values()))
    gated = zip(band.branches, *_gate(*_admittance_plane_curve(params, stack, band.k_grid)))
    return {lab: WindingResult(label=lab, winding=w, quadrature=q, curve_min_radius=r)
            for lab, w, q, r, refusal in gated if refusal is None}


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


def _clusters(close: np.ndarray) -> np.ndarray:
    """Connected components of a symmetric boolean relation with a true
    diagonal: each index is labelled with the least index it reaches."""
    label = np.arange(len(close))
    while True:
        reached = np.where(close, label, len(close)).min(axis=1)
        if np.array_equal(reached, label):
            return label
        label = reached


def center_of_mass_shift(spectrum: ChainSpectrum) -> float:
    """Mean state displacement from the chain midpoint, in sites.

    Positive values mean weight accumulated toward the high-index end.
    Translation symmetry pins the periodic-chain value at zero, so this is
    the skin-effect order parameter for open chains.  Eigenvalues closer
    than 1e-8 max(1, max |lambda|) (the eigen-residual gate's factor, on
    the spectral radius rather than that gate's max(1, ||M||_inf)) form
    one cluster whose states are summed through an orthonormal basis of
    their span, so no choice of basis inside a degenerate subspace (the
    Edge pair of a gapped chain) moves the result.
    """
    vals = spectrum.eigenvalues
    n = spectrum.n_states
    tol = 1e-8 * max(1.0, float(np.abs(vals).max()))
    close = np.abs(vals[:, None] - vals[None, :]) < tol
    cluster = _clusters(close)
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
