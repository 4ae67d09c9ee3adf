"""Natural oscillation frequencies, band tracking, and finite-chain spectra.

The source-free modes at wavenumber k solve Lambda(omega)^2 = y_x^2 + y_y^2.
Clearing denominators by (omega^2 L eta1 eta2)^2, with
eta_j = 1 + i omega R_j C_j, gives a sextic that factors exactly as
eta1 eta2 Q: the dissipation poles i/(R_j C_j) are roots at every k, and the
quartic Q carries the four physical band families.  In s = -i omega both
eta_j = 1 - tau_j s (tau_j = R_j C_j) and omega^2 = -s^2 are real, so Q is
a real quartic in s:

    Q(s) = 1 - (tau1 + tau2) s + (tau1 tau2 + 2 L C1 + 2 L C2) s^2
           - 2 L (C1 tau2 + C2 tau1) s^3 + 2 L^2 C1 C2 (1 - cos k) s^4.

A real root s is an imaginary-axis frequency omega = i s with Re omega
exactly 0, and a conjugate pair in s is a mirror pair omega, -conj(omega),
exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circuit import RealSpaceMatrix, bloch_admittance, lambda_diag
from .errors import (
    ConvergenceFailure,
    InvalidParams,
    OutOfRange,
    RootResidualTooLarge,
    TrackingAmbiguous,
)
from .params import Boundary, CircuitParams, is_index

# back-substitution gate, relative to sum_j |q_j| |s|^j
ROOT_RESIDUAL_TOL = 1e-7
BRANCH_LABELS = ("omega3", "omega4", "omega5", "omega6")
# the coarsest k grid a band is traced on, and the fewest samples a branch
# winding is certified from
MIN_WINDING_SAMPLES = 64
# the 24 permutations of four slots in lexicographic order, and their inverses
_PERMS = np.array(list(itertools.permutations(range(4))))
_INVERSE = np.argsort(_PERMS, axis=1)
# the six root pairs of a row, as the root-separation gate reads them
_PAIRS = np.triu_indices(4, 1)


def _quartic(params: CircuitParams, k) -> np.ndarray:
    """Ascending real coefficients q[..., 0..4] of Q(s) at each k."""
    t1, t2 = params.r1 * params.c1, params.r2 * params.c2
    lc1, lc2 = params.l * params.c1, params.l * params.c2
    top = 2.0 * lc1 * lc2 * (1.0 - np.cos(k))
    fixed = [1.0, -(t1 + t2), t1 * t2 + 2.0 * (lc1 + lc2), -2.0 * (lc1 * t2 + lc2 * t1)]
    return np.concatenate([np.broadcast_to(fixed, np.shape(top) + (4,)),
                           np.expand_dims(top, -1)], axis=-1)


@dataclass(frozen=True)
class FrequencyRoots:
    roots: np.ndarray            # physical roots, then pole roots
    pole_roots: np.ndarray       # i/(R_j C_j) for each R_j > 0
    physical_roots: np.ndarray   # roots of Q, sorted lexicographic (Re, Im)


def _horner(planes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Polynomials given by coefficient planes, highest power first, at x:
    numpy polyval's steps c + value * x from the leading plane."""
    value = planes[0]
    for c in planes[1:]:
        value = c + value * x
    return value


def _solve(params: CircuitParams, ks: np.ndarray) -> np.ndarray:
    """Physical roots omega at every k, one row per k, sorted lexicographic
    (Re, Im).

    Every k must give Q the same degree: 4, or less where cos k == 1 on
    every row.  The real companion matrices are laid out as np.roots lays
    them out and solved as one eigvals stack; the roots are polished by two
    Newton steps on Q, gated on their scaled residual and mapped to
    omega = i s.
    """
    coeffs = _quartic(params, ks)
    # zero coefficients are exact: the s^4 term at cos k == 1, the odd
    # terms of a lossless circuit
    deg = int(np.flatnonzero(coeffs.any(axis=0))[-1])
    if not coeffs[:, deg].all():
        j = int(np.argmin(coeffs[:, deg] != 0.0))
        raise TrackingAmbiguous(
            f"band quartic loses its s^{deg} term at k={ks[j]:.6g} (zone endpoint)"
        )
    coeffs = coeffs[:, :deg + 1]
    companion = np.zeros((len(ks), deg, deg))
    companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    companion[:, 0, :] = -coeffs[:, -2::-1] / coeffs[:, -1:]
    # one row per root and one column per k: each step below runs along k
    s = np.linalg.eigvals(companion).T.astype(complex, order="C")
    # planes of Q, of Q' (its zero leading plane leaves Horner's first step
    # exact, so one pass evaluates both) and of |q_j|, highest power first
    q = coeffs.T[::-1]
    dq = np.concatenate([np.zeros_like(q[:1]), np.arange(deg, 0, -1)[:, None] * q[:-1]])
    planes = np.array([q, dq, np.abs(q)]).transpose(1, 0, 2)[:, :, None].astype(complex)
    for _ in range(2):
        value, slope = _horner(planes[:, :2], s)
        ok = np.abs(slope) > 0   # a root where Q' vanishes stays put
        s = np.where(ok, s - value / np.where(ok, slope, 1.0), s)
    # |Q(s)| relative to sum_j |q_j| |s|^j stays O(eps) for backward-stable
    # roots of any magnitude
    value, scale = _horner(planes[:, ::2], np.array([s, np.abs(s)]))
    res = (np.abs(value) / np.maximum(scale.real, 1e-300)).max(axis=0)
    if res.max() > ROOT_RESIDUAL_TOL:
        j = int(np.argmax(res > ROOT_RESIDUAL_TOL))
        raise RootResidualTooLarge(
            f"worst root residual {res[j]:.3e} at k={ks[j]:.6g}"
        )
    # complex sort is lexicographic (Re, Im), and stable on four entries
    return np.sort(1j * s.T, axis=1)


def natural_frequencies(params: CircuitParams, k: float) -> FrequencyRoots:
    """The roots of Q at k and the dissipation poles i/(R_j C_j).

    The poles are constants, one for each R_j > 0; a lossless circuit has
    none.  Q has four roots for every k with cos k != 1, fewer at the zone
    endpoints.
    """
    physical = _solve(params, np.array([k], dtype=float))[0]
    poles = np.array([pole for pole in params.pole_frequencies() if np.isfinite(pole)],
                     dtype=complex)
    return FrequencyRoots(roots=np.concatenate([physical, poles]), pole_roots=poles,
                          physical_roots=physical)


@dataclass(frozen=True)
class BandSet:
    """Four frequency branches tracked over the zone.

    k_grid is the half-offset uniform grid (j + 1/2) * 2pi / n_k, which keeps
    clear of the zone endpoints where one root diverges.  Sample n_k - 1 - j
    of the branches holds sample j's roots, reordered (band_trace).
    closure_permutation maps each branch to the branch whose first value its
    last value continues into, so the branch set is periodic as a multiset
    even when individual branches exchange identities over one period; it
    is the product of the swaps at the square-root branch points of
    0 < k < pi.
    """

    k_grid: np.ndarray
    branches: dict[str, np.ndarray]
    continuity_residual: dict[str, float]
    closure_permutation: tuple[int, ...]


def midpoint_grid(n_k: int) -> np.ndarray:
    return (np.arange(n_k) + 0.5) * (2.0 * np.pi / n_k)


def _step_costs(roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cost[j, p] of continuing row j of roots into row j + 1 by _PERMS[p]
    (root i into root _PERMS[p, i]), infinite where p breaks the branch-point
    convention of band_trace, and the indices j of the branch-point steps.
    Each row is sorted (Re, Im).  The four |delta omega| terms are sorted by
    a 5-comparator network and added smallest first.
    """
    # dist[i, m, j] = |roots[j, i] - roots[j + 1, m]|; term i of every
    # permutation is one contiguous (24, steps) plane of it
    rows = roots.T
    dist = np.abs(rows[:, None, :-1] - rows[None, :, 1:])
    v = list(dist[np.arange(4)[:, None], _PERMS.T])
    for x, y in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        v[x], v[y] = np.minimum(v[x], v[y]), np.maximum(v[x], v[y])
    cost = (v[0] + v[1] + v[2] + v[3]).T
    # a step is a branch point only when the axis-root count goes 2 -> 0 or
    # 0 -> 2, which the root sets decide whatever their order.  A row with
    # two axis roots holds them at sorted indices 1 (smaller Im) and 2, and
    # a row with none holds the Re < 0 members at 0 and 1
    on_axis = (roots.real == 0.0).sum(axis=1)
    split = (on_axis[:-1] == 2) & (on_axis[1:] == 0)
    special = split | ((on_axis[:-1] == 0) & (on_axis[1:] == 2))
    at = np.flatnonzero(special)
    merge = ~split[at]
    axis_row = np.where(merge[:, None], roots[at + 1], roots[at])
    near = np.abs(np.where(merge[:, None], roots[at], roots[at + 1])
                  - axis_row[:, 1:3].mean(axis=1, keepdims=True))
    # a split sends axis roots 1, 2 to the newborn pair's Re < 0 and Re > 0
    # members; a merge sends the Re > 0 and Re < 0 members to 1, 2
    pins = np.stack([near[:, :2].argmin(axis=1), 2 + near[:, 2:].argmin(axis=1)], axis=1)
    pins[merge] = pins[merge, ::-1]
    table = np.where(merge[:, None, None], _INVERSE, _PERMS)
    cost[at] = np.where((table[:, :, 1:3] == pins[:, None, :]).all(axis=2), cost[at], np.inf)
    return cost, at


def band_trace(params: CircuitParams, n_k: int) -> BandSet:
    """Continuity-track the four physical roots over the n_k-point
    half-offset grid.

    Each grid step continues the roots by the cheapest of the 24 slot
    permutations, scored by summed |delta omega|; the four terms are added
    smallest first, so permutations pairing the same distances cost bitwise
    the same, and an exact tie goes to the permutation first in
    lexicographic order of the (Re, Im)-sorted roots.  Where a mirror pair
    meets the imaginary axis beside another axis pair (axis-root count
    2 <-> 4) the pair's members are equidistant from each axis root, and
    that tie pairs the Re < 0 member with the smaller-Im axis root.  A step
    where an axis pair collides and splits off the axis (count 2 -> 0), or
    the reverse, is a square-root branch point where distance is degenerate;
    there only the permutations keeping a fixed convention compete: the
    smaller-Im axis root continues into the Re < 0 member of the newborn
    pair (the one nearest the axis pair's center) and the larger into
    Re > 0, and on re-merging the Re > 0 member continues into the
    smaller-Im axis root.

    Q depends on k only through cos k, so the roots at k and 2pi - k are
    the same set.  Only the first ceil(n_k / 2) grid points, k <= pi, are
    solved and tracked; row n_k - 1 - j is row j with its slots permuted.
    That permutation is the identity at k = pi.  Walking back toward k = 0,
    a step that retraces its cheapest permutation leaves it alone, and each
    square-root branch point swaps the two slots of its axis pair, since
    the convention is not its own inverse there.  The closure permutation
    is its value at k = 0: the product of the branch points' swaps.
    """
    if not is_index(n_k):
        raise InvalidParams(f"n_k must be an integer, got {n_k!r}")
    if n_k < MIN_WINDING_SAMPLES:
        raise TrackingAmbiguous(
            f"n_k={n_k} too coarse; need >= {MIN_WINDING_SAMPLES}")
    ks = midpoint_grid(n_k)
    h = (n_k + 1) // 2
    roots = _solve(params, ks[:h])
    gaps = np.abs(roots[:, _PAIRS[0]] - roots[:, _PAIRS[1]]).min(axis=1)
    if gaps.min() < 1e-10:
        j = int(np.argmax(gaps < 1e-10))
        raise TrackingAmbiguous(
            f"physical roots within {gaps[j]:.3e} of each other "
            f"near k={ks[j]:.6g}; refine the grid"
        )
    # each row of roots is sorted (Re, Im); the first row names the
    # branches, and argmin takes the first of tied permutations
    cost, at = _step_costs(roots)
    # row j's slot order composes the steps before it: those off the identity
    steps = cost.argmin(axis=1)
    moves = np.flatnonzero(steps)
    orders = itertools.accumulate(_PERMS[steps[moves]], lambda p, q: q[p], initial=np.arange(4))
    perm = np.array(list(orders))[np.searchsorted(moves, np.arange(h))]
    half = np.take_along_axis(roots, perm, axis=1)
    # mirror[j] permutes row j's slots into row n_k - 1 - j; it changes only
    # across the branch points, so fill it between them from k = pi down
    mirror = np.empty((h, 4), dtype=int)
    closure, top = np.arange(4), h
    for j in at[::-1]:
        mirror[j + 1:top] = closure
        axis = np.flatnonzero((half[j].real == 0.0) | (half[j + 1].real == 0.0))
        swap = np.arange(4)
        swap[axis] = axis[::-1]
        closure, top = swap[closure], j + 1
    mirror[:top] = closure
    # with n_k odd, the row at k = pi is its own mirror
    traced = np.concatenate(
        [half, np.take_along_axis(half, mirror, axis=1)[::-1][2 * h - n_k:]])
    branches = {lab: traced[:, i] for i, lab in enumerate(BRANCH_LABELS)}
    resid = dict(zip(BRANCH_LABELS, np.abs(np.diff(traced, axis=0)).max(axis=0).tolist()))
    return BandSet(k_grid=ks, branches=branches, continuity_residual=resid,
                   closure_permutation=tuple(closure.tolist()))


def lambda_spectrum(params: CircuitParams, band: BandSet) -> dict[str, np.ndarray]:
    """Lambda(omega(k)) along each branch, for band-structure output."""
    return {lab: lambda_diag(params, band.branches[lab]) for lab in BRANCH_LABELS}


def bulk_gap(params: CircuitParams, omega_branch: np.ndarray) -> float:
    """Gap 2*Delta with Delta = min_k |Lambda| along the given branch."""
    omega_branch = np.asarray(omega_branch)
    if omega_branch.size == 0:
        raise OutOfRange("bulk_gap needs a non-empty branch")
    return 2.0 * float(np.min(np.abs(lambda_diag(params, omega_branch))))


@dataclass(frozen=True)
class ChainSpectrum:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray     # column i pairs with eigenvalues[i]
    ipr: np.ndarray
    left_weight: np.ndarray
    right_weight: np.ndarray
    boundary: Boundary
    labels: tuple[str, ...] | None = None

    @property
    def n_states(self) -> int:
        return len(self.eigenvalues)


def eigendecompose(matrix: RealSpaceMatrix) -> ChainSpectrum:
    """Dense non-Hermitian eigendecomposition with localization metrics.

    Eigenpairs are sorted lexicographically by (Re, Im) and each right
    eigenvector is normalized to unit 2-norm; the residual gate scales with
    the matrix norm.
    """
    m = matrix.entries
    if not np.all(np.isfinite(m)):
        raise OutOfRange("matrix contains non-finite entries")
    try:
        vals, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    order = np.lexsort((vals.imag, vals.real))
    vals, vecs = vals[order], vecs[:, order]
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    scale = max(1.0, float(np.linalg.norm(m, np.inf)))
    resid = np.linalg.norm(m @ vecs - vecs * vals[None, :], axis=0)
    if np.any(resid > 1e-8 * scale):
        raise ConvergenceFailure(
            f"worst eigen-residual {resid.max():.3e} exceeds {1e-8 * scale:.3e}"
        )
    mags = np.abs(vecs) ** 2
    tenth = max(1, m.shape[0] // 10)
    return ChainSpectrum(
        eigenvalues=vals,
        eigenvectors=vecs,
        ipr=np.sum(mags * mags, axis=0),
        left_weight=np.sum(mags[:tenth, :], axis=0),
        right_weight=np.sum(mags[-tenth:, :], axis=0),
        boundary=matrix.params.boundary,
    )


def branch_effective_matrix(params: CircuitParams, band: BandSet,
                            label: str) -> RealSpaceMatrix:
    """Real-space matrix that follows one tracked branch.

    At fixed omega the open chain's hopping pattern reads the same from both
    ends, which forces every eigenvector magnitude to be mirror symmetric;
    no single-frequency matrix can show one-sided accumulation.  Following a
    branch restores k-dependent weights: the matrix is the block-Toeplitz
    inverse Fourier transform of Y(omega_b(k), k) over the tracking grid,
    and branches that exchange identities at the square-root collisions are
    genuinely non-reciprocal.
    """
    n = params.n_cells
    ks = band.k_grid
    if len(ks) < 2 * n - 1:
        raise OutOfRange(
            f"band grid too coarse for n_cells={n}: need n_k >= {2 * n - 1}"
        )
    y = bloch_admittance(params, band.branches[label], ks).entries
    ms = np.arange(-(n - 1), n)
    phases = np.exp(-1j * np.outer(ms, ks))
    blocks = np.tensordot(phases, y, axes=(1, 0)) / len(ks)
    # c_m couples cell i to cell i + m, so m is a column offset; a periodic
    # chain sums the offsets that wrap onto the same cell pair
    offset = np.subtract.outer(np.arange(n), np.arange(n))
    if params.boundary is Boundary.PERIODIC:
        folded = np.zeros((n, 2, 2), dtype=complex)
        np.add.at(folded, ms % n, blocks)
        cells = folded[-offset % n]
    else:
        cells = blocks[n - 1 - offset]
    return RealSpaceMatrix(entries=cells.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n),
                           params=params)
