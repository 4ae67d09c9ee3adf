"""Reference constructions that only the tests and the oracles read.

The Pauli matrices, the 2x2 cell Laplacian, the off-diagonal product q(k)
along a branch, the finite chain matrix at one frequency, the lossless
closed-form bands, the netlist node parser, a stepwise band continuation
by the assignment solver and the full-width node columns of a transient
trace.  The
package computes none of its outputs from these; they are independent
routes the tests compare it against.  Test modules import this file
directly (pytest puts ``tests/`` on the path); the scripts under
``tools/oracles/`` add ``tests/`` to ``sys.path`` themselves.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from topochain import Boundary, CircuitParams, RealSpaceMatrix, chain_bonds
from topochain.circuit import bloch_admittance, hoppings, lambda_diag
from topochain.errors import InvalidParams

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def bloch_laplacian(params: CircuitParams, omega: complex, k: float) -> np.ndarray:
    """2x2 cell Laplacian i*omega*[Lambda*I - Y(k)] at one (omega, k);
    singular exactly on bands.

    det L / (i omega)^2 = Lambda^2 - (y_x^2 + y_y^2), with y_x, y_y the
    sigma components of bloch_admittance, so the natural modes are the
    (omega, k) pairs where Lambda(omega) is an eigenvalue of Y(k).
    """
    y = bloch_admittance(params, omega, k).entries
    lam = lambda_diag(params, omega)
    return 1j * omega * (lam * np.eye(2, dtype=complex) - y)


def offdiag_product(params: CircuitParams, branch: np.ndarray,
                    k_grid: np.ndarray) -> np.ndarray:
    """q(k) = (v + w e^{-ik})(v + w e^{+ik}) along a tracked branch: the
    det(Y - E0) = E0^2 - q(k) of its Bloch admittance."""
    y = bloch_admittance(params, branch, k_grid).entries
    return y[:, 0, 1] * y[:, 1, 0]


def chain_matrix_from_hoppings(
    v: complex | np.ndarray,
    w: complex | np.ndarray,
    n_cells: int,
    boundary: Boundary,
) -> np.ndarray:
    """Assemble the 2N x 2N nearest-neighbor matrix from given weights.

    v and w may be scalars or per-bond arrays (length N for v; N or N-1
    for w depending on boundary), in the bond order of chain_bonds.
    """
    n = int(n_cells)
    tail, head = chain_bonds(n, boundary)
    weights = np.concatenate([
        np.broadcast_to(np.asarray(v, dtype=complex), (n,)),
        np.broadcast_to(np.asarray(w, dtype=complex), (len(tail) - n,)),
    ])
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    m[tail, head] = weights
    m[head, tail] = weights
    return m


def real_space_matrix(params: CircuitParams, omega: complex) -> RealSpaceMatrix:
    hp = hoppings(params, omega)
    m = chain_matrix_from_hoppings(hp.v, hp.w, params.n_cells, params.boundary)
    return RealSpaceMatrix(entries=m, params=params)


def hermitian_reference_bands(l1: float, l2: float, c: float, k: float) -> tuple[float, float]:
    """Closed-form two-band dispersion of the lossless two-inductor ladder.

    omega_pm^2 / omega_0^2 = eta + 1/eta +- sqrt(eta^2 + eta^-2 + 2 cos k),
    eta = sqrt(L1/L2), omega_0^2 = 1/(C sqrt(L1 L2)).  Used purely as an
    independent oracle for the R -> 0 limit of this package's bands (the
    lossless chain maps onto this form with the roles of L and C exchanged).
    Returns (omega_minus^2, omega_plus^2) in units of omega_0^2.
    """
    if l1 <= 0 or l2 <= 0 or c <= 0:
        raise ValueError("l1, l2, c must be positive")
    eta = np.sqrt(l1 / l2)
    base = eta + 1.0 / eta
    radicand = eta * eta + 1.0 / (eta * eta) + 2.0 * np.cos(k)
    # radicand >= (eta - 1/eta)^2 >= 0 up to roundoff
    assert radicand > -1e-12, radicand
    root = np.sqrt(max(radicand, 0.0))
    # base^2 - radicand = 2 - 2 cos k, so the lower band needs no cancelling
    # difference base - root
    return float(4.0 * np.sin(0.5 * k) ** 2 / (base + root)), float(base + root)


def lattice_nodes(text: str) -> list[str]:
    """Distinct lattice node names referenced by a netlist, sorted."""
    found = set()
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith(("*", ".")):
            continue
        for tok in parts[1:]:
            if len(tok) > 2 and tok[0] == "n" and tok[1].isdigit() and \
                    ("_A" in tok or "_B" in tok):
                found.add(tok)
    if not found:
        raise InvalidParams("no lattice nodes found in netlist text")
    return sorted(found, key=lambda s: (int(s[1:s.index('_')]), s[-1]))


def continue_step(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Assign the 4 new roots to the 4 branch slots.

    Generic steps use minimum-distance assignment.  Steps where an
    imaginary-axis pair collides and splits off-axis (or the reverse) are
    square-root branch points; there the minimum-distance cost is degenerate,
    so a fixed continuation convention is applied instead: the larger-|Im|
    axis root continues into the Re > 0 member of the newborn pair, the
    smaller into Re < 0 (and the mirrored rule when the pair re-merges: the
    Re > 0 member into the smaller-|Im| axis root).  The off-axis pair is the
    two roots nearest the axis pair's center; the other two roots are
    assigned by minimum distance.  This keeps the assignment deterministic
    and grid-independent.

    Where a mirror pair lands on the axis beside another axis pair, or
    leaves it (axis-root count 2 <-> 4), the pair's members are equidistant
    from each axis root and the two assignments tie; the Re < 0 member is
    pinned to the smaller-Im of the two axis roots nearest the pair's
    center, the Re > 0 member to the larger.
    """
    ax_prev, ax_new = prev.real == 0.0, new.real == 0.0
    counts = (np.count_nonzero(ax_prev), np.count_nonzero(ax_new))
    if counts in ((2, 4), (4, 2)):
        lands = counts == (2, 4)
        two, four = (prev, new) if lands else (new, prev)
        pair = np.where(two.real != 0.0)[0]
        pair = pair[np.argsort(two[pair].real)]                # Re<0, Re>0
        axis = np.argsort(np.abs(four - two[pair].mean()))[:2]
        axis = axis[np.argsort(four[axis].imag)]               # small, large Im
        slots, roots = (pair, axis) if lands else (axis, pair)
    elif counts in ((2, 0), (0, 2)):
        splits = counts == (2, 0)
        on_axis, off_axis, ax = (prev, new, ax_prev) if splits else (new, prev, ax_new)
        axis = np.where(ax)[0]
        axis = axis[np.argsort(on_axis[axis].imag)]            # small, large |Im|
        pair = np.argsort(np.abs(off_axis - on_axis[axis].mean()))[:2]
        pair = pair[np.argsort(off_axis[pair].real)]           # Re<0, Re>0
        slots, roots = (axis, pair) if splits else (pair[::-1], axis)
    else:
        # the row indices of a square assignment are 0..3 in order
        return linear_sum_assignment(np.abs(prev[:, None] - new[None, :]))[1]
    # pinned slots and roots, then the two slots and roots left over
    free_slots, free_roots = np.ones(4, dtype=bool), np.ones(4, dtype=bool)
    free_slots[slots], free_roots[roots] = False, False
    assign = np.empty(4, dtype=int)
    assign[slots] = roots
    rr, cc = linear_sum_assignment(
        np.abs(prev[free_slots][:, None] - new[free_roots][None, :]))
    assign[np.where(free_slots)[0][rr]] = np.where(free_roots)[0][cc]
    return assign


def full_width_columns(trace) -> tuple[np.ndarray, np.ndarray]:
    """Every node's voltages and ground currents of a transient trace, each
    (n_samples, 2N), gathered as simulate once stored them.

    Each row block of 64 states goes through the phase's whole voltage map,
    one column per stepped node, and is gathered onto the full chain by the
    trace's node map; the source term is added after the gather.  The
    ground currents are the state's current block gathered the same way.
    """
    rows_d, node_src, states = trace._rows_driven, trace._node_src, trace._states
    volts = np.empty((len(states), len(node_src)))
    for x, v, v_map in ((states[:rows_d], volts[:rows_d], trace._v_map_driven),
                        (states[rows_d:], volts[rows_d:], trace._v_map_free)):
        for j in range(0, len(x), 64):
            v[j:j + 64] = (x[j:j + 64] @ v_map.T)[:, node_src]
    setup = trace.metadata
    drive = setup.source_amplitude * np.sin(setup.drive_frequency * trace.times[:rows_d])
    volts[:rows_d] += trace._v_src_driven[node_src] * drive[:, None]
    return volts, states[:, trace._n_branches:][:, node_src]
