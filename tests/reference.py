"""Reference constructions that only the tests and the oracles read.

The Pauli matrices, the 2x2 cell Laplacian, the finite chain matrix at one
frequency, the lossless closed-form bands and the netlist node parser.  The
package computes none of its outputs from these; they are independent
routes the tests compare it against.  Test modules import this file
directly (pytest puts ``tests/`` on the path); the scripts under
``tools/oracles/`` add ``tests/`` to ``sys.path`` themselves.
"""

from __future__ import annotations

import numpy as np

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
