"""Frequency-dependent matrix assembly for the RLC chain.

The chain alternates two series RC pairs between neighboring nodes and
grounds every node through an inductor.  At complex frequency omega the
branch admittance of a series RC pair is a complex "hopping" weight; the
two-site Bloch cell and the finite open/periodic chain are assembled from
those weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateEta, ZeroFrequency
from .params import Boundary, CircuitParams, ETA_FLOOR, OMEGA_FLOOR

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class HoppingPair:
    """Intracell (v) and intercell (w) admittance weights, shaped like omega."""

    v: complex | np.ndarray
    w: complex | np.ndarray


def _etas(params: CircuitParams, omega):
    """eta_j = 1 + i omega R_j C_j elementwise; one element off either floor raises."""
    mag = np.abs(omega)
    if np.any(mag < OMEGA_FLOOR):
        raise ZeroFrequency(f"|omega|={np.min(mag):.3g} below floor {OMEGA_FLOOR}")
    eta1 = 1.0 + 1j * omega * params.r1 * params.c1
    eta2 = 1.0 + 1j * omega * params.r2 * params.c2
    near = np.minimum(np.abs(eta1), np.abs(eta2))
    if np.any(near < ETA_FLOOR):
        j = np.argmin(near)
        raise DegenerateEta(
            f"omega={np.ravel(omega)[j]} sits on a dissipative pole "
            f"(|eta1|={np.ravel(np.abs(eta1))[j]:.3g}, "
            f"|eta2|={np.ravel(np.abs(eta2))[j]:.3g})"
        )
    return eta1, eta2


def hoppings(params: CircuitParams, omega) -> HoppingPair:
    """v = -C1/(1 + i omega R1 C1), w = -C2/(1 + i omega R2 C2), elementwise in omega."""
    eta1, eta2 = _etas(params, omega)
    return HoppingPair(v=-params.c1 / eta1, w=-params.c2 / eta2)


def lambda_diag(params: CircuitParams, omega):
    """Node admittance 1/(omega^2 L) - C1/eta1 - C2/eta2, elementwise in omega."""
    eta1, eta2 = _etas(params, omega)
    return 1.0 / (omega * omega * params.l) - params.c1 / eta1 - params.c2 / eta2


@dataclass(frozen=True)
class BlochMatrix:
    """2x2 zero-diagonal cell matrix Y(omega, k) of the hoppings v, w at k.

    entries holds the off-diagonals v + w e^{-ik} / v + w e^{+ik}; y_x and
    y_y are the sigma decomposition Y = y_x sigma_x + y_y sigma_y, with
    y_x = v + w cos k and y_y = w sin k.  Array-valued v, w and k broadcast:
    entries then has shape (..., 2, 2) and the other forms the broadcast
    shape.  Each form is computed on its first read, so a caller pays only
    for the form it reads.
    """

    v: complex | np.ndarray
    w: complex | np.ndarray
    k: float | np.ndarray

    @cached_property
    def entries(self) -> np.ndarray:
        upper = self.v + self.w * np.exp(-1j * self.k)
        m = np.zeros(np.shape(upper) + (2, 2), dtype=complex)
        m[..., 0, 1] = upper
        m[..., 1, 0] = self.v + self.w * np.exp(+1j * self.k)
        return m

    @cached_property
    def y_x(self) -> complex | np.ndarray:
        return self.v + self.w * np.cos(self.k)

    @cached_property
    def y_y(self) -> complex | np.ndarray:
        return self.w * np.sin(self.k)


def bloch_admittance(params: CircuitParams, omega, k) -> BlochMatrix:
    """Y(omega, k), elementwise over broadcast omega and k."""
    hp = hoppings(params, omega)
    return BlochMatrix(v=hp.v, w=hp.w, k=k)


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


@dataclass(frozen=True)
class RealSpaceMatrix:
    """2N x 2N zero-diagonal hopping matrix of the finite chain.

    Basis is interleaved (A1, B1, A2, B2, ...); the matrix is complex
    symmetric (transpose-symmetric), not Hermitian, whenever R > 0.
    """

    entries: np.ndarray
    params: CircuitParams


def chain_bonds(n_cells: int, boundary: Boundary) -> tuple[np.ndarray, np.ndarray]:
    """Tail and head node of every bond of the finite chain, in bond order.

    The N intra-cell (R1 C1) bonds (2j, 2j+1) come first, then the
    inter-cell (R2 C2) bonds (2j+1, 2j+2); on a periodic chain the last of
    these is the ring bond (2N-1, 0).  So bond c and bond N + c, where it
    exists, are the two bonds leaving cell c.
    """
    n = int(n_cells)
    n_inter = n if boundary is Boundary.PERIODIC else n - 1
    tail = np.concatenate([2 * np.arange(n), 2 * np.arange(n_inter) + 1])
    return tail, (tail + 1) % (2 * n)


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
