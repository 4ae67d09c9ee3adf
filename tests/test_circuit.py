import numpy as np
import pytest

import topochain as tc
from topochain.errors import DegenerateEta, ZeroFrequency

from conftest import ROWS, assert_close, row_params
from reference import (
    SIGMA_X,
    SIGMA_Y,
    bloch_laplacian,
    chain_matrix_from_hoppings,
    hermitian_reference_bands,
    real_space_matrix,
)

# 50-digit arithmetic reference at row 1, omega = 1 + 0.5j
# (tools/oracles/hopping_reference.py)
REF_OMEGA = 1.0 + 0.5j
REF_V = -0.19702894669463366 + 0.69000783808051898j
REF_W = -0.4649552861755269 + 0.036983706152771310j
REF_LAM = -0.069391640277567967 - 0.063131912556833164j


def test_hoppings_against_reference():
    hp = tc.hoppings(row_params(1), REF_OMEGA)
    assert_close(hp.v, REF_V, 1e-15, "v")
    assert_close(hp.w, REF_W, 1e-15, "w")


def test_lambda_against_reference():
    assert_close(tc.lambda_diag(row_params(1), REF_OMEGA), REF_LAM, 1e-15, "lam")


def test_zero_frequency_rejected():
    with pytest.raises(ZeroFrequency):
        tc.lambda_diag(row_params(1), 0.0)


def test_degenerate_eta_rejected():
    # omega at the pole makes 1 + i omega R C vanish
    p = row_params(1)
    pole = p.pole_frequencies()[0]
    with pytest.raises(DegenerateEta):
        tc.hoppings(p, pole)


@pytest.mark.parametrize("on_branch", [False, True], ids=["point", "branch"])
def test_bloch_matrix_entries(on_branch):
    """One (omega, k) point, or a tracked branch over its k-grid.  Each grid
    entry is bitwise the one-point grid call; a scalar call rounds its
    complex products in numpy's scalar arithmetic, within an ulp or two."""
    p = row_params(1)
    if on_branch:
        band = tc.band_trace(p, 64)
        omega, k = band.branches["omega4"], band.k_grid
    else:
        omega, k = REF_OMEGA, 0.7
    y = tc.bloch_admittance(p, omega, k)
    hp = tc.hoppings(p, omega)
    assert y.entries.shape == np.shape(omega) + (2, 2)
    assert np.all(y.entries[..., 0, 0] == 0.0) and np.all(y.entries[..., 1, 1] == 0.0)
    assert_close(y.entries[..., 0, 1], hp.v + hp.w * np.exp(-1j * k), 1e-15)
    assert_close(y.entries[..., 1, 0], hp.v + hp.w * np.exp(+1j * k), 1e-15)
    for j in range(np.size(k) if on_branch else 0):
        one = tc.bloch_admittance(p, omega[j:j + 1], k[j:j + 1]).entries
        assert np.array_equal(one[0], y.entries[j]), j
        point = tc.bloch_admittance(p, omega[j], k[j]).entries
        assert point.shape == (2, 2)
        assert_close(point, y.entries[j], 2.0**-51 * np.abs(point).max(), str(j))


def test_sigma_decomposition_reassembles():
    y = tc.bloch_admittance(row_params(2), 0.9 - 0.2j, 2.4)
    rebuilt = y.y_x * SIGMA_X + y.y_y * SIGMA_Y
    assert_close(rebuilt, y.entries, 1e-15, "sigma decomposition")


def test_laplacian_determinant_factorization():
    # det L / (i omega)^2 must equal Lambda^2 - (y_x^2 + y_y^2)
    p = row_params(3)
    omega, k = 1.3 - 0.4j, 1.9
    det = np.linalg.det(bloch_laplacian(p, omega, k)) / (1j * omega) ** 2
    lam = tc.lambda_diag(p, omega)
    y = tc.bloch_admittance(p, omega, k)
    assert_close(det, lam**2 - y.y_x**2 - y.y_y**2, 1e-12)


def test_laplacian_singular_on_root():
    p = row_params(2)
    k = 1.1
    root = tc.natural_frequencies(p, k).physical_roots[0]
    assert abs(np.linalg.det(bloch_laplacian(p, root, k))) < 1e-9


def test_real_space_matrix_structure():
    p = row_params(1, n_cells=4)
    m = real_space_matrix(p, REF_OMEGA)
    hp = tc.hoppings(p, REF_OMEGA)
    assert m.entries.shape == (8, 8)
    assert np.all(np.diag(m.entries) == 0.0)
    # complex symmetric, not Hermitian
    assert_close(m.entries, m.entries.T, 1e-15, "transpose symmetry")
    assert np.abs(m.entries - m.entries.conj().T).max() > 1e-3
    assert m.entries[0, 1] == hp.v
    assert m.entries[1, 2] == hp.w
    assert m.entries[0, 7] == 0.0


def test_real_space_periodic_wrap():
    p = row_params(1, n_cells=4, boundary=tc.Boundary.PERIODIC)
    m = real_space_matrix(p, REF_OMEGA)
    hp = tc.hoppings(p, REF_OMEGA)
    assert m.entries[7, 0] == hp.w
    assert m.entries[0, 7] == hp.w


def test_chain_matrix_per_bond_weights():
    v = np.array([1.0, 2.0, 3.0])
    w = np.array([10.0, 20.0])
    m = chain_matrix_from_hoppings(v, w, 3, tc.Boundary.OPEN)
    assert m[0, 1] == 1.0 and m[2, 3] == 2.0 and m[4, 5] == 3.0
    assert m[1, 2] == 10.0 and m[3, 4] == 20.0


def test_bloch_consistent_with_real_space():
    """A periodic-chain plane-wave vector diagonalizes the real-space matrix.

    Checks the Fourier convention: cell j picks up e^{ikj}, so the assembled
    ring at any quantized k must reproduce the 2x2 Bloch eigenvalues.
    """
    p = row_params(2, n_cells=8, boundary=tc.Boundary.PERIODIC)
    omega = 0.8 + 0.1j
    m = real_space_matrix(p, omega).entries
    k = 2.0 * np.pi * 3 / 8
    y = tc.bloch_admittance(p, omega, k).entries
    evals, evecs = np.linalg.eig(y)
    phases = np.exp(1j * k * np.arange(8))
    for col in range(2):
        cell = evecs[:, col]
        full = np.kron(phases, cell)
        assert_close(m @ full, evals[col] * full, 1e-12, "plane wave")


def test_hermitian_reference_band_shape():
    # equal legs close the gap at the zone edge: both bands meet at 2
    xm, xp = hermitian_reference_bands(1.0, 1.0, 1.0, np.pi)
    assert xm == pytest.approx(2.0)
    assert xp == pytest.approx(2.0)
    # eta = 2 at k = 0: base 2.5, root sqrt(4 + 0.25 + 2) = 2.5
    xm0, xp0 = hermitian_reference_bands(2.0, 0.5, 1.0, 0.0)
    assert xm0 == pytest.approx(0.0, abs=1e-12)
    assert xp0 == pytest.approx(5.0)


def test_hoppings_and_lambda_elementwise_over_arrays():
    p = row_params(1)
    omega = np.array([[1.0 + 0.5j, -2.3 + 0.1j], [0.7 - 0.02j, 4.1 + 1.9j]])
    hp = tc.hoppings(p, omega)
    lam = tc.lambda_diag(p, omega)
    assert hp.v.shape == hp.w.shape == lam.shape == omega.shape
    for idx in np.ndindex(omega.shape):
        one = tc.hoppings(p, omega[idx])
        assert abs(hp.v[idx] - one.v) <= 1e-15 * abs(one.v)
        assert abs(hp.w[idx] - one.w) <= 1e-15 * abs(one.w)
        ref = tc.lambda_diag(p, omega[idx])
        assert abs(lam[idx] - ref) <= 1e-15 * abs(ref)
    with_pole = np.array([1.0 + 0.5j, p.pole_frequencies()[1], 2.0 + 0.0j])
    with pytest.raises(DegenerateEta):
        tc.hoppings(p, with_pole)
    with pytest.raises(DegenerateEta):
        tc.lambda_diag(p, with_pole)
    with_zero = np.array([1.0 + 0.5j, 0.0, 2.0 + 0.0j])
    with pytest.raises(ZeroFrequency):
        tc.hoppings(p, with_zero)
    with pytest.raises(ZeroFrequency):
        tc.lambda_diag(p, with_zero)


def _bits(z):
    return np.asarray(z, dtype=complex).view(np.int64)


@pytest.mark.parametrize("case", ["lossless", "on_axis"])
def test_hopping_zero_signs_and_lambda_bits(case):
    """hoppings negates after dividing, v = -(C1/eta1): wherever eta is real
    (R = 0, or omega on the imaginary axis) that moves the sign of a zero
    imaginary part against (-C1)/eta1, e.g. v.imag and w.imag read -0.0 at
    R = 0 where (-C)/eta gives +0.0.  lambda_diag = 1/(omega^2 L) + v + w is
    then bitwise the three-term 1/(omega^2 L) - C1/eta1 - C2/eta2, signed
    zeros included."""
    if case == "lossless":
        p, omega = tc.CircuitParams(0.0, 0.0, *ROWS[1][2:]), np.array([0.5, 1.0, 2.0])
    else:
        p, omega = row_params(1), np.array([0.3j, 0.7j, 3.0j, -0.3j])
    eta1 = 1.0 + 1j * omega * p.r1 * p.c1
    eta2 = 1.0 + 1j * omega * p.r2 * p.c2
    hp = tc.hoppings(p, omega)
    assert np.array_equal(_bits(hp.v), _bits(-(p.c1 / eta1)))
    assert np.array_equal(_bits(hp.w), _bits(-(p.c2 / eta2)))
    if case == "lossless":
        assert np.all(np.signbit(hp.v.imag)) and np.all(np.signbit(hp.w.imag))
        assert not np.any(np.signbit((-p.c1 / eta1).imag))
    three_term = 1.0 / (omega * omega * p.l) - p.c1 / eta1 - p.c2 / eta2
    assert np.array_equal(_bits(tc.lambda_diag(p, omega)), _bits(three_term))
