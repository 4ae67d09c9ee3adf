import numpy as np
import pytest

import topochain as tc

# the four bundled parameter rows (r1, r2, c1, c2, l)
ROWS = {
    1: (1.34, 0.17, 0.95, 0.45, 0.81),
    2: (0.03, 0.14, 1.50, 0.26, 0.57),
    3: (1.45, 0.14, 0.22, 0.54, 1.11),
    4: (0.05, 1.41, 0.03, 1.34, 1.17),
}


def row_params(row: int, **kw) -> tc.CircuitParams:
    return tc.CircuitParams(*ROWS[row], **kw)


@pytest.fixture(scope="session")
def band_row4():
    return tc.band_trace(row_params(4), 1024)


@pytest.fixture(scope="session")
def bands_all_rows():
    return {row: tc.band_trace(row_params(row), 1024) for row in ROWS}


@pytest.fixture(scope="session")
def random_draw_bands():
    """100 seeded 2-cell element sets, each uniform in [0.05, 2.0], traced at
    n_k = 512; shared by the two tests that compare the winding routes."""
    rng = np.random.default_rng(5)
    out = []
    for _ in range(100):
        r1, r2, c1, c2, l = rng.uniform(0.05, 2.0, size=5)
        p = tc.CircuitParams(r1, r2, c1, c2, l, n_cells=2)
        out.append((p, tc.band_trace(p, 512)))
    return out


@pytest.fixture(scope="session")
def chain300(band_row4):
    """Branch-resolved open-chain spectra at N=300 for the pinned row 4."""
    p = row_params(4, n_cells=300)
    out = {}
    for lab in ("omega3", "omega4", "omega5", "omega6"):
        m = tc.branch_effective_matrix(p, band_row4, lab)
        spec = tc.eigendecompose(m)
        gap = tc.bulk_gap(p, band_row4.branches[lab])
        out[lab] = (tc.classify_states(spec, gap), gap, m)
    return out


def assert_close(a, b, tol, what=""):
    a = np.asarray(a)
    b = np.asarray(b)
    dev = np.abs(a - b).max()
    assert dev <= tol, f"{what}: |{a} - {b}| = {dev:.3e} > {tol:.1e}"
