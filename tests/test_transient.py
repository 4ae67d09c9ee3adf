import dataclasses
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import topochain as tc
from topochain.errors import (
    FitDiverged,
    InsufficientSignal,
    InvalidParams,
    LosslessUnsupported,
    StepRejected,
    WindowOutOfRange,
)
from topochain import transient
from topochain.cli import _section, _setup_from_section, load_preset
from topochain.transient import default_source_nodes, fastest_time_constant

from conftest import assert_close, row_params
from reference import (chain_matrix_from_hoppings, dense_state_space, full_width_columns,
                       incidence)


def test_setup_defaults_frozen():
    s = tc.TransientSetup(row_params(1, n_cells=2), drive_frequency=3.0)
    assert s.source_nodes == (1, 2)
    # fastest time constant is R2*C2 = 0.0765, over the safety factor 20
    assert s.dt == pytest.approx(0.003825, rel=1e-12)
    assert s.switch_open_time == pytest.approx(20.943951023931955, rel=1e-12)
    assert s.t_end == pytest.approx(73.30382858376183, rel=1e-12)


def test_default_source_nodes_thirds():
    assert default_source_nodes(row_params(1, n_cells=2)) == (1, 2)
    assert default_source_nodes(row_params(1, n_cells=30)) == (20, 39)


def test_fastest_time_constant_picks_minimum():
    p = row_params(1)
    tau = fastest_time_constant(p, 3.0)
    assert tau == pytest.approx(p.r2 * p.c2)
    assert fastest_time_constant(p, 1e4) == pytest.approx(2.0 * np.pi / 1e4)


@pytest.mark.parametrize("kw", [
    {"drive_frequency": 0.0},
    {"drive_frequency": 3.0, "dt": 0.01},
    {"drive_frequency": 3.0, "switch_open_time": 3.0},
    {"drive_frequency": 3.0, "switch_open_time": 21.0, "t_end": 21.0},
    {"drive_frequency": 3.0, "source_nodes": (0, 4)},
    {"drive_frequency": 3.0, "source_nodes": (1, 1)},
    {"drive_frequency": 3.0, "source_nodes": ()},
    {"drive_frequency": 3.0, "source_nodes": (1.0, 2.0)},
    {"drive_frequency": 3.0, "source_nodes": (True, 2)},
    {"drive_frequency": 3.0, "source_nodes": (1, np.float64(2.0))},
    {"drive_frequency": 3.0, "dt": 0.0},
    {"drive_frequency": 3.0, "dt": -0.01},
    {"drive_frequency": 3.0, "dt": float("nan")},
    {"drive_frequency": 3.0, "dt": float("inf")},
    {"drive_frequency": float("nan")},
    {"drive_frequency": float("inf")},
    {"drive_frequency": 3.0, "source_amplitude": float("nan")},
    {"drive_frequency": 3.0, "source_amplitude": float("-inf")},
    {"drive_frequency": 3.0, "switch_open_time": float("nan")},
    {"drive_frequency": 3.0, "switch_open_time": float("inf")},
    {"drive_frequency": 3.0, "t_end": float("nan")},
    {"drive_frequency": 3.0, "t_end": float("inf")},
])
def test_setup_rejects_bad_values(kw):
    with pytest.raises(InvalidParams):
        tc.TransientSetup(row_params(1, n_cells=2), **kw)


def test_lossless_chain_unsupported():
    p = tc.CircuitParams(0.0, 0.0, 1.0, 0.5, 1.0, n_cells=2)
    s = tc.TransientSetup(p, drive_frequency=1.0)
    with pytest.raises(LosslessUnsupported):
        tc.assemble_state_space(s)


@pytest.mark.parametrize("boundary", [tc.Boundary.OPEN, tc.Boundary.PERIODIC])
def test_incidence_bond_order(boundary):
    """Intra-cell bonds first, then inter-cell ones, the ring bond last; the
    chain matrix and the branch incidence both follow that one bond list."""
    p = row_params(4, n_cells=3, boundary=boundary)
    bonds = [(0, 1), (2, 3), (4, 5), (1, 2), (3, 4)]
    if boundary is tc.Boundary.PERIODIC:
        bonds.append((5, 0))
    tail, head = tc.chain_bonds(3, boundary)
    assert list(zip(tail.tolist(), head.tolist())) == bonds
    m = chain_matrix_from_hoppings(1.0, 2.0, 3, boundary)
    assert set(zip(*np.nonzero(m))) == set(bonds) | {(h, t) for t, h in bonds}
    assert m[tail, head].tolist() == [1.0] * 3 + [2.0] * (len(bonds) - 3)
    expected = np.zeros((6, len(bonds)))
    for b, (tail, head) in enumerate(bonds):
        expected[tail, b], expected[head, b] = 1.0, -1.0
    s, rs, cs = incidence(p)
    assert np.array_equal(s, expected)
    assert rs.tolist() == [p.r1] * 3 + [p.r2] * (len(bonds) - 3)
    assert cs.tolist() == [p.c1] * 3 + [p.c2] * (len(bonds) - 3)


STATE_SPACE_ARRAYS = ("a_driven", "b_driven", "a_free", "v_map_driven", "v_src_driven",
                      "v_map_free")


@pytest.mark.parametrize("boundary", [tc.Boundary.OPEN, tc.Boundary.PERIODIC])
@pytest.mark.parametrize("sources", [(1, 6), (0, 4)], ids=["mirror", "asymmetric"])
def test_bond_list_assembly_equals_dense_incidence(boundary, sources):
    """The operators read from the bond list equal the dense incidence
    products; only exact zeros may differ in sign (np.array_equal takes
    -0.0 == 0.0), and _identity_plus makes those positive before any solve."""
    setup = tc.TransientSetup(row_params(4, n_cells=4, boundary=boundary),
                              drive_frequency=3.77, source_nodes=sources)
    space = tc.assemble_state_space(setup)
    for name, want in zip(STATE_SPACE_ARRAYS, dense_state_space(setup)):
        assert np.array_equal(getattr(space, name), want), name


def test_bond_list_assembly_is_bytewise_dense_on_fig8_half_chain():
    """On the half-chain that fig8's ringdown steps, every byte agrees."""
    cfg = load_preset("fig8a")
    setup, _ = _setup_from_section(tc.circuit_from_mapping(cfg["circuit"]),
                                   _section(cfg, "transient"))
    half = transient._sector(setup)[0]
    assert half.params.n_cells == 130
    space = tc.assemble_state_space(half)
    for name, want in zip(STATE_SPACE_ARRAYS, dense_state_space(half)):
        assert getattr(space, name).tobytes() == want.tobytes(), name


def test_state_space_shapes():
    s = tc.TransientSetup(row_params(4, n_cells=4), drive_frequency=3.77)
    space = tc.assemble_state_space(s)
    # open chain: 2N-1 RC branches plus 2N grounded inductors
    assert space.n_branches == 7
    assert space.n_nodes == 8
    assert space.a_driven.shape == (15, 15)
    assert space.a_free.shape == (15, 15)
    assert space.v_map_free.shape == (8, 15)


def test_state_matrix_eigenvalues_match_natural_frequencies():
    """Free-phase state matrix of a periodic chain vs the polynomial roots.

    Every eigenvalue sits on i*z for some root z at a quantized wavenumber
    or at the conserved-charge zero; conversely every physical root is an
    eigenvalue.  Oracle run froze 1.3e-14 / 8.3e-15.
    """
    n = 8
    p = row_params(4, n_cells=n, boundary=tc.Boundary.PERIODIC)
    space = tc.assemble_state_space(tc.TransientSetup(p, drive_frequency=1.0))
    evals = np.linalg.eigvals(space.a_free)

    candidates = [0.0]
    physical = []
    for m in range(n):
        fr = tc.natural_frequencies(p, 2.0 * np.pi * m / n)
        candidates.extend(1j * z for z in fr.roots)
        physical.extend(1j * z for z in fr.physical_roots)
    candidates = np.array(candidates)
    physical = np.array(physical)

    fwd = max(np.abs(candidates - z).min() / max(1.0, abs(z)) for z in evals)
    bwd = max(np.abs(evals - z).min() / max(1.0, abs(z)) for z in physical)
    assert fwd < 1e-12
    assert bwd < 1e-12


def test_trapezoid_against_adaptive_rk45():
    """Node voltages from the cached-propagator trapezoid stepper agree with
    scipy RK45 at tight tolerance near the end of the driven phase; the
    frozen deviation is 1.07e-6."""
    s = tc.TransientSetup(row_params(4, n_cells=6), drive_frequency=3.77,
                          switch_open_time=17.0, t_end=19.0)
    trace = tc.simulate(s, max_samples=4000)
    space = tc.assemble_state_space(s)

    mid = np.searchsorted(trace.times, s.switch_open_time) - 2
    t_mid = trace.times[mid]
    sol = solve_ivp(
        lambda t, x: space.a_driven @ x
        + space.b_driven * np.sin(s.drive_frequency * t),
        (0.0, t_mid), np.zeros(space.a_driven.shape[0]),
        rtol=1e-11, atol=1e-13)
    v_ref = space.v_map_driven @ sol.y[:, -1] \
        + space.v_src_driven * np.sin(s.drive_frequency * t_mid)
    got = trace.node_voltages(range(space.n_nodes))[mid]
    assert np.abs(v_ref - got).max() < 3e-6


def short_setup():
    return tc.TransientSetup(row_params(4, n_cells=4), drive_frequency=3.77,
                             switch_open_time=17.0, t_end=40.0)


@pytest.fixture(scope="module")
def short_trace():
    return tc.simulate(short_setup(), max_samples=6000)


def test_trace_layout(short_trace):
    tr = short_trace
    nodes = [7, 0, 3, 3]
    assert tr.node_voltages(nodes).shape == (len(tr.times), len(nodes))
    assert tr.ground_currents(nodes).shape == (len(tr.times), len(nodes))
    # the switch instant is recorded twice, before and after the release
    # projection; otherwise times strictly increase
    gaps = np.diff(tr.times)
    assert np.all(gaps >= 0)
    assert np.count_nonzero(gaps == 0) == 1
    assert tr.times[np.argmin(gaps)] == tr.switch_time
    assert tr.times[0] == 0.0
    assert tr.switch_time >= tr.metadata.switch_open_time
    assert tr.energy.shape == (len(tr.times),)
    assert [f.name for f in dataclasses.fields(tr)] == [
        "times", "energy", "switch_time", "metadata", "_states", "_n_branches",
        "_v_map_driven", "_v_src_driven", "_v_map_free", "_node_src",
        "_rows_driven"]


@pytest.mark.parametrize("nodes", [[8], [-1], [[0, 1]], [0.0]])
def test_trace_columns_reject_bad_nodes(short_trace, nodes):
    for columns in (short_trace.node_voltages, short_trace.ground_currents):
        with pytest.raises(InvalidParams, match=r"node indices in \[0, 8\)"):
            columns(nodes)


def test_clamped_nodes_follow_drive(short_trace):
    tr = short_trace
    s = tr.metadata
    driven = tr.times < tr.switch_time
    u = s.source_amplitude * np.sin(s.drive_frequency * tr.times[driven])
    volts = tr.node_voltages(s.source_nodes)
    for node, column in zip(s.source_nodes, volts.T):
        assert_close(column[driven], u, 1e-12, f"clamped node {node}")


def test_energy_monotone_after_release(short_trace):
    tr = short_trace
    post = tr.energy[tr.times >= tr.switch_time]
    assert post[0] > 0.0
    assert np.all(np.diff(post) <= 1e-9 * post[0])
    assert post[-1] < post[0]


def test_free_phase_conserves_total_charge(short_trace):
    tr = short_trace
    free = tr.times > tr.switch_time
    currents = tr.ground_currents(range(8))
    sums = currents[free].sum(axis=1)
    # roundoff accumulates over ~3e5 trapezoid steps; the invariant is exact
    # in exact arithmetic
    assert np.abs(sums).max() < 1e-11 * np.abs(currents).max()


def record_probes(monkeypatch) -> list:
    """Run short_setup() with every probe call recorded: one
    (a, b, x, t, dt, errors) tuple per phase."""
    probe = transient._probe_local_error
    calls = []

    def recording(a, b, p, g, u_of_t, x, t, dt, lhs):
        err = probe(a, b, p, g, u_of_t, x, t, dt, lhs)
        calls.append((a, b, x, t, dt, err))
        return err

    monkeypatch.setattr(transient, "_probe_local_error", recording)
    tc.simulate(short_setup(), max_samples=6000)
    return calls


def test_probe_schedule_frozen(monkeypatch):
    """Eight step-doubling probes per phase, each at the first recorded step
    within a stride (89 steps here) of an eighth of the phase; frozen from
    the two-loop stepper this one replaced, largest error 6.6e-12."""
    calls = [("free" if b is None else "driven", round(ti / dt), e)
             for a, b, x, t, dt, err in record_probes(monkeypatch)
             for ti, e in zip(t, err)]
    driven = [28302, 56604, 84995, 113297, 141599, 169990, 198292, 226594]
    free = [264937, 303296, 341655, 379925, 418284, 456643, 494913, 533272]
    assert [c[:2] for c in calls] == \
        [("driven", s) for s in driven] + [("free", s) for s in free]
    assert max(c[2] for c in calls) < 1e-10


def test_probe_errors_match_dense_step_maps(monkeypatch):
    """The batched probes equal one step by the dense one-step map of dt
    against two by that of dt/2, each with its source vector
    solve(I - h/2 a, h/2 b) while driven, probe by probe."""
    s = short_setup()

    def drive(t):
        return s.source_amplitude * np.sin(s.drive_frequency * t)

    def dense_step(a, b, h):
        p, _ = propagate(a, h)
        if b is None:
            return lambda x, t: p @ x
        src = np.linalg.solve(np.eye(len(a)) - 0.5 * h * a, 0.5 * h * b)
        return lambda x, t: p @ x + src * (drive(t) + drive(t + h))

    calls = record_probes(monkeypatch)
    assert [len(c[3]) for c in calls] == [8, 8]
    for a, b, x, t, dt, err in calls:
        full, half = dense_step(a, b, dt), dense_step(a, b, 0.5 * dt)
        for j, tj in enumerate(t):
            coarse = full(x[:, j], tj)
            fine = half(half(x[:, j], tj), tj + 0.5 * dt)
            want = np.linalg.norm(fine - coarse) / np.linalg.norm(fine)
            assert abs(err[j] - want) < 1e-14, (tj, err[j], want)


def test_probe_rejects_step_over_tolerance(monkeypatch):
    monkeypatch.setattr(transient, "LOCAL_ERROR_TOL", 0.0)
    with pytest.raises(StepRejected,
                       match=r"driven-phase local error .* at t=2\.12265; reduce dt"):
        tc.simulate(short_setup(), max_samples=6000)


def propagate(a, dt, b=None):
    """_propagator's one-step map and source column, computed in fresh
    buffers of its own (with b, for a unit drive at angular frequency 1)."""
    n = len(a)
    return transient._propagator(a, dt, b, np.empty((n, n)), np.empty(n * (n + 1)),
                                 1.0, np.exp(1j * dt))[:2]


def short_propagator():
    s = short_setup()
    return propagate(tc.assemble_state_space(s).a_driven, s.dt)[0]


def test_propagator_source_column():
    """The source column rides as one more right-hand side of the one-step
    map's solve: the map is the one solved without it (bitwise with
    OpenBLAS), and the column is solve(I - dt/2 a, dt/2 b)."""
    s = short_setup()
    space = tc.assemble_state_space(s)
    a, b = space.a_driven, space.b_driven
    p, g = propagate(a, s.dt, b)
    alone, none = propagate(a, s.dt)
    assert none is None and p.flags.c_contiguous
    assert np.abs(p - alone).max() <= 1e-15 * np.abs(alone).max()
    want = np.linalg.solve(np.eye(len(a)) - 0.5 * s.dt * a, 0.5 * s.dt * b)
    assert np.abs(g - want).max() < 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("phase", ["a_driven", "a_free"])
def test_identity_plus_is_the_eye_form_bitwise(phase):
    """I + c a built in place has the bits of np.eye(n) + c * a and of
    np.eye(n) - c * a with c negated, the signs of its zeros included (c * a
    holds negative zeros when c < 0)."""
    s = short_setup()
    a = getattr(tc.assemble_state_space(s), phase)
    eye = np.eye(len(a))
    for c in (0.5 * s.dt, 0.25 * s.dt, 0.3):
        for got, want in ((transient._identity_plus(a, c, np.empty_like(a)), eye + c * a),
                          (transient._identity_plus(a, -c, np.empty_like(a)), eye - c * a)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def owner(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory."""
    while a.base is not None:
        a = a.base
    return a


def test_phase_reuses_product_buffers(monkeypatch):
    """_phase writes every product of its power chain into a few reused
    dim x dim buffers: at most four distinct arrays receive the products,
    and the pool ends holding only the two powers the row blocks read.
    Each phase of a simulate run writes every real dim x dim matrix (its
    propagator's left- and right-hand sides, which also give the driven
    phase's particular response, and one-step map, its power chain's
    products, its probe's left-hand side) into at most five arrays, the
    products into at most four of them, and the free phase inherits only
    the one-step map's buffer and the driven probe's left-hand side."""
    products, matrices = [], []
    real_product, real_identity = transient._product, transient._identity_plus

    def product(x, y, pool, live):
        out = real_product(x, y, pool, live)
        products.append(out)
        return out

    def identity_plus(a, c, out):
        out = real_identity(a, c, out)
        matrices.append(out)
        return out

    monkeypatch.setattr(transient, "_product", product)
    p = short_propagator()
    n_steps, stride = 7 * 150 + 3, 7
    out = np.empty((1 + (n_steps + stride - 1) // stride, p.shape[0]))
    out[0] = 1.0
    pool = []
    transient._phase(p, out, n_steps, stride, pool)
    # p^2, p^3 (shared by q = p^7 and last = p^3), p^4, p^7, then q^2 .. q^64
    assert len(products) == 4 + 6
    assert len({id(w) for w in products}) <= 4
    # the row blocks run beside q^64 and p^3 alone, and a pool that holds
    # spare buffers when the phase starts fills the same rows
    assert len(pool) == 2 and {id(w) for w in pool} == {id(products[1]), id(products[-1])}
    pool, rows = [np.empty_like(p) for _ in range(3)], np.empty_like(out)
    rows[0] = 1.0
    transient._phase(p, rows, n_steps, stride, pool)
    assert len(pool) == 2 and np.array_equal(rows, out)

    products.clear()
    propagator, starts = transient._propagator, []

    def recording_propagator(*args):
        starts.append((len(matrices), len(products)))
        p, g, z = propagator(*args)
        matrices.append(p)
        return p, g, z

    monkeypatch.setattr(transient, "_identity_plus", identity_plus)
    monkeypatch.setattr(transient, "_propagator", recording_propagator)
    setup = short_setup()
    tc.simulate(setup, 6000)
    dim = 2 * setup.params.n_cells - 1   # the mirror half-chain's states
    assert all(m.shape[0] == dim for m in matrices + products)
    m1, p1 = starts[1]
    for mats, prods in ((matrices[:m1], products[:p1]), (matrices[m1:], products[p1:])):
        # the lhs, rhs and p of the phase's propagator and its probe's lhs
        assert len(mats) == 4 and len(prods) >= 6
        # held in the lists, no array's memory is handed to a later one
        assert len({id(owner(m)) for m in mats + prods}) <= 5
        assert len({id(owner(m)) for m in prods}) <= 4
    # the driven phase hands on the one-step map's buffer and its probe's
    # left-hand side, and nothing else: three more are new
    assert owner(matrices[m1]) is owner(matrices[m1 - 1])
    assert owner(matrices[m1 + 2]) is owner(matrices[2])
    assert len({id(owner(m)) for m in matrices + products}) <= 8


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (64, 64), (583, 583),
                                  (583, 71), (64, 3)])
def test_mat_powers_match_matrix_power(n, m):
    """One squaring chain gives both powers; 583 and 71 share their low
    bits (one product for both), 64 and 3 share none."""
    p = short_propagator()
    pn, pm = transient._mat_powers(p, n, m, [])
    for got, k in ((pn, n), (pm, m)):
        want = np.linalg.matrix_power(p, k)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n_steps, stride", [(7 * 150 + 3, 7), (5, 7)])
def test_phase_rows_match_serial_loop(n_steps, stride):
    """Row blocks (152 rows, not a multiple of BLOCK, with a shorter last
    advance) reproduce x = q @ x row by row, and a phase shorter than one
    stride is one short advance."""
    p = short_propagator()
    rows = 1 + (n_steps + stride - 1) // stride
    out = np.empty((rows, p.shape[0]))
    out[0] = np.random.default_rng(3).standard_normal(p.shape[0])
    steps = transient._phase(p, out, n_steps, stride, [])
    assert steps.tolist() == [min(i * stride, n_steps) for i in range(rows)]

    x = out[0]
    for i in range(1, rows):
        x = np.linalg.matrix_power(p, steps[i] - steps[i - 1]) @ x
        assert np.linalg.norm(out[i] - x) < 1e-12 * np.linalg.norm(x), i


def test_cond_is_the_svd_condition_number():
    """The conductance gates read cond_2 from eigenvalues: equal to the SVD
    value on the bordered floating system, and past 1e12 on the floating
    Laplacian, whose constant vector is a null vector."""
    s, rs, _ = incidence(row_params(4, n_cells=5))
    g = (s / rs) @ s.T
    n = len(g)
    g_aug = np.block([[g, np.ones((n, 1))], [np.ones((1, n)), np.zeros((1, 1))]])
    assert transient._cond(g_aug) == pytest.approx(np.linalg.cond(g_aug), rel=1e-10)
    assert transient._cond(g) > 1e12


# in a fresh process, so no heap left by earlier tests can serve the array
FREED_ARRAY_SCRIPT = """
import os
import numpy as np
from topochain import transient

def resident():
    pages = int(open("/proc/self/statm").read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE")

np.ones(4 << 17).sum()
transient._pin_mmap_threshold()
before = resident()
a = np.ones(3 << 17)
during = resident()
del a
print(during - before, resident() - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt")
def test_freed_large_array_leaves_no_resident_memory():
    """With the mmap threshold pinned as simulate pins it, a freed 3 MiB
    array gives its pages back, even after a freed 4 MiB one has raised
    glibc's dynamic threshold past 3 MiB (which puts it on the brk heap)."""
    proc = subprocess.run([sys.executable, "-c", FREED_ARRAY_SCRIPT],
                          capture_output=True, text=True, check=True)
    grown, kept = map(int, proc.stdout.split())
    assert grown > 2 << 20
    assert kept < 1 << 20


# in a fresh process, so the heap's state is this script's alone
REALLOC_SCRIPT = """
import resource
import numpy as np
from topochain import transient

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

transient._pin_mmap_threshold()
np.ones(1 << 16).sum()
before = faults()
for _ in range(8):
    np.ones(1 << 16).sum()
print(faults() - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt")
def test_reallocated_heap_block_faults_no_pages():
    """With the trim threshold fixed as simulate fixes it, a freed 512 KiB
    block (below the mmap threshold, so on the heap) stays with the
    process: allocating and filling it again eight times takes almost no
    minor faults.  At glibc's 128 KiB default each round hands all but
    128 KiB of the block back and faults it in again (96 pages a round)."""
    proc = subprocess.run([sys.executable, "-c", REALLOC_SCRIPT],
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 32


def twenty_cell_setup():
    return tc.TransientSetup(row_params(4, n_cells=20), drive_frequency=3.77,
                             switch_open_time=17.0, t_end=30.0)


def simulated_dims(monkeypatch, setup, max_samples):
    """simulate(setup) and the state dimension of every operator it built."""
    assemble = transient.assemble_state_space
    dims = []

    def recording(s):
        space = assemble(s)
        dims.append(space.dimension)
        return space

    monkeypatch.setattr(transient, "assemble_state_space", recording)
    trace = tc.simulate(setup, max_samples)
    monkeypatch.setattr(transient, "assemble_state_space", assemble)
    return trace, dims


@pytest.mark.parametrize("make, max_samples", [(short_setup, 6000),
                                               (twenty_cell_setup, 3000)])
def test_mirror_sector_matches_full_chain(monkeypatch, make, max_samples):
    """A mirror-symmetric run steps the N/2-cell half-chain (2N-1 states,
    not 4N-1) and reads the full chain's nodes off it; the full chain
    stepped as it is stays the oracle.  Every trace array agrees to 1e-9 of
    its largest entry (measured about 1e-11), and mirror nodes' voltages and
    ground currents are bitwise equal."""
    setup = make()
    n = setup.params.n_cells
    nodes = np.arange(2 * n)
    sector, dims = simulated_dims(monkeypatch, setup, max_samples)
    assert dims == [2 * n - 1]
    monkeypatch.setattr(transient, "_sector", lambda s: (s, nodes, 1.0))
    full, dims = simulated_dims(monkeypatch, setup, max_samples)
    assert dims == [4 * n - 1]
    assert np.array_equal(sector.times, full.times)
    arrays = {name: (getattr(sector, name)(nodes), getattr(full, name)(nodes))
              for name in ("node_voltages", "ground_currents")}
    arrays["energy"] = (sector.energy, full.energy)
    for name, (got, want) in arrays.items():
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-9 * np.abs(want).max(), name
    for name in ("node_voltages", "ground_currents"):
        got = arrays[name][0]
        assert np.array_equal(got, got[:, ::-1]), name


@pytest.mark.parametrize("n_cells, boundary, sources", [
    (4, tc.Boundary.OPEN, (1, 5)),        # not a mirror pair
    (5, tc.Boundary.OPEN, None),          # no half-chain of whole cells
    (4, tc.Boundary.PERIODIC, None),      # no mirror
    (2, tc.Boundary.OPEN, None),          # a 1-cell half is no chain
])
def test_asymmetric_runs_step_the_full_chain(monkeypatch, n_cells, boundary, sources):
    """Every other setup steps its own full chain through the identity map:
    its operators are full size and its trace is its own run, unchanged."""
    setup = tc.TransientSetup(row_params(4, n_cells=n_cells, boundary=boundary),
                              drive_frequency=3.77, source_nodes=sources,
                              switch_open_time=17.0, t_end=25.0)
    stepped, node_src, weight = transient._sector(setup)
    assert stepped is setup and weight == 1.0
    assert node_src.tolist() == list(range(2 * n_cells))
    trace, dims = simulated_dims(monkeypatch, setup, 2000)
    space = tc.assemble_state_space(setup)
    assert dims == [space.dimension]
    assert trace.ground_currents(range(space.n_nodes)).shape == (
        len(trace.times), space.n_nodes)
    driven = trace.times < trace.switch_time
    volts = trace.node_voltages(setup.source_nodes)
    for column in volts.T:
        assert_close(column[driven],
                     np.sin(setup.drive_frequency * trace.times[driven]), 1e-12)


def asymmetric_setup():
    return tc.TransientSetup(row_params(4, n_cells=4), drive_frequency=3.77,
                             source_nodes=(1, 5), switch_open_time=17.0,
                             t_end=25.0)


@pytest.mark.parametrize("make, max_samples", [(short_setup, 6000),
                                               (asymmetric_setup, 2000)])
def test_trace_columns_match_full_width_oracle(make, max_samples):
    """The on-demand columns, asked for in any order and with repeats,
    equal the full-width arrays simulate once stored: the voltages to 1e-13
    of their largest entry (a narrow product does not round as the wide one
    did), the ground currents bitwise."""
    trace = tc.simulate(make(), max_samples)
    volts, currents = full_width_columns(trace)
    for nodes in (np.arange(8), [6, 1, 1, 0, 7]):
        got = trace.node_voltages(nodes)
        want = volts[:, nodes]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(trace.ground_currents(nodes), currents[:, nodes])


def test_trace_holds_the_stepped_state_only(short_trace):
    """A mirror run's trace keeps the half-chain's state (2N-1 columns) and
    no node-by-sample array: no array it holds has 2N columns, and the
    arrays on it add up to the state plus O(rows)."""
    tr = short_trace
    rows, n_nodes = len(tr.times), 8
    held = [getattr(tr, f.name) for f in dataclasses.fields(tr)]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert not [a.shape for a in arrays if a.ndim == 2 and a.shape[1] == n_nodes]
    assert tr._states.shape == (rows, n_nodes - 1)
    total = sum(getattr(tr, f.name).nbytes for f in dataclasses.fields(tr)
                if isinstance(getattr(tr, f.name), np.ndarray))
    assert total <= rows * (n_nodes - 1) * 8 + 3 * rows * 8


def test_simulate_allocates_no_full_width_array():
    """simulate's traced numpy peak stays below its state array plus one
    (rows x 2N) array; a node-by-sample array, or a complex rows-by-state
    temporary for the driven particular response, would exceed it."""
    setup = twenty_cell_setup()
    tracemalloc.start()
    try:
        trace = tc.simulate(setup, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(trace.times)
    assert peak < trace._states.nbytes + rows * 2 * setup.params.n_cells * 8


def test_free_phase_holds_four_dim_squared_arrays(monkeypatch):
    """While the free phase's row blocks take the states to full size
    (simulate's resident peak), simulate holds four dim x dim arrays beside
    the states and the voltage maps: the free operator, its one-step map,
    q**64 and the last advance's power; at the free probe three, the left-
    hand side in place of the powers.  The driven operator is let go of once
    its phase is probed and q**stride before the row blocks (six, then five,
    were live before).  At 100 cells (199 states) a dim x dim array is 13
    times a rows-long one; numpy's traced memory is read at each row-block
    product and at the probe of the free phase."""
    tc.simulate(short_setup(), 100)   # a first run's imports would count
    setup = tc.TransientSetup(row_params(4, n_cells=100), drive_frequency=3.77,
                              switch_open_time=17.0, t_end=30.0)
    blocks, probes = [], []
    matmul, probe, phase = np.matmul, transient._probe_local_error, transient._phase

    def recording_matmul(x, y, *args, out=None, **kwargs):
        if out is not None and out.ndim == 2 and out.base is not None:
            blocks.append(tracemalloc.get_traced_memory()[0])   # a row block
        return matmul(x, y, *args, out=out, **kwargs)

    def recording_probe(*args):
        probes.append(tracemalloc.get_traced_memory()[0])
        return probe(*args)

    def recording_phase(*args, **kwargs):
        blocks.clear()   # only the last phase's blocks count
        return phase(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    monkeypatch.setattr(transient, "_probe_local_error", recording_probe)
    monkeypatch.setattr(transient, "_phase", recording_phase)
    tracemalloc.start()
    try:
        trace = tc.simulate(setup, 3000)
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    kept = sum(a.nbytes for a in (trace._states, trace._v_map_driven,
                                  trace._v_src_driven, trace._v_map_free))
    dim = trace._states.shape[1]
    assert dim == 199 and len(blocks) > 1
    assert (max(blocks) - kept) / (8 * dim * dim) < 4.5
    assert (probes[-1] - kept) / (8 * dim * dim) < 3.5


def test_voltage_products_take_bounded_rows(monkeypatch, short_trace):
    """node_voltages applies each phase's voltage map in equal row parts of
    at most VOLTAGE_ROWS rows, which together cover every row once: here
    both phases exceed the cap.  The columns still equal the full-width
    oracle's to 1e-13 of their largest entry, and mirror nodes' bitwise."""
    tr = short_trace
    rows_d, rows = tr._rows_driven, len(tr.times)
    assert min(rows_d, rows - rows_d) > transient.VOLTAGE_ROWS
    parts, matmul = [], np.matmul

    def recording_matmul(x, *args, **kwargs):
        parts.append(len(x))
        return matmul(x, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    got = tr.node_voltages(np.arange(8))
    monkeypatch.undo()
    assert sum(parts) == rows and max(parts) <= transient.VOLTAGE_ROWS
    want = full_width_columns(tr)[0]
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(got, got[:, ::-1])


def test_mirror_state_map():
    """At N = 4 the half-chain has 2 cells, clamped at the left source
    only; node i of the full chain reads half-chain node min(i, 7 - i), and
    the full energy is twice the half-chain's."""
    half, node_src, weight = transient._sector(short_setup())
    assert half.params.n_cells == 2 and half.source_nodes == (2,)
    assert (half.dt, half.switch_open_time, half.t_end) == (
        short_setup().dt, 17.0, 40.0)
    assert node_src.tolist() == [0, 1, 2, 3, 3, 2, 1, 0]
    assert weight == 2.0


def test_simulate_rejects_bad_max_samples():
    """A count outside [1, MAX_OUTPUT_SAMPLES] is refused, and so is a bool
    or a float (True once ran as one sample and 2.5 as 2.5) or a string (once
    a TypeError); a numpy integer is a count."""
    s = tc.TransientSetup(row_params(4, n_cells=2), drive_frequency=3.77)
    with pytest.raises(InvalidParams):
        tc.simulate(s, max_samples=0)
    s = tc.TransientSetup(tc.CircuitParams(0.5, 1, 1, 1, 1, n_cells=4), 1.0)
    for bad in (True, 2.5, "8000", np.float64(8000.0)):
        with pytest.raises(InvalidParams, match="max_samples"):
            tc.simulate(s, bad)
    assert np.array_equal(tc.simulate(s, np.int64(8000)).times, tc.simulate(s, 8000).times)


def test_ground_current_profile(short_trace):
    tr = short_trace
    t0 = tr.switch_time + 3.5 * tr.metadata.drive_period
    prof = tc.ground_current_profile(tr, (t0, tr.times[-1]))
    assert prof.shape == (8,)
    assert prof.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(prof >= 0.0)
    # bitwise the RMS over every node's full-width column, as once taken
    mask = (tr.times >= t0) & (tr.times <= tr.times[-1])
    rms = np.sqrt(np.mean(full_width_columns(tr)[1][mask] ** 2, axis=0))
    assert np.array_equal(prof, rms / rms.sum())


def test_ground_current_profile_window_checks(short_trace):
    tr = short_trace
    t_ok = tr.switch_time + 3.5 * tr.metadata.drive_period
    with pytest.raises(WindowOutOfRange):
        tc.ground_current_profile(tr, (tr.switch_time, tr.times[-1]))
    with pytest.raises(WindowOutOfRange):
        tc.ground_current_profile(tr, (t_ok, tr.times[-1] + 50.0))
    with pytest.raises(WindowOutOfRange):
        tc.ground_current_profile(tr, (t_ok, t_ok + 1e-6))


def test_ground_current_profile_zero_signal(short_trace):
    tr = short_trace
    dead = dataclasses.replace(tr, _states=np.zeros_like(tr._states))
    t0 = tr.switch_time + 3.5 * tr.metadata.drive_period
    with pytest.raises(InsufficientSignal):
        tc.ground_current_profile(dead, (t0, tr.times[-1]))


def synthetic_signal():
    t = np.linspace(0.0, 40.0, 4000)
    truth = dict(amplitude=0.73, omega_r=3.78, omega_i=0.011, phase=0.4)
    s = truth["amplitude"] * np.exp(-truth["omega_i"] * (t - 5.0)) \
        * np.cos(truth["omega_r"] * (t - 5.0) + truth["phase"])
    return t, s, 5.0, truth


def noisy_signal():
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 60.0, 6000)
    s = 1.0 * np.exp(-0.02 * t) * np.cos(2.5 * t - 1.0) \
        + 1e-3 * rng.standard_normal(len(t))
    return t, s, 0.0


def beating_signal():
    t = np.linspace(0.0, 200.0, 8000)
    s = np.exp(-0.0107 * t) * np.cos(3.774 * t) \
        + 0.7 * np.exp(-0.005 * t) * np.cos(3.83 * t)
    return t, s, 0.0


def test_fit_recovers_synthetic_mode():
    t, s, t0, truth = synthetic_signal()
    fit = tc.fit_damped_oscillation(t, s, t0)
    assert fit.omega_r == pytest.approx(truth["omega_r"], rel=1e-9)
    assert fit.omega_i == pytest.approx(truth["omega_i"], rel=1e-9)
    assert fit.amplitude == pytest.approx(truth["amplitude"], rel=1e-9)
    assert fit.phase == pytest.approx(truth["phase"], rel=1e-9)
    assert fit.rms_residual < 1e-9


def test_fit_recovers_under_noise():
    fit = tc.fit_damped_oscillation(*noisy_signal())
    assert fit.omega_r == pytest.approx(2.5, rel=1e-4)
    assert fit.omega_i == pytest.approx(0.02, rel=2e-2)


def test_fit_converges_on_beating_signal():
    """Two beating modes leave one damped cosine a flat least-squares cost.
    The fit must still stop at a stationary point: a tight restart from the
    returned parameters, with the exact Jacobian, must not move it."""
    from scipy.optimize import least_squares

    t, s, _ = beating_signal()
    fit = tc.fit_damped_oscillation(t, s, 0.0)

    def residual(p):
        a, wr, wi, ph = p
        return a * np.exp(-wi * t) * np.cos(wr * t + ph) - s

    def jacobian(p):
        a, wr, wi, ph = p
        env = np.exp(-wi * t)
        c, sn = np.cos(wr * t + ph), np.sin(wr * t + ph)
        return np.column_stack(
            [env * c, -a * t * env * sn, -a * t * env * c, -a * env * sn])

    x = [fit.amplitude, fit.omega_r, fit.omega_i, fit.phase]
    again = least_squares(residual, x, jac=jacobian, method="lm",
                          ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=10_000)
    assert again.success
    assert abs(again.x[1] - fit.omega_r) < 1e-9 * fit.omega_r
    assert fit.rms_residual > 0.5   # a summary of the beat, not a mode


def scipy_lmder(evaluate, x):
    """_lmder's contract served by scipy.optimize.least_squares(method="lm"),
    the MINPACK lmder it ports, at the same tolerances and cap."""
    from scipy.optimize import least_squares

    def jacobian(p):
        res, fill = evaluate(p)
        out = np.empty((len(res), len(p)), order="F")
        fill(out)
        return out
    try:
        done = least_squares(lambda p: evaluate(p)[0], x, jac=jacobian, method="lm",
                             ftol=transient.FIT_TOL, xtol=transient.FIT_TOL,
                             gtol=transient.FIT_TOL, max_nfev=transient.FIT_MAX_NFEV)
    except ValueError:
        return None   # least_squares refuses a start whose residuals are not finite
    return done.x, float(np.linalg.norm(done.fun)), bool(done.success)


def watched_columns(preset):
    """(times, column, t0) of every node cli's transient command fits."""
    config = load_preset(preset)
    params = tc.circuit_from_mapping(config["circuit"])
    section = _section(config, "transient")
    setup, _ = _setup_from_section(params, section)
    trace = tc.simulate(setup, max_samples=section["max_samples"])
    t0 = trace.switch_time + section["fit_t0_periods"] * setup.drive_period
    n_nodes = 2 * params.n_cells
    watch = sorted({0, n_nodes - 1, n_nodes // 2, *setup.source_nodes})
    return [(trace.times, column, t0) for column in trace.ground_currents(watch).T]


@pytest.fixture(scope="module")
def oracle_signals():
    t, s, t0, _ = synthetic_signal()
    signals = {"synthetic": (t, s, t0), "noisy": noisy_signal(),
               "beating": beating_signal()}
    for preset in ("fig8a", "fig8b"):
        for i, column in enumerate(watched_columns(preset)):
            signals[f"{preset}-{i}"] = column
    return signals


@pytest.mark.parametrize("name", ["synthetic", "noisy", "beating",
                                  *(f"fig8{p}-{i}" for p in "ab" for i in range(5))])
def test_fit_matches_scipy_lmder(monkeypatch, oracle_signals, name):
    """The numpy lmder reaches scipy's minimum from the same starts:
    relative 1e-8 in omega_r, omega_i and amplitude where one mode describes
    the signal (rms_residual < 0.5), 1e-6 at a beating node, whose flat cost
    moves the minimum by ~1e-6 under a 1-ulp change of the data, and
    relative 1e-12 in rms_residual everywhere."""
    signal = oracle_signals[name]
    fit = tc.fit_damped_oscillation(*signal)
    monkeypatch.setattr(transient, "_lmder", scipy_lmder)
    ref = tc.fit_damped_oscillation(*signal)
    rel = 1e-8 if ref.rms_residual < transient.FIT_RMS_BOUND else 1e-6
    for key in ("omega_r", "omega_i", "amplitude"):
        assert getattr(fit, key) == pytest.approx(getattr(ref, key), rel=rel), key
    assert fit.rms_residual == pytest.approx(ref.rms_residual, rel=1e-12)


def test_fit_error_paths():
    t = np.linspace(0.0, 10.0, 1000)
    with pytest.raises(InsufficientSignal):
        tc.fit_damped_oscillation(t, np.cos(3.0 * t), 9.99)
    with pytest.raises(InsufficientSignal):
        tc.fit_damped_oscillation(t, np.zeros_like(t), 0.0)
    with pytest.raises(FitDiverged):
        tc.fit_damped_oscillation(t, np.exp(-0.3 * t), 0.0)


@pytest.mark.parametrize("refused, expected", [
    pytest.param((0,), None, id="first-refused"),
    pytest.param((1,), None, id="second-refused"),
    pytest.param((0, 1), FitDiverged, id="both-refused-FitDiverged"),
    (RuntimeError, RuntimeError),
])
def test_fit_passes_over_refused_starts_only(monkeypatch, refused, expected):
    """_lmder refuses a start whose residuals are not finite by returning
    None: the fit keeps the other start's result, and with both starts
    refused it diverged.  Any other exception out of the solver is a bug and
    surfaces as itself."""
    lmder, starts = transient._lmder, []

    def solver(evaluate, x):
        starts.append(x)
        if refused is RuntimeError:
            raise RuntimeError("solver bug")
        if len(starts) - 1 in refused:
            return lmder(lambda p: (np.full(len(t), np.nan), None), x)
        return lmder(evaluate, x)
    monkeypatch.setattr(transient, "_lmder", solver)
    t, s, t0, truth = synthetic_signal()
    if expected is None:
        fit = tc.fit_damped_oscillation(t, s, t0)
        assert fit.omega_r == pytest.approx(truth["omega_r"], rel=1e-9)
        assert len(starts) == 2
    else:
        with pytest.raises(expected):
            tc.fit_damped_oscillation(t, s, t0)


def test_lmder_rejects_non_finite_trial_and_shrinks_radius():
    """r(x) = e^x - 2, undefined (nan) beyond x = 1.  From x = -3 the
    Gauss-Newton step lands near x = 36: that trial is rejected, and the
    trust radius drops to a tenth of the rejected step, so the next trial
    moves at most 1.1/10 as far.  The iteration still converges to ln 2."""
    trials = []

    def evaluate(x):
        trials.append(float(x[0]))
        res = np.array([np.exp(x[0]) - 2.0 if x[0] <= 1.0 else np.nan])

        def jacobian(out):
            out[:, 0] = np.exp(x[0])
        return res, jacobian
    x, norm, converged = transient._lmder(evaluate, np.array([-3.0]))
    assert converged
    assert x[0] == pytest.approx(np.log(2.0), rel=1e-12) and norm < 1e-12
    start, rejected, retry = trials[:3]
    assert rejected > 1.0 and retry <= 1.0
    assert abs(retry - start) <= 0.11 * abs(rejected - start)

