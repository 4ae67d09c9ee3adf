import platform
import subprocess
import sys

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
from topochain.transient import (
    TransientTrace,
    default_source_nodes,
    fastest_time_constant,
)

from conftest import assert_close, row_params
from reference import chain_matrix_from_hoppings


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
    s, rs, cs = transient._incidence(p)
    assert np.array_equal(s, expected)
    assert rs.tolist() == [p.r1] * 3 + [p.r2] * (len(bonds) - 3)
    assert cs.tolist() == [p.c1] * 3 + [p.c2] * (len(bonds) - 3)


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
    assert np.abs(v_ref - trace.node_voltages[mid]).max() < 3e-6


def short_setup():
    return tc.TransientSetup(row_params(4, n_cells=4), drive_frequency=3.77,
                             switch_open_time=17.0, t_end=40.0)


@pytest.fixture(scope="module")
def short_trace():
    return tc.simulate(short_setup(), max_samples=6000)


def test_trace_layout(short_trace):
    tr = short_trace
    n_nodes = 8
    assert tr.node_voltages.shape == (len(tr.times), n_nodes)
    assert tr.ground_currents.shape == (len(tr.times), n_nodes)
    # the switch instant is recorded twice, before and after the release
    # projection; otherwise times strictly increase
    gaps = np.diff(tr.times)
    assert np.all(gaps >= 0)
    assert np.count_nonzero(gaps == 0) == 1
    assert tr.times[np.argmin(gaps)] == tr.switch_time
    assert tr.times[0] == 0.0
    assert tr.switch_time >= tr.metadata.switch_open_time
    assert tr.cap_voltages.shape == (len(tr.times), 7)
    assert tr.cap_voltages[-1].size + tr.ground_currents[-1].size == 7 + 8


def test_clamped_nodes_follow_drive(short_trace):
    tr = short_trace
    s = tr.metadata
    driven = tr.times < tr.switch_time
    u = s.source_amplitude * np.sin(s.drive_frequency * tr.times[driven])
    for node in s.source_nodes:
        assert_close(tr.node_voltages[driven, node], u, 1e-12,
                     f"clamped node {node}")


def test_energy_monotone_after_release(short_trace):
    tr = short_trace
    post = tr.energy[tr.times >= tr.switch_time]
    assert post[0] > 0.0
    assert np.all(np.diff(post) <= 1e-9 * post[0])
    assert post[-1] < post[0]


def test_free_phase_conserves_total_charge(short_trace):
    tr = short_trace
    free = tr.times > tr.switch_time
    sums = tr.ground_currents[free].sum(axis=1)
    # roundoff accumulates over ~3e5 trapezoid steps; the invariant is exact
    # in exact arithmetic
    assert np.abs(sums).max() < 1e-11 * np.abs(tr.ground_currents).max()


def record_probes(monkeypatch) -> list:
    """Run short_setup() with every probe call recorded: one
    (a, b, x, t, dt, errors) tuple per phase."""
    probe = transient._probe_local_error
    calls = []

    def recording(a, b, u_of_t, x, t, dt):
        err = probe(a, b, u_of_t, x, t, dt)
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
        p = transient._propagator(a, h)
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


def short_propagator():
    s = short_setup()
    return transient._propagator(tc.assemble_state_space(s).a_driven, s.dt)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (64, 64), (583, 583),
                                  (583, 71), (64, 3)])
def test_mat_powers_match_matrix_power(n, m):
    """One squaring chain gives both powers; 583 and 71 share their low
    bits (one product for both), 64 and 3 share none."""
    p = short_propagator()
    pn, pm = transient._mat_powers(p, n, m)
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
    steps = transient._phase(p, out, n_steps, stride)
    assert steps.tolist() == [min(i * stride, n_steps) for i in range(rows)]

    x = out[0]
    for i in range(1, rows):
        x = np.linalg.matrix_power(p, steps[i] - steps[i - 1]) @ x
        assert np.linalg.norm(out[i] - x) < 1e-12 * np.linalg.norm(x), i


def test_cond_is_the_svd_condition_number():
    """The conductance gates read cond_2 from eigenvalues: equal to the SVD
    value on the bordered floating system, and past 1e12 on the floating
    Laplacian, whose constant vector is a null vector."""
    s, rs, _ = transient._incidence(row_params(4, n_cells=5))
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
    not 4N-1) and expands it; the full chain stepped as it is stays the
    oracle.  Every trace array agrees to 1e-9 of its largest entry (measured
    about 1e-11), the middle bond's capacitor holds exactly zero, and
    mirror nodes' ground currents are bitwise equal."""
    setup = make()
    n = setup.params.n_cells
    sector, dims = simulated_dims(monkeypatch, setup, max_samples)
    assert dims == [2 * n - 1]
    monkeypatch.setattr(transient, "_mirror_half", lambda s: None)
    full, dims = simulated_dims(monkeypatch, setup, max_samples)
    assert dims == [4 * n - 1]
    assert np.array_equal(sector.times, full.times)
    for name in ("node_voltages", "ground_currents", "cap_voltages", "energy"):
        got, want = getattr(sector, name), getattr(full, name)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-9 * np.abs(want).max(), name
    assert np.all(sector.cap_voltages[:, n + n // 2 - 1] == 0.0)
    assert np.array_equal(sector.ground_currents, sector.ground_currents[:, ::-1])
    assert np.array_equal(sector.node_voltages, sector.node_voltages[:, ::-1])


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
    assert transient._mirror_half(setup) is None
    trace, dims = simulated_dims(monkeypatch, setup, 2000)
    space = tc.assemble_state_space(setup)
    assert dims == [space.dimension]
    assert trace.cap_voltages.shape[1] == space.n_branches
    driven = trace.times < trace.switch_time
    for node in setup.source_nodes:
        assert_close(trace.node_voltages[driven, node],
                     np.sin(setup.drive_frequency * trace.times[driven]), 1e-12)


def test_mirror_state_map():
    """At N = 4 the full state reads the half-chain state (3 bonds, 4
    currents, then the appended zero) as chain_bonds orders it: intra bonds
    0, 1 and their reversed mirrors 3, 2; inter bond 4 and its reversed
    mirror 6; the middle bond 5 reads the zero; currents fold i -> 7-i."""
    half, src, sign, node_src, weight = transient._sector(short_setup())
    assert half.params.n_cells == 2 and half.source_nodes == (2,)
    assert (half.dt, half.switch_open_time, half.t_end) == (
        short_setup().dt, 17.0, 40.0)
    assert src.tolist() == [0, 1, 1, 0, 2, 7, 2] + [3, 4, 5, 6, 6, 5, 4, 3]
    assert sign.tolist() == [1, 1, -1, -1, 1, 1, -1] + [1] * 8
    assert node_src.tolist() == [0, 1, 2, 3, 3, 2, 1, 0]
    assert weight == 2.0


def test_simulate_rejects_bad_max_samples():
    s = tc.TransientSetup(row_params(4, n_cells=2), drive_frequency=3.77)
    with pytest.raises(InvalidParams):
        tc.simulate(s, max_samples=0)


def test_ground_current_profile(short_trace):
    tr = short_trace
    t0 = tr.switch_time + 3.5 * tr.metadata.drive_period
    prof = tc.ground_current_profile(tr, (t0, tr.times[-1]))
    assert prof.shape == (8,)
    assert prof.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(prof >= 0.0)


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
    dead = TransientTrace(
        times=tr.times, node_voltages=tr.node_voltages,
        ground_currents=np.zeros_like(tr.ground_currents),
        energy=tr.energy, switch_time=tr.switch_time,
        metadata=tr.metadata, cap_voltages=tr.cap_voltages)
    t0 = tr.switch_time + 3.5 * tr.metadata.drive_period
    with pytest.raises(InsufficientSignal):
        tc.ground_current_profile(dead, (t0, tr.times[-1]))


def test_fit_recovers_synthetic_mode():
    t = np.linspace(0.0, 40.0, 4000)
    truth = dict(amplitude=0.73, omega_r=3.78, omega_i=0.011, phase=0.4)
    s = truth["amplitude"] * np.exp(-truth["omega_i"] * (t - 5.0)) \
        * np.cos(truth["omega_r"] * (t - 5.0) + truth["phase"])
    fit = tc.fit_damped_oscillation(t, s, 5.0)
    assert fit.omega_r == pytest.approx(truth["omega_r"], rel=1e-9)
    assert fit.omega_i == pytest.approx(truth["omega_i"], rel=1e-9)
    assert fit.amplitude == pytest.approx(truth["amplitude"], rel=1e-9)
    assert fit.phase == pytest.approx(truth["phase"], rel=1e-9)
    assert fit.rms_residual < 1e-9


def test_fit_recovers_under_noise():
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 60.0, 6000)
    s = 1.0 * np.exp(-0.02 * t) * np.cos(2.5 * t - 1.0) \
        + 1e-3 * rng.standard_normal(len(t))
    fit = tc.fit_damped_oscillation(t, s, 0.0)
    assert fit.omega_r == pytest.approx(2.5, rel=1e-4)
    assert fit.omega_i == pytest.approx(0.02, rel=2e-2)


def test_fit_converges_on_beating_signal():
    """Two beating modes leave one damped cosine a flat least-squares cost.
    The fit must still stop at a stationary point: a tight restart from the
    returned parameters, with the exact Jacobian, must not move it."""
    from scipy.optimize import least_squares

    t = np.linspace(0.0, 200.0, 8000)
    s = np.exp(-0.0107 * t) * np.cos(3.774 * t) \
        + 0.7 * np.exp(-0.005 * t) * np.cos(3.83 * t)
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


def test_fit_error_paths():
    t = np.linspace(0.0, 10.0, 1000)
    with pytest.raises(InsufficientSignal):
        tc.fit_damped_oscillation(t, np.cos(3.0 * t), 9.99)
    with pytest.raises(InsufficientSignal):
        tc.fit_damped_oscillation(t, np.zeros_like(t), 0.0)
    with pytest.raises(FitDiverged):
        tc.fit_damped_oscillation(t, np.exp(-0.3 * t), 0.0)


@pytest.mark.parametrize("raised, expected", [(ValueError, FitDiverged),
                                              (RuntimeError, RuntimeError)])
def test_fit_passes_over_refused_starts_only(monkeypatch, raised, expected):
    """least_squares raises ValueError for a start whose residuals are not
    finite; with both starts refused the fit diverged.  Any other exception
    is a bug and surfaces as itself."""
    def refuse(*args, **kwargs):
        raise raised("refused")
    monkeypatch.setattr(transient, "least_squares", refuse)
    t = np.linspace(0.0, 40.0, 4000)
    with pytest.raises(expected):
        tc.fit_damped_oscillation(t, np.exp(-0.01 * t) * np.cos(3.0 * t), 0.0)
