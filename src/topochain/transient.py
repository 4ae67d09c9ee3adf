"""Time-domain simulation of the driven chain and damped-mode extraction.

State choice is classic modified nodal analysis: one capacitor voltage per
RC branch plus one current per grounded inductor.  Node voltages are not
states; they solve a real conductance system at every instant.  While the
switch is closed the two source nodes are voltage-clamped, which grounds the
conductance system and makes it nonsingular.  After the switch opens the
network floats, the conductance Laplacian gains the constant vector as a
null space, and the solve is closed with a zero-mean gauge on the node
voltages; the matching consistency condition (inductor currents summing to
zero) is enforced at the switch instant by the minimum-energy projection,
which for equal inductors is a plain mean subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .errors import (
    FitDiverged,
    InsufficientSignal,
    InvalidParams,
    LosslessUnsupported,
    SingularKCL,
    StepRejected,
    WindowOutOfRange,
)
from .params import Boundary, CircuitParams

DT_SAFETY = 20.0
MIN_DRIVE_PERIODS = 10.0
LOCAL_ERROR_TOL = 1e-6
MAX_OUTPUT_SAMPLES = 100_000
DEFAULT_OUTPUT_SAMPLES = 20_000
# ringdown fits run until a step changes neither the cost, the parameters
# nor the gradient by more than roundoff (scipy's Levenberg-Marquardt refuses
# tolerances at machine epsilon); the evaluation cap is far above the hundred
# or so evaluations a fit takes
FIT_TOL = 1e-15
FIT_MAX_NFEV = 10_000


def default_source_nodes(params: CircuitParams) -> tuple[int, int]:
    n_nodes = 2 * params.n_cells
    return (int(round((n_nodes - 1) / 3.0)), int(round(2.0 * (n_nodes - 1) / 3.0)))


def fastest_time_constant(params: CircuitParams, drive_frequency: float) -> float:
    return min(
        2.0 * np.pi / drive_frequency,
        params.r1 * params.c1,
        params.r2 * params.c2,
        np.sqrt(params.l * params.c1),
        np.sqrt(params.l * params.c2),
    )


@dataclass(frozen=True)
class TransientSetup:
    params: CircuitParams
    drive_frequency: float
    source_nodes: tuple[int, int] | None = None
    source_amplitude: float = 1.0
    switch_open_time: float | None = None
    t_end: float | None = None
    dt: float | None = None

    def __post_init__(self):
        if self.drive_frequency <= 0.0:
            raise InvalidParams(f"drive_frequency must be > 0, got {self.drive_frequency}")
        period = 2.0 * np.pi / self.drive_frequency
        bound = fastest_time_constant(self.params, self.drive_frequency) / DT_SAFETY
        if self.dt is None:
            object.__setattr__(self, "dt", bound)
        elif self.dt > bound * (1.0 + 1e-12):
            raise InvalidParams(
                f"dt={self.dt:.3e} exceeds the stability budget {bound:.3e} "
                f"(fastest time constant / {DT_SAFETY:g})"
            )
        if self.switch_open_time is None:
            object.__setattr__(self, "switch_open_time", MIN_DRIVE_PERIODS * period)
        elif self.switch_open_time < MIN_DRIVE_PERIODS * period * (1.0 - 1e-12):
            raise InvalidParams(
                f"switch_open_time={self.switch_open_time:.3e} shorter than "
                f"{MIN_DRIVE_PERIODS:g} drive periods"
            )
        if self.t_end is None:
            object.__setattr__(self, "t_end", self.switch_open_time + 25.0 * period)
        elif self.t_end <= self.switch_open_time:
            raise InvalidParams("t_end must exceed switch_open_time")
        if self.source_nodes is None:
            object.__setattr__(self, "source_nodes", default_source_nodes(self.params))
        n_nodes = 2 * self.params.n_cells
        for node in self.source_nodes:
            if not 0 <= node < n_nodes:
                raise InvalidParams(f"source node {node} outside [0, {n_nodes})")
        if len(set(self.source_nodes)) != len(self.source_nodes):
            raise InvalidParams("source nodes must be distinct")

    @property
    def drive_period(self) -> float:
        return 2.0 * np.pi / self.drive_frequency


@dataclass(frozen=True)
class StateVector:
    cap_voltages: np.ndarray
    ind_currents: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.cap_voltages) + len(self.ind_currents)


def _incidence(params: CircuitParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Branch incidence, per-branch R and C, interleaved A/B node order."""
    n = params.n_cells
    n_nodes = 2 * n
    bonds = [(2 * j, 2 * j + 1, params.r1, params.c1) for j in range(n)]
    for j in range(n - 1):
        bonds.append((2 * j + 1, 2 * j + 2, params.r2, params.c2))
    if params.boundary is Boundary.PERIODIC:
        bonds.append((2 * n - 1, 0, params.r2, params.c2))
    s = np.zeros((n_nodes, len(bonds)))
    rs = np.empty(len(bonds))
    cs = np.empty(len(bonds))
    for b, (a, bb, r, c) in enumerate(bonds):
        s[a, b] = 1.0
        s[bb, b] = -1.0
        rs[b] = r
        cs[b] = c
    return s, rs, cs


@dataclass(frozen=True)
class StateSpace:
    """dx/dt = a x + b u while driven, dx/dt = a_free x after release.

    Node voltages recover as v_map @ x (+ v_src * u while driven).
    """

    setup: TransientSetup
    a_driven: np.ndarray
    b_driven: np.ndarray
    a_free: np.ndarray
    v_map_driven: np.ndarray
    v_src_driven: np.ndarray
    v_map_free: np.ndarray
    n_branches: int
    n_nodes: int
    incidence: np.ndarray = field(repr=False)
    branch_caps: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.n_branches + self.n_nodes


def assemble_state_space(setup: TransientSetup) -> StateSpace:
    """Build both phase operators and the node-voltage recovery maps."""
    params = setup.params
    if params.r1 <= 0.0 or params.r2 <= 0.0:
        raise LosslessUnsupported(
            "node-voltage elimination divides by R; lossless chains need an "
            "LC formulation this module does not provide"
        )
    s, rs, cs = _incidence(params)
    n_nodes, nb = s.shape
    g = (s / rs) @ s.T
    # state -> KCL right-hand side (without sources): S R^-1 vC - iL
    m = np.hstack([s / rs, -np.eye(n_nodes)])

    free_idx = np.array([i for i in range(n_nodes) if i not in set(setup.source_nodes)])
    clamp_idx = np.array(sorted(setup.source_nodes))
    g_ff = g[np.ix_(free_idx, free_idx)]
    g_fc = g[np.ix_(free_idx, clamp_idx)]
    if np.linalg.cond(g_ff) > 1e12:
        raise SingularKCL("clamped conductance system is numerically singular")
    w_d = np.zeros((n_nodes, nb + n_nodes))
    w_d[free_idx] = np.linalg.solve(g_ff, m[free_idx])
    v_src = np.zeros(n_nodes)
    v_src[clamp_idx] = 1.0
    v_src[free_idx] = np.linalg.solve(g_ff, -g_fc @ np.ones(len(clamp_idx)))

    # floating phase: bordered system pins the node-voltage common mode,
    # which keeps sum(iL) = 0 invariant
    g_aug = np.zeros((n_nodes + 1, n_nodes + 1))
    g_aug[:n_nodes, :n_nodes] = g
    g_aug[:n_nodes, n_nodes] = 1.0
    g_aug[n_nodes, :n_nodes] = 1.0
    if np.linalg.cond(g_aug) > 1e12:
        raise SingularKCL("floating conductance system is numerically singular")
    w_f = np.linalg.solve(g_aug, np.vstack([m, np.zeros(nb + n_nodes)]))[:n_nodes]

    def build(w: np.ndarray, v_s: np.ndarray | None):
        a = np.zeros((nb + n_nodes, nb + n_nodes))
        a[:nb] = (s.T @ w) / (rs * cs)[:, None]
        a[:nb, :nb] -= np.diag(1.0 / (rs * cs))
        a[nb:] = w / params.l
        if v_s is None:
            return a, None
        b = np.empty(nb + n_nodes)
        b[:nb] = (s.T @ v_s) / (rs * cs)
        b[nb:] = v_s / params.l
        return a, b

    a_d, b_d = build(w_d, v_src)
    a_f, _ = build(w_f, None)
    return StateSpace(
        setup=setup, a_driven=a_d, b_driven=b_d, a_free=a_f,
        v_map_driven=w_d, v_src_driven=v_src, v_map_free=w_f,
        n_branches=nb, n_nodes=n_nodes, incidence=s, branch_caps=cs,
    )


@dataclass(frozen=True)
class TransientTrace:
    times: np.ndarray
    node_voltages: np.ndarray    # shape (n_samples, 2N)
    ground_currents: np.ndarray  # shape (n_samples, 2N)
    energy: np.ndarray
    switch_time: float
    metadata: TransientSetup

    def final_state(self) -> StateVector:
        return StateVector(cap_voltages=self._cap[-1].copy(),
                           ind_currents=self.ground_currents[-1].copy())

    _cap: np.ndarray = field(default=None, repr=False)


def _propagator(a: np.ndarray, dt: float) -> np.ndarray:
    """Exact one-step map of the implicit trapezoid rule."""
    n = a.shape[0]
    lhs = np.eye(n) - 0.5 * dt * a
    rhs = np.eye(n) + 0.5 * dt * a
    return np.linalg.solve(lhs, rhs)


def _mat_power(p: np.ndarray, n: int) -> np.ndarray:
    out = np.eye(p.shape[0])
    base = p
    while n:
        if n & 1:
            out = out @ base
        base = base @ base
        n >>= 1
    return out


def _sinusoid_particular(a: np.ndarray, b: np.ndarray, amp: float,
                         omega: float, dt: float) -> np.ndarray:
    """Complex z with x_part(t_n) = Im(z e^{i w t_n}) solving the trapezoid
    recurrence driven by amp*sin(w t)."""
    n = a.shape[0]
    h = 0.5 * dt
    rho = np.exp(1j * omega * dt)
    lhs = rho * (np.eye(n) - h * a) - (np.eye(n) + h * a)
    return np.linalg.solve(lhs, h * amp * (1.0 + rho) * b)


def _probe_local_error(a: np.ndarray, b: np.ndarray | None, u_of_t,
                       x: np.ndarray, t: float, dt: float) -> float:
    """One step of dt against two of dt/2, source term included.

    Without the source the probe would excite fictitious fast relaxation of
    the quasi-statically forced stiff components and overestimate the error.
    """
    n = a.shape[0]

    def step(state, t0, h_step):
        h = 0.5 * h_step
        rhs = (np.eye(n) + h * a) @ state
        if b is not None:
            rhs = rhs + h * b * (u_of_t(t0) + u_of_t(t0 + h_step))
        return np.linalg.solve(np.eye(n) - h * a, rhs)

    coarse = step(x, t, dt)
    fine = step(step(x, t, 0.5 * dt), t + 0.5 * dt, 0.5 * dt)
    scale = max(float(np.linalg.norm(fine)), 1e-300)
    return float(np.linalg.norm(fine - coarse)) / scale


def simulate(setup: TransientSetup,
             max_samples: int = DEFAULT_OUTPUT_SAMPLES) -> TransientTrace:
    """Drive, release, and record the chain with fixed-step trapezoid.

    The system is linear time-invariant within each phase, so the stepping
    recurrence is evaluated through cached powers of the one-step map plus
    the closed-form particular response to the sinusoidal drive; this is
    arithmetically the fixed-step trapezoid solution, evaluated at the
    decimated output times.  Local accuracy is audited by step-doubling
    probes spread through each phase, and stored energy is checked to be
    non-increasing after release.
    """
    if not 1 <= max_samples <= MAX_OUTPUT_SAMPLES:
        raise InvalidParams(f"max_samples outside [1, {MAX_OUTPUT_SAMPLES}]")
    sys = assemble_state_space(setup)
    dt = setup.dt
    n_driven = int(np.ceil(setup.switch_open_time / dt))
    switch_time = n_driven * dt
    n_free = int(np.ceil((setup.t_end - switch_time) / dt))
    stride = max(1, int(np.ceil((n_driven + n_free) / max_samples)))

    dim, nb, nn = sys.dimension, sys.n_branches, sys.n_nodes
    p_d = _propagator(sys.a_driven, dt)
    z = _sinusoid_particular(sys.a_driven, sys.b_driven, setup.source_amplitude,
                             setup.drive_frequency, dt)
    rho = np.exp(1j * setup.drive_frequency * dt)

    times, caps, currents, volts = [], [], [], []

    def record(step: int, x: np.ndarray, driven: bool) -> None:
        t = step * dt
        u = setup.source_amplitude * np.sin(setup.drive_frequency * t)
        if driven:
            v = sys.v_map_driven @ x + sys.v_src_driven * u
        else:
            v = sys.v_map_free @ x
        times.append(t)
        caps.append(x[:nb].copy())
        currents.append(x[nb:].copy())
        volts.append(v)

    # driven phase: x_n = y_n + Im(z rho^n), y homogeneous
    y = -z.imag.copy()
    q_d = _mat_power(p_d, stride)
    probe_steps_d = {max(1, (n_driven * (j + 1)) // 8) for j in range(8)}
    step = 0
    record(0, y + np.imag(z), True)
    while step < n_driven:
        adv = min(stride, n_driven - step)
        y = (q_d if adv == stride else _mat_power(p_d, adv)) @ y
        step += adv
        x = y + np.imag(z * rho ** step)
        record(step, x, True)
        near = [p for p in probe_steps_d if abs(p - step) < stride]
        if near:
            probe_steps_d -= set(near)
            err = _probe_local_error(
                sys.a_driven, sys.b_driven,
                lambda t: setup.source_amplitude * np.sin(setup.drive_frequency * t),
                x, step * dt, dt)
            if err > LOCAL_ERROR_TOL:
                raise StepRejected(
                    f"driven-phase local error {err:.3e} at t={step * dt:.6g}; "
                    f"reduce dt"
                )

    # release: zero the inductor-current common mode (minimum-energy
    # consistent reinitialization for the floating network)
    x = y + np.imag(z * rho ** n_driven)
    x[nb:] -= x[nb:].mean()
    record(n_driven, x, False)

    p_f = _propagator(sys.a_free, dt)
    q_f = _mat_power(p_f, stride)
    probe_steps_f = {max(1, (n_free * (j + 1)) // 8) for j in range(8)}
    fstep = 0
    while fstep < n_free:
        adv = min(stride, n_free - fstep)
        x = (q_f if adv == stride else _mat_power(p_f, adv)) @ x
        fstep += adv
        record(n_driven + fstep, x, False)
        near = [p for p in probe_steps_f if abs(p - fstep) < stride]
        if near:
            probe_steps_f -= set(near)
            err = _probe_local_error(sys.a_free, None, None, x,
                                     (n_driven + fstep) * dt, dt)
            if err > LOCAL_ERROR_TOL:
                raise StepRejected(
                    f"free-phase local error {err:.3e} at "
                    f"t={(n_driven + fstep) * dt:.6g}; reduce dt"
                )

    times = np.array(times)
    caps = np.array(caps)
    currents = np.array(currents)
    volts = np.array(volts)
    energy = 0.5 * (caps * caps) @ sys.branch_caps \
        + 0.5 * setup.params.l * np.sum(currents * currents, axis=1)
    post = times >= switch_time - 0.5 * dt
    e_post = energy[post]
    tol = 1e-9 * max(float(e_post[0]), 1e-300)
    if np.any(np.diff(e_post) > tol):
        worst = float(np.diff(e_post).max())
        raise StepRejected(
            f"stored energy grew by {worst:.3e} after release; reduce dt"
        )
    return TransientTrace(
        times=times, node_voltages=volts, ground_currents=currents,
        energy=energy, switch_time=switch_time, metadata=setup, _cap=caps,
    )


def ground_current_profile(trace: TransientTrace,
                           window: tuple[float, float]) -> np.ndarray:
    """Per-node RMS inductor current over the window, normalized to sum 1."""
    t0, t1 = window
    setup = trace.metadata
    earliest = trace.switch_time + 3.0 * setup.drive_period
    if t0 < earliest - 1e-12:
        raise WindowOutOfRange(
            f"window start {t0:.6g} inside the switch transient; "
            f"earliest usable time is {earliest:.6g}"
        )
    if t1 <= t0 or t1 > trace.times[-1] + 1e-12:
        raise WindowOutOfRange(f"window ({t0:.6g}, {t1:.6g}) outside the trace")
    mask = (trace.times >= t0) & (trace.times <= t1)
    if mask.sum() < 8:
        raise WindowOutOfRange("window covers fewer than 8 output samples")
    rms = np.sqrt(np.mean(trace.ground_currents[mask] ** 2, axis=0))
    total = rms.sum()
    if total <= 0.0:
        raise InsufficientSignal("all ground currents identically zero in window")
    return rms / total


@dataclass(frozen=True)
class DampedFit:
    amplitude: float
    omega_r: float
    omega_i: float
    phase: float
    rms_residual: float


def fit_damped_oscillation(times: np.ndarray, series: np.ndarray,
                           t0: float) -> DampedFit:
    """Least-squares fit of A exp(-wi (t-t0)) cos(wr (t-t0) + phi).

    Initial guesses come from the signal itself: decay from a log-linear fit
    of the peak envelope, frequency from the mean zero-crossing spacing.
    From there Levenberg-Marquardt, with the analytic Jacobian and every
    tolerance at roundoff, converges to a stationary point of the summed
    squared residual: the local minimum in the basin of that data-derived
    guess, not necessarily the global one.  A beating multi-mode ringdown
    has several such minima and a flat cost around each; the fit then
    summarizes the signal rather than isolating a mode, which rms_residual
    (residual RMS over signal RMS) shows.
    """
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    mask = times >= t0
    t = times[mask] - t0
    s = series[mask]
    if len(t) < 32:
        raise InsufficientSignal(f"only {len(t)} samples after t0")
    peak = float(np.abs(s).max())
    if peak < 1e-14:
        raise InsufficientSignal("signal below numeric noise floor")

    sign_change = np.where(np.diff(np.signbit(s)))[0]
    if len(sign_change) < 6:
        raise FitDiverged(
            f"only {len(sign_change)} zero crossings; no resolvable oscillation"
        )
    crossings = t[sign_change] - s[sign_change] * (
        (t[sign_change + 1] - t[sign_change])
        / (s[sign_change + 1] - s[sign_change])
    )
    omega_r0 = np.pi / float(np.mean(np.diff(crossings)))

    # peak envelope: local maxima of |s|
    mag = np.abs(s)
    loc = np.where((mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:]))[0] + 1
    loc = loc[mag[loc] > 1e-3 * peak]
    if len(loc) >= 3:
        slope, intercept = np.polyfit(t[loc], np.log(mag[loc]), 1)
        omega_i0 = max(-slope, 1e-12)
        a0 = float(np.exp(intercept))
    else:
        omega_i0 = 1e-3 * omega_r0
        a0 = peak
    phase0 = float(np.arccos(np.clip(s[0] / max(a0, 1e-300), -1.0, 1.0)))

    def model(p, tt):
        a, wr, wi, ph = p
        return a * np.exp(-wi * tt) * np.cos(wr * tt + ph)

    def jacobian(p):
        a, wr, wi, ph = p
        env = np.exp(-wi * t)
        cos, sin = np.cos(wr * t + ph), np.sin(wr * t + ph)
        return np.column_stack(
            [env * cos, -a * t * env * sin, -a * t * env * cos, -a * env * sin])

    best = None
    for ph_try in (phase0, -phase0):
        try:
            res = least_squares(
                lambda p: model(p, t) - s,
                x0=[a0, omega_r0, omega_i0, ph_try], jac=jacobian,
                method="lm", ftol=FIT_TOL, xtol=FIT_TOL, gtol=FIT_TOL,
                max_nfev=FIT_MAX_NFEV,
            )
        except Exception:
            continue
        if best is None or res.cost < best.cost:
            best = res
    if best is None or not best.success:
        raise FitDiverged("least-squares refinement did not converge")
    a, wr, wi, ph = best.x
    if a < 0:
        a, ph = -a, ph + np.pi
    if wr < 0:
        wr, ph = -wr, -ph
    ph = float((ph + np.pi) % (2.0 * np.pi) - np.pi)
    rms = float(np.sqrt(np.mean((model(best.x, t) - s) ** 2))
                / np.sqrt(np.mean(s * s)))
    if not wi > 0.0:
        raise FitDiverged(f"fitted decay {wi:.3e} is not positive")
    return DampedFit(amplitude=float(a), omega_r=float(wr), omega_i=float(wi),
                     phase=ph, rms_residual=rms)
