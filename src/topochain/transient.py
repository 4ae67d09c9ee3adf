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

An open chain of an even number N of cells is mirror symmetric, node i
mapping to 2N-1-i.  When the clamped source set is mirror-invariant too (the
default pair is), the drive never leaves the mirror-even sector, and that
sector is exactly the N/2-cell left half-chain clamped at its own sources:
the middle bond (N-1, N) joins two nodes at one voltage, so its capacitor
holds zero and carries no current.  simulate then steps that half-chain
(see _sector).
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import chain_bonds
from .errors import (
    FitDiverged,
    InsufficientSignal,
    InvalidParams,
    LosslessUnsupported,
    SingularKCL,
    StepRejected,
    WindowOutOfRange,
)
from .params import Boundary, CircuitParams, is_index

DT_SAFETY = 20.0
# the protocol in drive periods: the default drive (also the shortest) and
# free ringdown, and the settling after release before any sample is used
MIN_DRIVE_PERIODS = 10.0
FREE_PERIODS = 25.0
SETTLE_PERIODS = 3.0
LOCAL_ERROR_TOL = 1e-6
MAX_OUTPUT_SAMPLES = 100_000
# ringdown fits run until a step changes neither the cost, the parameters
# nor the gradient by more than roundoff: lmder's ftol, xtol and gtol, set
# just above machine epsilon (at or below it lmder's stringent-tolerance
# exits, which _lmder leaves out, would stop the fit first); the evaluation
# cap is far above the few hundred evaluations a fit takes
FIT_TOL = 1e-15
FIT_MAX_NFEV = 10_000
# lmder's first trust radius in units of the scaled start's norm, and the
# smallest positive double (MINPACK's dwarf)
LM_FACTOR = 100.0
DWARF = float(np.finfo(float).tiny)
# a fit whose residual RMS exceeds this share of the signal's RMS summarizes
# a multi-mode signal rather than describing one mode
FIT_RMS_BOUND = 0.5
# rows of recorded state advanced by one matrix product in simulate
BLOCK = 64
# rows of state per voltage product in TransientTrace.node_voltages: OpenBLAS
# packs a product's row operand into per-thread buffers that stay resident
# (14 MB after one product over a 7616-row phase).  A part of over about 1200
# entries rounds as the whole product (smaller ones take another OpenBLAS
# kernel): fig8's equal parts of 457-508 rows x 3 columns do; 256 rows would not
VOLTAGE_ROWS = 512
# glibc mallopt parameters, and the size from which simulate's arrays get
# their own mapping and up to which the heap keeps a free top
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 1 << 20


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
        for name in ("drive_frequency", "source_amplitude", "switch_open_time",
                     "t_end", "dt"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidParams(f"{name} must be finite, got {value}")
        if not self.drive_frequency > 0.0:
            raise InvalidParams(f"drive_frequency must be > 0, got {self.drive_frequency}")
        period = 2.0 * np.pi / self.drive_frequency
        bound = fastest_time_constant(self.params, self.drive_frequency) / DT_SAFETY
        if self.dt is None:
            object.__setattr__(self, "dt", bound)
        elif not self.dt > 0.0:
            raise InvalidParams(f"dt must be > 0, got {self.dt}")
        elif self.dt > bound * (1.0 + 1e-12):
            raise InvalidParams(
                f"dt={self.dt:.3e} exceeds the stability budget {bound:.3e} "
                f"(fastest time constant / {DT_SAFETY:g})"
            )
        if self.switch_open_time is None:
            object.__setattr__(self, "switch_open_time", MIN_DRIVE_PERIODS * period)
        elif not self.switch_open_time >= MIN_DRIVE_PERIODS * period * (1.0 - 1e-12):
            raise InvalidParams(
                f"switch_open_time={self.switch_open_time:.3e} shorter than "
                f"{MIN_DRIVE_PERIODS:g} drive periods"
            )
        if self.t_end is None:
            object.__setattr__(self, "t_end", self.switch_open_time + FREE_PERIODS * period)
        elif not self.t_end > self.switch_open_time:
            raise InvalidParams("t_end must exceed switch_open_time")
        if self.source_nodes is None:
            object.__setattr__(self, "source_nodes", default_source_nodes(self.params))
        if not self.source_nodes:
            raise InvalidParams("source_nodes must name at least one node")
        n_nodes = 2 * self.params.n_cells
        for node in self.source_nodes:
            if not is_index(node):
                raise InvalidParams(f"source_nodes must be integers, got {node!r}")
            if not 0 <= node < n_nodes:
                raise InvalidParams(f"source node {node} outside [0, {n_nodes})")
        if len(set(self.source_nodes)) != len(self.source_nodes):
            raise InvalidParams("source nodes must be distinct")

    @property
    def drive_period(self) -> float:
        return 2.0 * np.pi / self.drive_frequency


def _incidence(params: CircuitParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Branch incidence in chain_bonds order, per-branch R and C."""
    tail, head = chain_bonds(params.n_cells, params.boundary)
    bond = np.arange(len(tail))
    s = np.zeros((2 * params.n_cells, len(tail)))
    s[tail, bond] = 1.0
    s[head, bond] = -1.0
    intra = bond < params.n_cells
    return s, np.where(intra, params.r1, params.r2), np.where(intra, params.c1, params.c2)


@dataclass(frozen=True)
class StateSpace:
    """dx/dt = a x + b u while driven, dx/dt = a_free x after release.

    Node voltages recover as v_map @ x (+ v_src * u while driven).
    """

    a_driven: np.ndarray
    b_driven: np.ndarray
    a_free: np.ndarray
    v_map_driven: np.ndarray
    v_src_driven: np.ndarray
    v_map_free: np.ndarray
    n_branches: int
    n_nodes: int
    branch_caps: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.n_branches + self.n_nodes


def _cond(g: np.ndarray) -> float:
    """2-norm condition number of a symmetric matrix: its singular values
    are the magnitudes of its eigenvalues."""
    lam = np.abs(np.linalg.eigvalsh(g))
    with np.errstate(divide="ignore"):
        return float(lam.max() / lam.min())


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

    clamped = np.isin(np.arange(n_nodes), setup.source_nodes)
    free_idx, clamp_idx = np.flatnonzero(~clamped), np.flatnonzero(clamped)
    g_ff = g[np.ix_(free_idx, free_idx)]
    g_fc = g[np.ix_(free_idx, clamp_idx)]
    if _cond(g_ff) > 1e12:
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
    if _cond(g_aug) > 1e12:
        raise SingularKCL("floating conductance system is numerically singular")
    w_f = np.linalg.solve(g_aug, np.vstack([m, np.zeros(nb + n_nodes)]))[:n_nodes]

    def build(w: np.ndarray) -> np.ndarray:
        a = np.zeros((nb + n_nodes, nb + n_nodes))
        a[:nb] = (s.T @ w) / (rs * cs)[:, None]
        a[:nb, :nb] -= np.diag(1.0 / (rs * cs))
        a[nb:] = w / params.l
        return a

    b_d = np.concatenate([(s.T @ v_src) / (rs * cs), v_src / params.l])
    return StateSpace(
        a_driven=build(w_d), b_driven=b_d, a_free=build(w_f),
        v_map_driven=w_d, v_src_driven=v_src, v_map_free=w_f,
        n_branches=nb, n_nodes=n_nodes, branch_caps=cs,
    )


def _drive(setup: TransientSetup, t: np.ndarray) -> np.ndarray:
    """The source voltage at the times t."""
    return setup.source_amplitude * np.sin(setup.drive_frequency * t)


@dataclass(frozen=True)
class TransientTrace:
    """Sample times, stored energy and the recorded state of one run.

    The state rows are those of the stepped chain (the half-chain of a
    mirror-symmetric run, see _sector), one row per sample, ground currents
    from column _n_branches on.  Node columns are computed on demand from
    them and the voltage maps (see StateSpace): node i reads stepped node
    _node_src[i], so mirror nodes' columns are bitwise equal.
    """

    times: np.ndarray
    energy: np.ndarray
    switch_time: float
    metadata: TransientSetup
    _states: np.ndarray = field(repr=False)
    _n_branches: int = field(repr=False)
    _v_map_driven: np.ndarray = field(repr=False)
    _v_src_driven: np.ndarray = field(repr=False)
    _v_map_free: np.ndarray = field(repr=False)
    _node_src: np.ndarray = field(repr=False)
    _rows_driven: int = field(repr=False)

    def _sources(self, nodes) -> np.ndarray:
        """The stepped node that each of the full-chain nodes reads."""
        nodes = np.asarray(nodes)
        n_nodes = len(self._node_src)
        if (nodes.ndim != 1 or not np.issubdtype(nodes.dtype, np.integer)
                or np.any((nodes < 0) | (nodes >= n_nodes))):
            raise InvalidParams(f"nodes must be a sequence of node indices in [0, {n_nodes})")
        return self._node_src[nodes]

    def ground_currents(self, nodes) -> np.ndarray:
        """Inductor (ground) currents of the named nodes: shape
        (n_samples, len(nodes)), gathered from the state's current block."""
        return self._states[:, self._n_branches + self._sources(nodes)]

    def node_voltages(self, nodes) -> np.ndarray:
        """Voltages of the named nodes: shape (n_samples, len(nodes)).

        Each distinct stepped node's column is its row of the phase's
        voltage map applied to the state rows, in equal parts of at most
        VOLTAGE_ROWS rows, plus v_src times the drive while driven; it is
        computed once and gathered onto every node that reads it.
        """
        distinct, back = np.unique(self._sources(nodes), return_inverse=True)
        rows_d, x = self._rows_driven, self._states
        volts = np.empty((len(x), len(distinct)))
        for rows, v_map in ((slice(rows_d), self._v_map_driven),
                            (slice(rows_d, None), self._v_map_free)):
            m = v_map[distinct].T
            parts = (len(volts[rows]) + VOLTAGE_ROWS - 1) // VOLTAGE_ROWS
            for xs, out in zip(np.array_split(x[rows], parts),
                               np.array_split(volts[rows], parts)):
                np.matmul(xs, m, out=out)
        volts[:rows_d] += (self._v_src_driven[distinct]
                           * _drive(self.metadata, self.times[:rows_d])[:, None])
        return volts[:, back]


def _identity_plus(a: np.ndarray, c: float, out: np.ndarray) -> np.ndarray:
    """I + c a, built in out and bitwise equal to np.eye(n) + c * a
    (np.eye(n) - c * a with c negated): adding 0.0 turns the product's
    negative zeros positive, as adding the identity's zeros does."""
    np.multiply(a, c, out=out)
    out += 0.0
    out[np.diag_indices_from(out)] += 1.0
    return out


def _propagator(a: np.ndarray, dt: float, b: np.ndarray | None, lhs: np.ndarray,
                out: np.ndarray, amp: float, rho: complex
                ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Exact one-step map p of the implicit trapezoid rule, and with a source
    vector b its source column g = (I - dt/2 a)^-1 dt/2 b, solved as one more
    right-hand side (a step is x' = p x + g (u(t) + u(t + dt))), and the
    complex z with x_part(t_n) = Im(z rho^n) solving that recurrence for
    u = amp sin(w t), rho = e^{i w dt}: from the same two operators,
    (rho (I - dt/2 a) - (I + dt/2 a)) z = dt/2 amp (1 + rho) b.

    lhs (dim x dim) takes I - dt/2 a and out (flat, dim (dim + 1) entries)
    the right-hand sides, I + dt/2 a first, and then p.  Returns (p, g, z),
    g and z None without b."""
    n = a.shape[0]
    cols = n if b is None else n + 1
    h = 0.5 * dt
    _identity_plus(a, -h, lhs)
    rhs = out[:n * cols].reshape(n, cols)
    _identity_plus(a, h, rhs[:, :n])
    z = None
    if b is not None:
        # the extra column goes last, so the first n see the same triangular
        # solves as without it (bitwise so with OpenBLAS)
        np.multiply(b, h, out=rhs[:, n])
        z_lhs = np.multiply(rho, lhs)
        z_lhs -= rhs[:, :n]
        z = np.linalg.solve(z_lhs, h * amp * (1.0 + rho) * b)
    solved = np.linalg.solve(lhs, rhs)
    p = out[:n * n].reshape(n, n)
    np.copyto(p, solved[:, :n])
    return p, None if b is None else solved[:, n].copy(), z


def _product(x: np.ndarray, y: np.ndarray, pool: list, live: tuple) -> np.ndarray:
    """x @ y written into a buffer of pool that is none of the live arrays;
    pool gains one when all are live.  A reused buffer's pages are faulted
    in already (a fresh dim x dim array's are not, see _pin_mmap_threshold),
    and the gemm is the same, so the bits are."""
    out = next((w for w in pool if all(w is not v for v in live)), None)
    if out is None:
        out = np.empty_like(x)
        pool.append(out)
    return np.matmul(x, y, out=out)


def _mat_powers(p: np.ndarray, n: int, m: int, pool: list) -> tuple[np.ndarray, np.ndarray]:
    """p**n and p**m (1 <= m <= n) from one chain of squarings, whose
    products go into the buffers of pool (see _product).

    While the two exponents agree bit by bit from the lowest up they share
    one product, and no product starts from the identity.
    """
    pn = pm = None
    square = p
    while True:
        shared = pn is pm and n & m & 1
        if n & 1:
            pn = square if pn is None else _product(pn, square, pool, (pn, pm, square))
        if m & 1:
            pm = pn if shared else square if pm is None else _product(
                pm, square, pool, (pn, pm, square))
        n, m = n >> 1, m >> 1
        if not n:
            return pn, pm
        square = _product(square, square, pool, (pn, pm, square))


def _pin_mmap_threshold() -> None:
    """Give every allocation of MMAP_THRESHOLD_BYTES or more its own mapping,
    and let the heap keep up to as much free memory at its top.

    glibc's dynamic mmap threshold rises to the size of the first large
    block freed, and later ones then come from the brk heap, whose peak
    depends on earlier calls (one fig8b run peaked at 241 or 261 MB
    resident after different presets).  A fixed threshold returns each
    large block to the system when freed; the trim threshold, left at its
    128 KiB default, would then hand the heap's free top back after nearly
    every free of the fit's sample-length arrays, so it is fixed at the
    same size.  Without glibc's mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, MMAP_THRESHOLD_BYTES)


def _probe_local_error(a: np.ndarray, b: np.ndarray | None, p: np.ndarray,
                       g: np.ndarray | None, u_of_t, x: np.ndarray,
                       t: np.ndarray, dt: float, lhs: np.ndarray) -> np.ndarray:
    """One step of dt against two of dt/2 from each column of x at the times
    t: the relative difference per column.  The step of dt is the phase's
    own one-step map p with source column g (see _propagator); the half
    steps' left-hand side is written into lhs.

    The source term is included; without it the probe would excite
    fictitious fast relaxation of the quasi-statically forced stiff
    components and overestimate the error.
    """
    coarse = p @ x
    if g is not None:
        coarse += np.outer(g, u_of_t(t) + u_of_t(t + dt))
    h = 0.5 * dt
    _identity_plus(a, -(0.5 * h), lhs)
    # two trapezoid steps of h: lhs x' = (I + h/2 a) x + h/2 b (u(t) + u(t + h))
    fine = x
    for start in (t, t + h):
        rhs = fine + 0.5 * h * (a @ fine)
        if b is not None:
            rhs += 0.5 * h * np.outer(b, u_of_t(start) + u_of_t(start + h))
        fine = np.linalg.solve(lhs, rhs)
    scale = np.maximum(np.linalg.norm(fine, axis=0), 1e-300)
    return np.linalg.norm(fine - coarse, axis=0) / scale


def _probe_rows(steps: np.ndarray, n_steps: int, stride: int) -> np.ndarray:
    """Rows after the first that hold the first recorded step within a
    stride of some eighth of the phase, in order."""
    eighths = np.maximum(1, n_steps * np.arange(1, 9) // 8)
    near = np.abs(eighths[:, None] - steps[None, 1:]) < stride
    return np.flatnonzero(np.bincount(near.argmax(axis=1)[near.any(axis=1)] + 1))


def _phase(p: np.ndarray, out: np.ndarray, n_steps: int, stride: int,
           pool: list) -> np.ndarray:
    """Fill out[1:] from out[0], one row per stride steps of the one-step map
    p; the last advance is shorter when stride does not divide n_steps.

    With q = p**stride, the first BLOCK rows are matvecs and every later
    block of rows is one gemm with q**BLOCK applied to the block before it.
    The powers go into the buffers of pool (see _product); only the two
    that the row blocks read, q**BLOCK and the last advance's power, are
    held (pool keeps just those) while the blocks fill the rows.  Returns
    the step number of every row.
    """
    steps = np.minimum(np.arange(len(out)) * stride, n_steps)
    q, last = _mat_powers(p, stride, n_steps % stride or stride, pool)
    whole = n_steps // stride + 1  # rows reached by whole strides
    for i in range(1, min(whole, BLOCK)):
        np.matmul(q, out[i - 1], out=out[i])
    if whole > BLOCK:
        # q**BLOCK by log2(BLOCK) squarings: BLOCK is a power of two, and
        # these are the products np.linalg.matrix_power takes
        qb = q
        for _ in range(BLOCK.bit_length() - 1):
            qb = _product(qb, qb, pool, (q, last, qb))
        pool[:] = [w for w in pool if w is qb or w is last]
        del q
        qb_t = qb.T
        for j in range(BLOCK, whole, BLOCK):
            rows = min(BLOCK, whole - j)
            np.matmul(out[j - BLOCK:j - BLOCK + rows], qb_t, out=out[j:j + rows])
    if whole < len(out):
        np.matmul(last, out[-2], out=out[-1])
    return steps


def _sector(setup: TransientSetup):
    """The setup to step, and how its trace maps onto setup's.

    Returns (stepped, node_src, weight): node i reads stepped node
    node_src[i], and the full energy is weight times the stepped one.  A
    mirror-symmetric setup (an open chain of an even N >= 4 cells whose
    clamped set the mirror i -> 2N-1-i maps onto itself) steps its N/2-cell
    left half-chain, clamped at its own sources: node_src[i] = min(i,
    2N-1-i), weight 2.  Any other setup steps itself: the identity, weight 1.
    """
    params = setup.params
    n = params.n_cells
    i = np.arange(2 * n)
    clamped = set(setup.source_nodes)
    if (params.boundary is not Boundary.OPEN or n % 2 or n < 4
            or clamped != {2 * n - 1 - j for j in clamped}):
        return setup, i, 1.0
    half = dataclasses.replace(
        setup, params=dataclasses.replace(params, n_cells=n // 2),
        source_nodes=tuple(j for j in setup.source_nodes if j < n))
    return half, np.minimum(i, 2 * n - 1 - i), 2.0


def simulate(setup: TransientSetup, max_samples: int) -> TransientTrace:
    """Drive, release, and record the chain with fixed-step trapezoid.

    Each phase is linear time-invariant, so one routine steps both: powers
    of the phase's one-step map advance the recorded state, row by row for
    the first BLOCK rows and then a block of rows per matrix product, and
    the driven phase adds the closed-form particular response to the
    sinusoidal drive, a block of rows at a time.  This is arithmetically
    the fixed-step trapezoid solution at the decimated output times, kept
    in one state array (capacitor voltages, then inductor currents) with
    the sample times and stored energy; the trace computes node columns on
    demand.  The switch instant is recorded twice, before and after the
    release projection.  Step-doubling probes on recorded rows spread
    through each phase audit the local error (one step of dt by the
    phase's one-step map against two of dt/2, all of a phase's probes in
    two linear solves), and stored energy must not grow after release.

    simulate owns all dim x dim working memory: a flat step_map of
    dim (dim + 1) entries and a pool of dim x dim buffers, which both
    phases' propagators (whose two operators also give the driven phase's
    particular response), power chains and probes fill through out=, so a
    call faults their pages in once.  Each phase's row blocks run beside the
    two powers they read (see _phase), and each phase ends holding only the
    probe's left-hand side, so the free phase's row blocks, which take the
    states to full size, run beside three of them and the free operator; large
    arrays are kept off the malloc heap (see _pin_mmap_threshold).

    A mirror-symmetric run steps the N/2-cell half-chain (see _sector):
    2N-1 states, not 4N-1.  The mirror scales both norms of a probe's
    relative error by sqrt 2, so the probes are the same gate on the
    half-chain state; the energy gate reads the full energy, twice the
    half-chain's.
    """
    if not 1 <= max_samples <= MAX_OUTPUT_SAMPLES:
        raise InvalidParams(f"max_samples outside [1, {MAX_OUTPUT_SAMPLES}]")
    _pin_mmap_threshold()
    stepped, node_src, weight = _sector(setup)
    sys = assemble_state_space(stepped)
    nb, dim, branch_caps = sys.n_branches, sys.dimension, sys.branch_caps
    # each phase's operator is popped as the phase starts, so the driven one
    # is not live while the free phase fills the states
    maps = dict(_v_map_driven=sys.v_map_driven, _v_src_driven=sys.v_src_driven,
                _v_map_free=sys.v_map_free)
    operators = [(sys.a_driven, sys.b_driven), (sys.a_free, None)]
    del sys
    dt = setup.dt
    n_driven = int(np.ceil(setup.switch_open_time / dt))
    switch_time = n_driven * dt
    n_free = int(np.ceil((setup.t_end - switch_time) / dt))
    stride = max(1, int(np.ceil((n_driven + n_free) / max_samples)))
    rows_d = 1 + (n_driven + stride - 1) // stride
    rows_f = 1 + (n_free + stride - 1) // stride

    # every dim x dim buffer of the call: the one-step map (after its solve's
    # right-hand sides) in step_map, left-hand sides and powers in the pool
    step_map, pool = np.empty(dim * (dim + 1)), [np.empty((dim, dim))]

    drive = functools.partial(_drive, setup)
    rho = np.exp(1j * setup.drive_frequency * dt)
    states = np.empty((rows_d + rows_f, dim))
    recorded = []   # the step number of every row
    for name, rows, n_steps, first in (("driven", states[:rows_d], n_driven, 0),
                                       ("free", states[rows_d:], n_free, n_driven)):
        a, b = operators.pop(0)
        p, g, z = _propagator(a, dt, b, pool[0], step_map, setup.source_amplitude, rho)
        if b is None:
            # release: zero the inductor-current common mode (minimum-energy
            # consistent reinitialization for the floating network)
            rows[0] = states[rows_d - 1]
            rows[0, nb:] -= rows[0, nb:].mean()
        else:
            rows[0] = -z.imag   # x_n = y_n + Im(z rho^n), y homogeneous
        steps = _phase(p, rows, n_steps, stride, pool)
        del pool[1:]   # the probe's left-hand side is all the phase still needs
        if b is not None:
            # a row block at a time, so no rows-by-dimension complex array;
            # z first: the reversed product rounds differently in the last bit
            for j in range(0, len(rows), BLOCK):
                rows[j:j + BLOCK] += np.imag(z * rho ** steps[j:j + BLOCK, None])
        probes = _probe_rows(steps, n_steps, stride)
        t = (first + steps[probes]) * dt
        err = _probe_local_error(a, b, p, g, drive, rows[probes].T, t, dt, pool[0])
        bad = np.flatnonzero(err > LOCAL_ERROR_TOL)
        if len(bad):
            i = bad[0]
            raise StepRejected(
                f"{name}-phase local error {err[i]:.3e} at t={t[i]:.6g}; reduce dt")
        recorded.append(first + steps)

    times = np.concatenate(recorded) * dt
    caps, currents = states[:, :nb], states[:, nb:]
    energy = weight * (
        0.5 * np.einsum("ij,ij,j->i", caps, caps, branch_caps)
        + 0.5 * setup.params.l * np.einsum("ij,ij->i", currents, currents))
    # from the pre-projection sample at the switch instant on
    post = times >= switch_time - 0.5 * dt
    e_post = energy[post]
    tol = 1e-9 * max(float(e_post[0]), 1e-300)
    if np.any(np.diff(e_post) > tol):
        worst = float(np.diff(e_post).max())
        raise StepRejected(f"stored energy grew by {worst:.3e} after release; reduce dt")
    return TransientTrace(
        times=times, energy=energy, switch_time=switch_time, metadata=setup,
        _states=states, _n_branches=nb, _node_src=node_src, _rows_driven=rows_d, **maps,
    )


def ground_current_profile(trace: TransientTrace,
                           window: tuple[float, float]) -> np.ndarray:
    """Per-node RMS inductor current over the window, normalized to sum 1.

    The RMS is taken once per stepped node, over the window's rows of the
    state's current block, and then gathered onto the full chain's nodes.
    np.einsum sums the squares in the order of one axis-0 reduction (so
    bitwise as that) and builds no window-size array of them.
    """
    t0, t1 = window
    setup = trace.metadata
    earliest = trace.switch_time + SETTLE_PERIODS * setup.drive_period
    if t0 < earliest - 1e-12:
        raise WindowOutOfRange(
            f"window start {t0:.6g} inside the switch transient; "
            f"earliest usable time is {earliest:.6g}"
        )
    if t1 <= t0 or t1 > trace.times[-1] + 1e-12:
        raise WindowOutOfRange(f"window ({t0:.6g}, {t1:.6g}) outside the trace")
    # the times never decrease, so the window is one run of rows
    lo = np.searchsorted(trace.times, t0, side="left")
    hi = np.searchsorted(trace.times, t1, side="right")
    if hi - lo < 8:
        raise WindowOutOfRange("window covers fewer than 8 output samples")
    currents = trace._states[lo:hi, trace._n_branches:]
    squares = np.einsum("ij,ij->j", currents, currents)
    rms = np.sqrt(squares / len(currents))[trace._node_src]
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


def _lmpar(r: np.ndarray, diag: np.ndarray, qtb: np.ndarray, delta: float,
           par: float) -> tuple[float, np.ndarray]:
    """MINPACK lmpar: the damping par >= 0 and the x minimizing
    |R x - qtb|^2 + par |diag x|^2 with |diag x| within 10% of delta, or the
    Gauss-Newton x (par = 0) when that lies inside 1.1 delta.  Moré's
    safeguarded Newton iteration on par, at most 10 steps."""
    n = len(qtb)
    nonzero = np.diag(r) != 0.0
    nsing = n if nonzero.all() else int(np.argmin(nonzero))
    x = np.zeros(n)
    x[:nsing] = np.linalg.solve(r[:nsing, :nsing], qtb[:nsing])
    dxnorm = float(np.linalg.norm(diag * x))
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, x
    parl = 0.0
    if nsing == n:
        w = np.linalg.solve(r.T, diag * (diag * x / dxnorm))
        parl = fp / delta / float(w @ w)
    gnorm = float(np.linalg.norm(r.T @ qtb / diag))
    paru = gnorm / delta
    if paru == 0.0:
        paru = DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    # [R qtb; sqrt(par) diag 0] reduced to [S c; 0 *]: S^T S = R^T R + par diag^2
    damped = np.zeros((2 * n, n + 1))
    damped[:n, :n], damped[:n, n] = r, qtb
    for it in range(1, 11):
        if par == 0.0:
            par = max(DWARF, 0.001 * paru)
        damped[n:, :n] = np.diag(np.sqrt(par) * diag)
        sc = np.linalg.qr(damped, mode="r")
        x = np.linalg.solve(sc[:n, :n], sc[:n, n])
        dxnorm = float(np.linalg.norm(diag * x))
        previous, fp = fp, dxnorm - delta
        if (abs(fp) <= 0.1 * delta or it == 10
                or (parl == 0.0 and fp <= previous < 0.0)):
            break
        w = np.linalg.solve(sc[:n, :n].T, diag * (diag * x / dxnorm))
        parc = fp / delta / float(w @ w)
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, x


def _lmder(evaluate, x: np.ndarray) -> tuple[np.ndarray, float, bool] | None:
    """Minimize |r(x)| by MINPACK lmder (Moré, LNM 630, 1978): the
    trust-region Levenberg-Marquardt method with the variables scaled by the
    running maximum of the Jacobian's column norms.

    evaluate(x) returns the residuals at x and a callable that writes the
    Jacobian there into its (len(r), len(x)) argument, called only at
    accepted points.  Returns the last accepted x, its residual norm and
    whether a tolerance test stopped the iteration (False: FIT_MAX_NFEV
    evaluations ran out), or None when the residuals at the start are not
    finite.  A trial point whose residuals are not finite counts as an
    infinite residual norm: the step is rejected and the trust radius falls
    to at most a tenth of its value.  The QR factors are unpivoted, so the
    last digits differ from MINPACK's."""
    n = len(x)
    res, jacobian = evaluate(x)
    fnorm = float(np.linalg.norm(res))
    if not np.isfinite(fnorm):
        return None
    # [J r], column-major as LAPACK takes it
    jr = np.empty((len(res), n + 1), order="F")
    nfev, par, diag = 1, 0.0, None
    while True:
        jacobian(jr[:, :n])
        jr[:, n] = res
        # one QR of [J r] yields R and Q^T r without forming Q; R's columns
        # have J's column norms
        rq = np.linalg.qr(jr, mode="r")
        r, qtf = rq[:n, :n], rq[:n, n]
        colnorm = np.linalg.norm(r, axis=0)
        first = diag is None   # no step accepted yet
        if first:
            diag = np.where(colnorm == 0.0, 1.0, colnorm)
            xnorm = float(np.linalg.norm(diag * x))
            delta = LM_FACTOR * xnorm or LM_FACTOR
        scaled = colnorm != 0.0
        gnorm = 0.0 if fnorm == 0.0 else float(np.max(
            np.abs(r.T @ qtf)[scaled] / fnorm / colnorm[scaled], initial=0.0))
        if gnorm <= FIT_TOL:
            return x, fnorm, True
        diag = np.maximum(diag, colnorm)
        while True:
            par, step = _lmpar(r, diag, qtf, delta, par)
            step = -step
            pnorm = float(np.linalg.norm(diag * step))
            if first:
                delta = min(delta, pnorm)
            trial = x + step
            res1, jacobian1 = evaluate(trial)
            nfev += 1
            fnorm1 = float(np.linalg.norm(res1))
            if not np.isfinite(fnorm1):
                fnorm1 = np.inf
            actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
            temp1 = float(np.linalg.norm(r @ step)) / fnorm
            temp2 = np.sqrt(par) * pnorm / fnorm
            prered = temp1 ** 2 + temp2 ** 2 / 0.5
            dirder = -(temp1 ** 2 + temp2 ** 2)
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0.0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par /= temp
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par *= 0.5
            accepted = ratio >= 1e-4
            if accepted:
                x, res, jacobian, fnorm = trial, res1, jacobian1, fnorm1
                xnorm = float(np.linalg.norm(diag * x))
            if ((abs(actred) <= FIT_TOL and prered <= FIT_TOL and 0.5 * ratio <= 1.0)
                    or delta <= FIT_TOL * xnorm):
                return x, fnorm, True
            if nfev >= FIT_MAX_NFEV:
                return x, fnorm, False
            if accepted:
                break


def fit_damped_oscillation(times: np.ndarray, series: np.ndarray,
                           t0: float) -> DampedFit:
    """Least-squares fit of A exp(-wi (t-t0)) cos(wr (t-t0) + phi).

    Initial guesses come from the signal itself: decay from a log-linear fit
    of the peak envelope, frequency from the mean zero-crossing spacing.
    From there Levenberg-Marquardt (_lmder, a numpy port of MINPACK lmder),
    with the analytic Jacobian and every tolerance at roundoff, converges to
    a stationary point of the summed squared residual: the local minimum in
    the basin of that data-derived guess, not necessarily the global one.
    Both signs of the start phase are tried and the lower cost kept; a
    start whose residuals are not finite is passed over.  A beating
    multi-mode ringdown has several such minima and a flat cost around each;
    the fit then summarizes the signal rather than isolating a mode, which
    rms_residual (residual RMS over signal RMS) shows.
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

    def evaluate(p):
        a, wr, wi, ph = p
        env = np.exp(-wi * t)
        arg = wr * t + ph
        cos = np.cos(arg)

        def jacobian(out):
            sin = np.sin(arg)
            at_env = -a * t * env
            np.multiply(env, cos, out=out[:, 0])
            np.multiply(at_env, sin, out=out[:, 1])
            np.multiply(at_env, cos, out=out[:, 2])
            np.multiply(-a * env, sin, out=out[:, 3])
        return a * env * cos - s, jacobian

    best = None
    for ph_try in (phase0, -phase0):
        found = _lmder(evaluate, np.array([a0, omega_r0, omega_i0, ph_try]))
        if found is not None and (best is None or found[1] < best[1]):
            best = found
    if best is None or not best[2]:
        raise FitDiverged("least-squares refinement did not converge")
    (a, wr, wi, ph), residual_norm, _ = best
    if a < 0:
        a, ph = -a, ph + np.pi
    if wr < 0:
        wr, ph = -wr, -ph
    ph = float((ph + np.pi) % (2.0 * np.pi) - np.pi)
    rms = residual_norm / float(np.linalg.norm(s))
    if not wi > 0.0:
        raise FitDiverged(f"fitted decay {wi:.3e} is not positive")
    return DampedFit(amplitude=float(a), omega_r=float(wr), omega_i=float(wi),
                     phase=ph, rms_residual=rms)
