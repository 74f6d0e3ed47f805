"""Trajectory integration for the two model classes, plus inequality checks.

Both systems are delay equations integrated by the method of steps.  Each
model splits as y'(t) = L(t) y(t) + g(t), where only the forcing g reads
the past, at positive lags.  Within a block of floor(min lag / dt) steps
(at most 64) every delayed read lands in steps already resolved (or in the
initial history), so one array call gives the forcing at all of the
block's stage times, and one product with the block's transfer operator,
the discrete solution operator of its RK4 steps, gives all of its states.
The operator of a constant L is built once and kept across calls.  The
time step dt divides the history-grid spacing.  The integrator is
classical RK4; off-step delayed values come from cubic Hermite
interpolation of the stored (state, derivative) pairs, which preserves
4th order.  A list of
histories on one grid integrates as one batch: the state carries a batch
axis, and every member is bitwise equal to its own single run.

Model classes:
  * scalar retarded reaction-diffusion on (0, pi) with Dirichlet walls,
    reduced to sine-modal ODEs  y_n' = -(n^2+a) y_n - b y_n(t-r) + fhat_n
  * finite-dimensional retarded equations with discrete delays, an optional
    distributed kernel, and a pointwise delayed nonlinearity.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (GridSpec, HistorySegment, apply_plan, frozen_plan,
                   hermite_basis, interpolation_plan, node_table, write_csv)
from .errors import (ConfigError, DegeneratePairError, IntegrationError,
                     ShapeError)

BLOWUP_NORM = 1e6


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlinearitySpec:
    """Pointwise nonlinearity family: zero, kappa*tanh(u), or
    kappa*tanh(u) + offset (affine-plus-saturation)."""

    kind: str = "zero"
    kappa: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "tanh", "affine_tanh"):
            raise ConfigError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == "zero" and (self.kappa or self.offset):
            raise ConfigError("zero nonlinearity takes no parameters")
        if self.kind == "tanh" and self.offset:
            raise ConfigError("tanh nonlinearity has no offset; use affine_tanh")
        if self.kappa < 0:
            raise ConfigError("kappa must be nonnegative")

    @property
    def L_f(self) -> float:
        """Lipschitz constant (|tanh'| <= 1)."""
        return 0.0 if self.kind == "zero" else self.kappa

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(u)
        out = self.kappa * np.tanh(u)
        if self.kind == "affine_tanh":
            out = out + self.offset
        return out


# ---------------------------------------------------------------------------
# Parameter blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RDEParams:
    """Scalar retarded reaction-diffusion equation in sine-modal form."""

    a: float
    b: float
    r: float
    num_modes: int
    nonlinearity: NonlinearitySpec = NonlinearitySpec()

    def __post_init__(self):
        # b = 0 (no delayed linear term) is allowed for diagnostic runs
        if not (self.a > 0 and self.b >= 0):
            raise ConfigError("need a > 0 and b >= 0")
        if not self.b - self.a < 1:
            raise ConfigError(f"standing assumption b - a < 1 violated "
                              f"({self.b} - {self.a} >= 1)")
        if not self.r > 0:
            raise ConfigError("delay r must be positive")
        if self.num_modes < 1:
            raise ConfigError("num_modes must be >= 1")

    @property
    def L_f(self) -> float:
        return self.nonlinearity.L_f

    def sine_matrix(self) -> np.ndarray:
        """Synthesis matrix S_{jn} = sin(n x_j) on M = 2N+1 interior points."""
        N = self.num_modes
        M = 2 * N + 1
        j = np.arange(1, M + 1)
        n = np.arange(1, N + 1)
        return np.sin(np.outer(j * math.pi / (M + 1), n))

    def c1(self) -> float:
        """Modal-space norm of f(0) (the constant c1 of the envelope)."""
        if self.nonlinearity.is_zero:
            return 0.0
        S = self.sine_matrix()
        M = S.shape[0]
        w = self.nonlinearity(np.zeros(M))
        fhat = (2.0 / (M + 1)) * (S.T @ w)
        from .core import MODAL_SCALE
        return MODAL_SCALE * float(np.linalg.norm(fhat))


@dataclass(frozen=True)
class RFDEParams:
    """Finite-dimensional retarded equation with discrete delays, an
    optional distributed kernel A(t, theta), and a delayed nonlinearity."""

    matrices: tuple          # tuple of (n, n) arrays
    delays: tuple            # omega_k in [0, r], strictly increasing
    r: float
    kernel: object = None    # callable (t, theta) -> (n, n) array, or None
    nonlinearity: NonlinearitySpec = NonlinearitySpec()

    def __post_init__(self):
        mats = tuple(np.asarray(A, dtype=float) for A in self.matrices)
        if not mats:
            raise ConfigError("need at least one delay matrix")
        n = mats[0].shape[0]
        for A in mats:
            if A.shape != (n, n):
                raise ShapeError("all matrices must be square of equal size")
        for A in mats:
            A.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        oms = tuple(float(w) for w in self.delays)
        if len(oms) != len(mats):
            raise ConfigError("need one delay per matrix")
        if any(w2 <= w1 for w1, w2 in zip(oms, oms[1:])):
            raise ConfigError("delays must be strictly increasing")
        if not (oms[0] >= 0 and oms[-1] <= self.r):
            raise ConfigError("delays must lie in [0, r]")
        if not self.r > 0:
            raise ConfigError("delay r must be positive")
        object.__setattr__(self, "delays", oms)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def L_f(self) -> float:
        return self.nonlinearity.L_f


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """States sampled every history-grid spacing, with the initial history
    prepended so any sample time yields a full HistorySegment."""

    grid: GridSpec
    times: np.ndarray = field(repr=False)   # from -r to T, step = grid.spacing
    states: np.ndarray = field(repr=False)  # (len(times), value_dim)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if s.shape != (len(t), self.grid.value_dim):
            raise ShapeError("states shape mismatch")
        t.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    def _index(self, t: float) -> int:
        h = self.grid.spacing
        i = round((t - self.times[0]) / h)
        if not (0 <= i < len(self.times)) or abs(
                self.times[i] - t) > 1e-9 * max(1.0, abs(t)) + 1e-12:
            raise ConfigError(f"time {t} is not a sample time")
        return int(i)

    def sample_times(self) -> np.ndarray:
        """Times t >= 0 at which a full history segment is available."""
        return self.times[self.grid.num_nodes - 1:]

    def segment(self, t: float) -> HistorySegment:
        i = self._index(t)
        n = self.grid.num_nodes
        if i < n - 1:
            raise ConfigError(f"no full history before t=0 (asked {t})")
        return HistorySegment(self.grid, self.states[i - n + 1:i + 1])

    def norms(self) -> np.ndarray:
        """Segment sup-norm at each sample time >= 0."""
        node_norms = self.grid.value_space_norm(self.states)
        return sliding_window_view(node_norms, self.grid.num_nodes).max(axis=1)

    def to_csv(self, path_or_buf) -> None:
        """Rows: time, segment sup-norm, leading state coordinates (at most
        4), one per sample time >= 0, written by `core.write_csv`."""
        lead = min(4, self.grid.value_dim)
        write_csv(path_or_buf,
                  ["time", "sup_norm"] + [f"y{k + 1}" for k in range(lead)],
                  [self.sample_times(), self.norms(),
                   *self.states[self.grid.num_nodes - 1:, :lead].T])


# ---------------------------------------------------------------------------
# Core integrator
# ---------------------------------------------------------------------------

def _check_steps(r: float, num_nodes: int, dt: float) -> int:
    """Steps per history node: dt must divide the history spacing
    h = r/(num_nodes-1) exactly."""
    h = r / (num_nodes - 1)
    k = h / dt
    ki = round(k)
    if ki < 1 or abs(k - ki) > 1e-9 * ki:
        raise ConfigError(
            f"dt={dt} must divide the history spacing {h} exactly")
    return ki


@dataclass(frozen=True)
class _Split:
    """A model as y'(t) = L(t) y(t) + g(t), where only g reads the past.

    linear: the instantaneous part L, an (d, d) array, or for a
        time-dependent kernel a callable times -> (len(times), d, d);
    forcing: g(times, lookup) -> (len(times), d), reading past states only
        through lookup(taus) at taus = t - lag;
    lags: every positive lag at which g reads.
    """

    linear: object
    forcing: object
    lags: tuple


def _rk4_affine(h, L1, L2, L3, y, g1, g2, g3):
    """One classical RK4 step of y' = L y + g with (L, g) at the step's
    start, midpoint and end.  The step is linear in (y, g1, g2, g3), so
    applied to their identity it gives the step's matrices
    (`_step_operator`).  Arrays broadcast as matmul stacks: L (..., d, d),
    y and g (..., d, k)."""
    k1 = L1 @ y + g1
    k2 = L2 @ (y + h / 2 * k1) + g2
    k3 = L2 @ (y + h / 2 * k2) + g2
    k4 = L3 @ (y + h * k3) + g3
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


# A block solves at most _BLOCK_STEPS steps, over at most _BLOCK_WIDTH state
# values, in one product with its transfer operator (~600 KB at d = 3)
_BLOCK_STEPS = 64
_BLOCK_WIDTH = 192


def _step_operator(h, L1, L2, L3):
    """[R | W1 | W2 | W3], (..., d, 4d): one RK4 step of y' = L y + g as
    y_{k+1} = R y_k + W1 g_k + W2 g_{k+1/2} + W3 g_{k+1}, the step applied
    to the identity of (y, g1, g2, g3)."""
    d = L1.shape[-1]
    return _rk4_affine(h, L1, L2, L3, *(np.eye(d, 4 * d, k * d)
                                        for k in range(4)))


def _transfer(S):
    """The transfer operator TG of m steps with step operators S (m, d, 4d),
    for row vectors: [y_0, g_0, ..., g_m, g_1/2, ..., g_{m-1/2}] @ TG =
    [y_1, ..., y_m], the forcing at the block's stage times in their
    node-then-midpoint order.  TG is ((2m + 2) d, m d).  Column block j
    holds, transposed, the map from each input to y_{j+1}: R_j...R_0 from
    y_0, R_j...R_{i+1} times step i's weight from the forcing of step
    i <= j, and zero from the forcing of later steps.  It is the recurrence
    run once on the identity.
    """
    m, d = S.shape[0], S.shape[1]
    R, W1, W2, W3 = (S[..., k * d:(k + 1) * d].swapaxes(-1, -2)
                     for k in range(4))
    TG = np.empty(((2 * m + 2) * d, m * d))
    Y = np.eye((2 * m + 2) * d, d)
    node = d                      # first row of g_0; g_j starts at node + j d
    mid = (m + 2) * d             # first row of g_1/2
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m):
            Y = Y @ R[j]
            Y[node + j * d:node + (j + 1) * d] += W1[j]
            Y[mid + j * d:mid + (j + 1) * d] += W2[j]
            Y[node + (j + 1) * d:node + (j + 2) * d] += W3[j]
            TG[:, j * d:(j + 1) * d] = Y
    return TG


@functools.lru_cache(maxsize=16)
def _constant_transfer(L_bytes: bytes, d: int, dt: float, m: int):
    """`_transfer` of m RK4 steps of y' = L y + g for a constant (d, d) L,
    given as its float64 bytes; kept across calls, read-only."""
    L = np.frombuffer(L_bytes).reshape(d, d)
    S = _step_operator(dt, L, L, L)
    TG = _transfer(np.broadcast_to(S, (m, d, 4 * d)))
    TG.setflags(write=False)
    return TG


def _rowwise(x, M):
    """x @ M over the last axis of x as one 2-D product, whose rows round
    the same whatever the batch size (a stack of (B, d) products would
    not: B = 1 takes the matrix-vector kernel)."""
    return (x.reshape(-1, x.shape[-1]) @ M).reshape(x.shape[:-1]
                                                   + M.shape[1:])


def _hermite_plan(taus, dt, n):
    """(indices, weights) of the cubic Hermite values at times taus >= 0,
    read from the table [ys; dys] of the stored (state, derivative) pairs
    at n multiples of dt: h00 y_i + h10 dt y'_i + h01 y_j + h11 dt y'_j,
    with dt folded into the derivative weights; within 1e-10 steps of a
    stored time, the stored state itself."""
    x = taus / dt
    i = np.floor(x).astype(np.intp)
    s = x - i
    up = s > 1.0 - 1e-10
    i = i + up
    s = np.where(up | (s < 1e-10), 0.0, s)
    j = np.minimum(i + 1, n - 1)
    h00, h10, h01, h11 = hermite_basis(s)
    return (np.stack((i, n + i, j, n + j)),
            np.stack((h00, h10 * dt, h01, h11 * dt)))


@functools.lru_cache(maxsize=256)
def _lookup_plan(taus_bytes: bytes, dt: float, n: int, r: float,
                 num_nodes: int):
    """(plan, past) for delayed reads at the float64 times taus_bytes from
    an `_integrate` store: n stored states, n derivatives, then the
    histories' `node_table` on num_nodes nodes over [-r, 0].  A time
    t >= 0 reads the stored pairs by cubic Hermite; t < 0 reads the history
    interpolant at max(t, -r); past marks the latter.  Kept across calls,
    so a run repeating an earlier run's grid, dt and T builds no plan; the
    arrays are read-only.

    Hermite gives the stored y_0 itself for 0 <= t < 1e-10 dt, the value
    the history interpolant gives at theta = 0, so a block that starts
    exactly one lag after t = 0 reads no history.
    """
    taus = np.frombuffer(taus_bytes)
    past = taus < 0.0
    idx = np.empty((4, len(taus)), np.intp)
    coef = np.empty((4, len(taus)))
    start = np.full(len(taus), -0.0)
    if past.any():
        hist = interpolation_plan(r, num_nodes,
                                  np.clip(taus[past], -r, 0.0).tobytes())
        idx[:, past] = hist.idx + 2 * n
        coef[:, past] = hist.coef[..., 0]
        start[past] = hist.start[:, 0]
    idx[:, ~past], coef[:, ~past] = _hermite_plan(taus[~past], dt, n)
    past.setflags(write=False)
    return frozen_plan(idx, coef, start), past


def _history(phis, grid: GridSpec):
    """(initial values (nodes, B, d), [(k, callable)]) for B histories,
    each a HistorySegment or a callable theta -> value vector on [-r, 0];
    a callable is sampled at the nodes here, and `_read_callables` reads it
    at the delayed thetas themselves."""
    segs = []
    for phi in phis:
        if callable(phi):
            segs.append(HistorySegment.from_function(grid, phi))
        elif phi.grid != grid:
            raise ShapeError("initial history grid mismatch")
        else:
            segs.append(phi)
    init = np.stack([s.values for s in segs], axis=1)
    return init, [(k, phi) for k, phi in enumerate(phis) if callable(phi)]


def _read_callables(calls, th, out, rows_at):
    """Overwrite member k of the rows rows_at of out (reads, B, d) with
    callable k at the thetas th, one call per distinct theta: the callable
    need not take arrays."""
    uniq, inv = np.unique(th, return_inverse=True)
    for k, phi in calls:
        rows = np.array([np.broadcast_to(
            np.asarray(phi(float(u)), dtype=float), (out.shape[-1],))
            for u in uniq])
        out[rows_at, k] = rows[inv]


def _integrate(split: _Split, phis: list, grid: GridSpec, T: float,
               dt: float) -> list[Trajectory]:
    """Classical RK4 by the method of steps, one delay block at a time,
    for a batch of B histories on one grid.

    The state is a (steps + 1, B, d) array.  A block is
    nb = floor(min lag / dt) steps, at most 64 and at most 192 / d (the
    run is cut into such chunks when nothing is delayed), so every delayed
    read of a block lands in steps already resolved or in the initial
    histories: the forcing of all its stage times, for the whole batch,
    comes from one call through one lookup.  The states, their derivatives
    and the histories' `node_table` share one store, and every delayed
    read (cubic Hermite on the stored (y, y') pairs for t >= 0, the history
    interpolant for t < 0) is a fixed linear read of it: a lookup is one
    gather and one weighted sum with the weights of its `_lookup_plan`,
    memoised on the read times, dt, the run length and the grid, so runs
    that repeat a grid, dt and T share their plans.  Callable histories
    are then read at the thetas themselves.
    Each member's states then come from one vector-matrix product of its
    row [y_0, forcing at the stage times] with the block's transfer
    operator (`_transfer`), which starts from the last state of the block
    before.  A constant L reuses the operator of `_constant_transfer`'s
    memo; a time-dependent L builds one per block.  Every member's
    trajectory is bitwise equal to its own run as a batch of one.  phis:
    list of HistorySegment or callable theta -> value vector on [-r, 0].
    """
    if not (0.0 < dt < math.inf and math.isfinite(T)):
        raise ConfigError(f"dt={dt} must be positive and finite, "
                          f"T={T} finite")
    r, n, d, B = grid.delay_r, grid.num_nodes, grid.value_dim, len(phis)
    steps_per_node = _check_steps(r, n, dt)
    n_steps = round(T / dt)
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, T) or n_steps < 1:
        raise ConfigError(f"T={T} must be a positive multiple of dt={dt}")
    init, calls = _history(phis, grid)

    # [ys; dys; node_table of the histories], ys and dys viewed (n_steps + 1,
    # B, d): the one table every delayed read gathers from
    store = np.concatenate((np.zeros((2 * (n_steps + 1), B * d)),
                            node_table(init.reshape(n, B * d))))
    ys = store[:n_steps + 1].reshape(n_steps + 1, B, d)
    dys = store[n_steps + 1:2 * (n_steps + 1)].reshape(n_steps + 1, B, d)
    ys[0] = init[-1]

    def lookup(taus):
        plan, past = _lookup_plan(taus.tobytes(), dt, n_steps + 1, r, n)
        out = apply_plan(store, plan).reshape(-1, B, d)
        if calls and past.any():
            _read_callables(calls, np.clip(taus.ravel()[past], -r, 0.0),
                            out, past)
        return out.reshape(taus.shape + (B, d))

    # step k runs from node_t[k] through mid_t[k] to node_t[k + 1]
    steps = np.arange(n_steps) * dt
    node_t = np.concatenate(([0.0], steps + dt))
    mid_t = steps + dt / 2
    nb = min(n_steps, _BLOCK_STEPS, max(1, _BLOCK_WIDTH // d))
    if split.lags:
        nb = max(1, min(nb, math.floor(min(split.lags) / dt + 1e-12)))
    L = split.linear
    for k0 in range(0, n_steps, nb):
        m = min(nb, n_steps - k0)
        stage_t = np.concatenate((node_t[k0:k0 + m + 1], mid_t[k0:k0 + m]))
        # each member's row [y_0, g at the stage times], C-contiguous: a
        # strided row would take another BLAS kernel than a single run's
        rows = np.empty((B, 2 * m + 2, d))
        rows[:, 0] = ys[k0]
        g = rows[:, 1:].transpose(1, 0, 2)          # a (stages, B, d) view
        # broadcast: a system with nothing delayed has the forcing 0.0
        g[...] = split.forcing(stage_t, lookup)
        if callable(L):
            # one (d, d) matrix per stage time, shared by the batch
            Lt = L(stage_t)
            L_node = Lt[:m + 1, None]
            TG = _transfer(_step_operator(dt, Lt[:m], Lt[m + 1:],
                                          Lt[1:m + 1]))
        else:
            L_node = L
            TG = _constant_transfer(L.tobytes(), d, dt, m)
        # one vector-matrix product per member, so every member rounds as
        # in its own single run (one (B, K) @ (K, N) matrix product would
        # not: B = 1 takes another kernel); past a blow-up the block may
        # overflow, which is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            Y = rows.reshape(B, 1, -1) @ TG
        ys[k0 + 1:k0 + m + 1] = Y.reshape(B, m, d).transpose(1, 0, 2)
        blk = ys[k0 + 1:k0 + m + 1]
        bad = ~np.isfinite(blk).all(axis=2) | (np.abs(blk).max(axis=2)
                                                > BLOWUP_NORM)
        if bad.any():
            # the earliest step, and its first member
            j, k = (int(i) for i in np.argwhere(bad)[0])
            which = f" in history {k} of {B}" if B > 1 else ""
            raise IntegrationError(
                f"blow-up at t={(k0 + j) * dt + dt:.6g}{which}")
        dys[k0:k0 + m + 1] = ((L_node @ ys[k0:k0 + m + 1, ..., None])[..., 0]
                              + g[:m + 1])

    # assemble trajectories at history-grid spacing, prepending the history
    n_out = n_steps // steps_per_node
    times = np.concatenate([grid.nodes()[:-1],
                            np.arange(n_out + 1) * grid.spacing])
    samples = ys[::steps_per_node]
    return [Trajectory(grid, times,
                       np.concatenate([init[:-1, k], samples[:, k]]))
            for k in range(B)]


# ---------------------------------------------------------------------------
# Model splits
# ---------------------------------------------------------------------------

def _rde_split(params: RDEParams) -> _Split:
    """y_n' = -(n^2+a) y_n + [-b y_n(t-r) + fhat_n(y(t-r))]."""
    N = params.num_modes
    L = np.diag(-(np.arange(1, N + 1) ** 2 + params.a)).astype(float)
    S = params.sine_matrix()
    fac = 2.0 / (S.shape[0] + 1)
    nl, b, r = params.nonlinearity, params.b, params.r

    def forcing(times, lookup):
        yd = lookup(times - r)
        out = -b * yd
        if not nl.is_zero:
            out = out + fac * _rowwise(nl(_rowwise(yd, S.T)), S)
        return out

    return _Split(L, forcing, (r,))


def _rfde_split(params: RFDEParams, grid: GridSpec, sigma: float) -> _Split:
    """Lag-0 matrices (and the kernel's theta = 0 node) form L; delayed
    matrices, the kernel's other nodes and the nonlinearity form g.  Times
    are trajectory-relative; the kernel sees the absolute time sigma + t."""
    d, r = params.dim, params.r
    nl, kern = params.nonlinearity, params.kernel
    L0 = sum((A for A, w in zip(params.matrices, params.delays) if w == 0.0),
             np.zeros((d, d)))
    delayed = [(A, w) for A, w in zip(params.matrices, params.delays)
               if w > 0.0]
    lags = [w for _, w in delayed] + ([r] if not nl.is_zero else [])
    if kern is not None:
        thetas = grid.nodes()                       # thetas[-1] == 0.0
        wts = _simpson_weights(len(thetas)) * grid.spacing
        past, w_past = thetas[:-1], wts[:-1, None, None]
        lags += list(-past)

        def kernel_at(times, ths):
            return np.array([[np.asarray(kern(sigma + t, th), dtype=float)
                              for th in ths] for t in times.tolist()])

    def forcing(times, lookup):
        out = 0.0
        for A, w in delayed:
            out = out + _rowwise(lookup(times - w), A.T)
        if kern is not None:
            # (times, nodes, 1, d, d): one kernel value for the whole batch
            K = (w_past * kernel_at(times, past))[:, :, None]
            u = lookup(times[:, None] + past)          # (times, nodes, B, d)
            Ku = (K @ u[..., None])[..., 0]
            # node by node: a reduction over the node axis would sum
            # pairwise when B * d == 1 and in order otherwise
            acc = Ku[:, 0]
            for i in range(1, Ku.shape[1]):
                acc = acc + Ku[:, i]
            out = out + acc
        if not nl.is_zero:
            out = out + nl(lookup(times - r))
        return out

    if kern is None:
        return _Split(L0, forcing, tuple(lags))
    return _Split(lambda times: L0 + wts[-1] * kernel_at(times, (0.0,))[:, 0],
                  forcing, tuple(lags))


def _simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights for n nodes; the final interval falls back
    to trapezoid when the interval count is odd."""
    if n < 2:
        raise ConfigError("quadrature needs >= 2 nodes")
    w = np.zeros(n)
    intervals = n - 1
    p = intervals // 2
    if p:
        # interior even nodes end two Simpson pairs, odd nodes are midpoints
        w[:2 * p + 1:2] = 2.0 / 3.0
        w[1:2 * p:2] = 4.0 / 3.0
        w[0] = w[2 * p] = 1.0 / 3.0
    if intervals % 2 == 1:
        w[-2] += 0.5
        w[-1] += 0.5
    return w


# ---------------------------------------------------------------------------
# Public simulators
# ---------------------------------------------------------------------------

def rde_grid(params: RDEParams, num_nodes: int) -> GridSpec:
    return GridSpec(delay_r=params.r, num_nodes=num_nodes,
                    value_dim=params.num_modes, value_norm="modal")


def _batch(phi, grid: GridSpec | None):
    """(histories, grid, single): phi as a list of initial histories, the
    grid they share, and whether phi was one history rather than a list."""
    single = not isinstance(phi, list)
    phis = [phi] if single else phi
    if not phis:
        raise ConfigError("empty list of initial histories")
    if grid is None:
        if not isinstance(phis[0], HistorySegment):
            raise ConfigError("grid required when phi is a callable")
        grid = phis[0].grid
    return phis, grid, single


def simulate_rde(params: RDEParams, phi, T: float, dt: float,
                 grid: GridSpec | None = None):
    """Integrate the modal reaction-diffusion system from history phi.

    phi is one history (HistorySegment or callable), giving a Trajectory,
    or a list of histories on one grid, integrated as one batch and giving
    a list of Trajectory, each bitwise equal to its own single run.
    """
    phis, grid, single = _batch(phi, grid)
    if grid.value_dim != params.num_modes or grid.value_norm != "modal":
        raise ShapeError("grid must be modal with value_dim == num_modes")
    if abs(grid.delay_r - params.r) > 1e-12 * params.r:
        raise ShapeError("grid delay must equal params.r")
    trajs = _integrate(_rde_split(params), phis, grid, T, dt)
    return trajs[0] if single else trajs


def simulate_rfde(params: RFDEParams, phi, sigma: float, T: float, dt: float,
                  grid: GridSpec | None = None):
    """Integrate the finite-dimensional retarded system from time sigma.

    Output times are relative to sigma (the trajectory starts at 0); the
    kernel and any explicit time dependence see the absolute time sigma + t.
    phi is one history or a list of them, as in `simulate_rde`.
    """
    phis, grid, single = _batch(phi, grid)
    if grid.value_dim != params.dim or grid.value_norm != "euclidean":
        raise ShapeError("grid must be euclidean with value_dim == system dim")
    if abs(grid.delay_r - params.r) > 1e-12 * params.r:
        raise ShapeError("grid delay must equal params.r")
    for w in params.delays:
        if w != 0.0 and w < dt - 1e-12:
            raise ConfigError(f"delay {w} must be 0 or >= dt")
    trajs = _integrate(_rfde_split(params, grid, sigma), phis, grid, T, dt)
    return trajs[0] if single else trajs


def linear_semigroup(params, phi, T: float, dt: float,
                     grid: GridSpec | None = None, sigma: float = 0.0):
    """The solution semigroup with the nonlinearity switched off; phi is
    one history or a list of them, as in `simulate_rde`."""
    stripped = replace(params, nonlinearity=NonlinearitySpec())
    if isinstance(params, RDEParams):
        return simulate_rde(stripped, phi, T, dt, grid)
    return simulate_rfde(stripped, phi, sigma, T, dt, grid)


# ---------------------------------------------------------------------------
# Inequality checks
# ---------------------------------------------------------------------------

def check_squeeze(traj1: Trajectory, traj2: Trajectory, decomp,
                  sc) -> dict:
    """Verify the two-sided squeezing inequalities along a trajectory pair.

    At each sample time t: ||P w_t|| <= M1 e^{l0 t} ||w_0|| and
    ||Q w_t|| <= (M2 e^{l1 t} + M3 e^{l0 t}) ||w_0||, where w = difference.

    decomp is either a SpectralDecomposition, applied to all samples with
    one matmul against its functionals and basis, or any callable
    (segment, "P") -> segment supplying P, called once per sample.  Either
    way Q w = w - P w.
    """
    grid = traj1.grid
    if grid != traj2.grid:
        raise ShapeError("trajectory grids differ")
    times = traj1.sample_times()
    if len(times) != len(traj2.sample_times()):
        raise ShapeError("trajectory lengths differ")
    # the difference segment at each sample time, (samples, nodes, dim)
    w = sliding_window_view(traj1.states - traj2.states, grid.num_nodes,
                            axis=0).transpose(0, 2, 1)
    w0n = float(grid.value_space_norm(w[0]).max())
    if w0n == 0.0:
        raise DegeneratePairError("zero initial separation")
    if callable(decomp):
        p = np.array([decomp(HistorySegment(grid, wk), "P").values
                      for wk in w])
    else:
        if decomp.grid != grid:
            raise ShapeError("segment grid incompatible with decomposition")
        flat = w.reshape(len(w), -1)
        p = ((flat @ decomp.functionals.T) @ decomp.basis).reshape(w.shape)
    pn = grid.value_space_norm(p).max(axis=1)
    qn = grid.value_space_norm(w - p).max(axis=1)
    # math.exp and the sequential sums below keep the right-hand sides and
    # mean slacks bitwise equal to those of a per-sample loop
    e0 = np.array([math.exp(sc.lambda0 * t) for t in times])
    e1 = np.array([math.exp(sc.lambda1 * t) for t in times])
    rhs_p = sc.M1 * e0 * w0n
    rhs_q = (sc.M2 * e1 + sc.M3 * e0) * w0n
    slacks_p = rhs_p - pn
    slacks_q = rhs_q - qn
    rows = list(zip(times.tolist(), pn.tolist(), qn.tolist(),
                    rhs_p.tolist(), rhs_q.tolist()))
    violations = []
    for k in np.flatnonzero((slacks_p < 0) | (slacks_q < 0)):
        t, pk, qk, rp, rq = rows[k]
        if slacks_p[k] < 0:
            violations.append({"time": t, "part": "P", "norm": pk,
                               "rhs": rp})
        if slacks_q[k] < 0:
            violations.append({"time": t, "part": "Q", "norm": qk,
                               "rhs": rq})
    return {
        "initial_separation": w0n,
        "num_samples": len(rows),
        "min_slack_P": float(slacks_p.min()),
        "min_slack_Q": float(slacks_q.min()),
        "mean_slack_P": sum(slacks_p.tolist()) / len(rows),
        "mean_slack_Q": sum(slacks_q.tolist()) / len(rows),
        "violations": violations,
        "passed": not violations,
        "rows": rows,
    }


def check_absorbing(traj: Trajectory, radius: float) -> dict:
    """First entry into the radius ball and positive-invariance afterwards."""
    if not radius > 0:
        raise ConfigError("radius must be positive")
    times = traj.sample_times()
    norms = traj.norms()
    inside = norms <= radius
    if not inside.any():
        return {"radius": float(radius), "entered": False,
                "entry_time": None, "exits_after_entry": False,
                "horizon": float(times[-1])}
    first = int(np.argmax(inside))
    exits = bool((~inside[first:]).any())
    return {"radius": float(radius), "entered": True,
            "entry_time": float(times[first]),
            "exits_after_entry": exits,
            "max_norm_after_entry": float(norms[first:].max()),
            "horizon": float(times[-1])}
