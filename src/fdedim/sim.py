"""Trajectory integration for the two model classes, plus inequality checks.

Both systems are delay equations integrated by the method of steps.  Each
model splits as y'(t) = L(t) y(t) + g(t), where only the forcing g reads
the past, at positive lags.  Within a block of floor(min lag / dt) steps
every delayed read lands in steps already resolved (or in the initial
history), so one array call gives the forcing at all of the block's stage
times, and only y_{k+1} = R y_k + c_k stays sequential.  The time step dt
divides the history-grid spacing.  The integrator is classical RK4;
off-step delayed values come from cubic Hermite interpolation of the
stored (state, derivative) pairs, which preserves 4th order.

Model classes:
  * scalar retarded reaction-diffusion on (0, pi) with Dirichlet walls,
    reduced to sine-modal ODEs  y_n' = -(n^2+a) y_n - b y_n(t-r) + fhat_n
  * finite-dimensional retarded equations with discrete delays, an optional
    distributed kernel, and a pointwise delayed nonlinearity.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import GridSpec, HistorySegment, interpolate, open_path_or_buf
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
class DichotomyInputs:
    """User-supplied dichotomy data for the abstract retarded system."""

    K0: float
    gamma: float
    beta: float
    K: float
    m: int

    def __post_init__(self):
        if not (self.K0 > 0 and self.K > 0):
            raise ConfigError("need K0 > 0 and K > 0")
        if not self.gamma > 0:
            raise ConfigError("need gamma > 0")
        if not self.beta < -self.gamma:
            raise ConfigError(f"need beta < -gamma, got beta={self.beta}")
        if self.m < 1:
            raise ConfigError("projection dimension m must be >= 1")


@dataclass(frozen=True)
class RFDEParams:
    """Finite-dimensional retarded equation with discrete delays, an
    optional distributed kernel A(t, theta), and a delayed nonlinearity."""

    matrices: tuple          # tuple of (n, n) arrays
    delays: tuple            # omega_k in [0, r], strictly increasing
    r: float
    kernel: object = None    # callable (t, theta) -> (n, n) array, or None
    nonlinearity: NonlinearitySpec = NonlinearitySpec()
    dichotomy: DichotomyInputs | None = None

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

    def to_csv(self, path_or_buf, extra_columns: dict | None = None) -> None:
        """Rows: time, segment sup-norm, leading state coordinates."""
        lead = min(4, self.grid.value_dim)
        extra = extra_columns or {}
        with open_path_or_buf(path_or_buf, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["time", "sup_norm"]
                       + [f"y{k + 1}" for k in range(lead)]
                       + list(extra))
            ts = self.sample_times()
            sn = self.norms()
            rows = self.states[self.grid.num_nodes - 1:]
            for k, (t, nn, row) in enumerate(zip(ts, sn, rows)):
                w.writerow([repr(float(t)), repr(float(nn))]
                           + [repr(float(x)) for x in row[:lead]]
                           + [repr(float(col[k])) for col in extra.values()])


# ---------------------------------------------------------------------------
# Core integrator
# ---------------------------------------------------------------------------

def _check_steps(r: float, num_nodes: int, dt: float) -> tuple[int, int]:
    """dt must divide the history spacing h = r/(num_nodes-1) exactly."""
    h = r / (num_nodes - 1)
    k = h / dt
    ki = round(k)
    if ki < 1 or abs(k - ki) > 1e-9 * ki:
        raise ConfigError(
            f"dt={dt} must divide the history spacing {h} exactly")
    return ki, num_nodes - 1


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
    start, midpoint and end.  The step is affine in (y, g): with y the
    identity and g = 0 it returns the step matrix R, with y = 0 the
    forcing term c, so that y_{k+1} = R y_k + c_k.  Arrays broadcast as
    matmul stacks: L (..., d, d), y and g (..., d, k)."""
    k1 = L1 @ y + g1
    k2 = L2 @ (y + h / 2 * k1) + g2
    k3 = L2 @ (y + h / 2 * k2) + g2
    k4 = L3 @ (y + h * k3) + g3
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _hermite(ys, dys, dt, taus):
    """Cubic Hermite values at times taus > 0 from the stored (state,
    derivative) pairs at multiples of dt; within 1e-10 steps of a stored
    time, the stored state itself."""
    x = taus / dt
    i = np.floor(x).astype(np.intp)
    s = x - i
    up = s > 1.0 - 1e-10
    i = i + up
    s = np.where(up | (s < 1e-10), 0.0, s)[:, None]
    j = np.minimum(i + 1, len(ys) - 1)
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return (h00 * ys[i] + h10 * dt * dys[i]
            + h01 * ys[j] + h11 * dt * dys[j])


def _history(phi, grid: GridSpec):
    """(initial segment, theta-array -> values) for a HistorySegment or a
    callable theta -> value vector on [-r, 0]."""
    if not callable(phi):
        if phi.grid != grid:
            raise ShapeError("initial history grid mismatch")
        return phi, lambda th: interpolate(phi, th)
    d = grid.value_dim

    def values(th):
        # one call per distinct theta: the callable need not take arrays
        uniq, inv = np.unique(th.ravel(), return_inverse=True)
        rows = np.array([np.broadcast_to(np.asarray(phi(float(u)), dtype=float),
                                         (d,)) for u in uniq])
        return rows[inv].reshape(th.shape + (d,))

    return HistorySegment.from_function(grid, phi), values


def _integrate(split: _Split, phi, grid: GridSpec, T: float,
               dt: float) -> Trajectory:
    """Classical RK4 by the method of steps, one delay block at a time.

    A block is nb = floor(min lag / dt) steps (the whole run when nothing
    is delayed), so every delayed read of a block lands in steps already
    resolved or in the initial history: the forcing of all its stage times
    comes from one call, through one vectorized lookup (cubic Hermite on
    the stored (y, y') pairs for t > 0, the history interpolant for
    t <= 0).  What stays sequential is y_{k+1} = R_k y_k + c_k.
    phi: HistorySegment or callable theta -> value vector on [-r, 0].
    """
    r, d = grid.delay_r, grid.value_dim
    steps_per_node, _ = _check_steps(r, grid.num_nodes, dt)
    n_steps = round(T / dt)
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, T) or n_steps < 1:
        raise ConfigError(f"T={T} must be a positive multiple of dt={dt}")
    seg, history = _history(phi, grid)

    ys = np.zeros((n_steps + 1, d))
    dys = np.zeros((n_steps + 1, d))
    ys[0] = seg.values[-1]

    def lookup(taus):
        out = np.empty(taus.shape + (d,))
        past = taus <= 1e-12
        if past.any():
            out[past] = history(np.clip(taus[past], -r, 0.0))
        if not past.all():
            out[~past] = _hermite(ys, dys, dt, taus[~past])
        return out

    # step k runs from node_t[k] through mid_t[k] to node_t[k + 1]
    steps = np.arange(n_steps) * dt
    node_t = np.concatenate(([0.0], steps + dt))
    mid_t = steps + dt / 2
    nb = n_steps
    if split.lags:
        nb = max(1, min(nb, math.floor(min(split.lags) / dt + 1e-12)))
    L = split.linear
    eye = np.eye(d)
    if not callable(L):
        # the RK4 polynomial of dt L, built once
        R_const = _rk4_affine(dt, L, L, L, eye, 0.0, 0.0, 0.0)
    for k0 in range(0, n_steps, nb):
        m = min(nb, n_steps - k0)
        stage_t = np.concatenate((node_t[k0:k0 + m + 1], mid_t[k0:k0 + m]))
        g = split.forcing(stage_t, lookup)[..., None]
        g_node, g_mid = g[:m + 1], g[m + 1:]
        if callable(L):
            Lt = L(stage_t)
            L_node, L_mid = Lt[:m + 1], Lt[m + 1:]
            L_start, L_end = L_node[:-1], L_node[1:]
            R = _rk4_affine(dt, L_start, L_mid, L_end, eye, 0.0, 0.0, 0.0)
        else:
            L_node = L_mid = L_start = L_end = L
            R = np.broadcast_to(R_const, (m, d, d))
        c = _rk4_affine(dt, L_start, L_mid, L_end, np.zeros((m, d, 1)),
                        g_node[:-1], g_mid, g_node[1:])[..., 0]
        y = ys[k0]
        # past a blow-up the block may overflow; it is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(m):
                y = R[j] @ y + c[j]
                ys[k0 + 1 + j] = y
        blk = ys[k0 + 1:k0 + m + 1]
        bad = ~np.isfinite(blk).all(axis=1) | (np.abs(blk).max(axis=1)
                                                > BLOWUP_NORM)
        if bad.any():
            k = k0 + int(np.argmax(bad))
            raise IntegrationError(f"blow-up at t={k * dt + dt:.6g}")
        dys[k0:k0 + m + 1] = (L_node @ ys[k0:k0 + m + 1, :, None]
                              + g_node)[..., 0]

    # assemble trajectory at history-grid spacing, prepending the history
    n_out = n_steps // steps_per_node
    times = np.concatenate([grid.nodes()[:-1],
                            np.arange(n_out + 1) * grid.spacing])
    states = np.concatenate([seg.values[:-1], ys[::steps_per_node]])
    return Trajectory(grid, times, states)


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
            out = out + fac * (nl(yd @ S.T) @ S)
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
        out = np.zeros((len(times), d))
        for A, w in delayed:
            out = out + lookup(times - w) @ A.T
        if kern is not None:
            K = w_past * kernel_at(times, past)        # (times, nodes, d, d)
            u = lookup(times[:, None] + past)          # (times, nodes, d)
            out = out + (K @ u[..., None]).sum(axis=1)[..., 0]
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
    pairs = intervals // 2
    for p in range(pairs):
        i = 2 * p
        w[i] += 1.0 / 3.0
        w[i + 1] += 4.0 / 3.0
        w[i + 2] += 1.0 / 3.0
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


def simulate_rde(params: RDEParams, phi, T: float, dt: float,
                 grid: GridSpec | None = None) -> Trajectory:
    """Integrate the modal reaction-diffusion system from history phi."""
    if grid is None:
        if not isinstance(phi, HistorySegment):
            raise ConfigError("grid required when phi is a callable")
        grid = phi.grid
    if grid.value_dim != params.num_modes or grid.value_norm != "modal":
        raise ShapeError("grid must be modal with value_dim == num_modes")
    if abs(grid.delay_r - params.r) > 1e-12 * params.r:
        raise ShapeError("grid delay must equal params.r")
    return _integrate(_rde_split(params), phi, grid, T, dt)


def simulate_rfde(params: RFDEParams, phi, sigma: float, T: float, dt: float,
                  grid: GridSpec | None = None) -> Trajectory:
    """Integrate the finite-dimensional retarded system from time sigma.

    Output times are relative to sigma (the trajectory starts at 0); the
    kernel and any explicit time dependence see the absolute time sigma + t.
    """
    if grid is None:
        if not isinstance(phi, HistorySegment):
            raise ConfigError("grid required when phi is a callable")
        grid = phi.grid
    if grid.value_dim != params.dim or grid.value_norm != "euclidean":
        raise ShapeError("grid must be euclidean with value_dim == system dim")
    if abs(grid.delay_r - params.r) > 1e-12 * params.r:
        raise ShapeError("grid delay must equal params.r")
    for w in params.delays:
        if w != 0.0 and w < dt - 1e-12:
            raise ConfigError(f"delay {w} must be 0 or >= dt")
    return _integrate(_rfde_split(params, grid, sigma), phi, grid, T, dt)


def linear_semigroup(params, phi, T: float, dt: float,
                     grid: GridSpec | None = None, sigma: float = 0.0):
    """The solution semigroup with the nonlinearity switched off."""
    from dataclasses import replace
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
    (segment, "P"|"Q") -> segment supplying the projection pair, called
    once per sample.
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
        pq = [(decomp(h, "P").values, decomp(h, "Q").values)
              for h in (HistorySegment(grid, wk) for wk in w)]
        p, q = (np.array(part) for part in zip(*pq))
    else:
        if decomp.grid != grid:
            raise ShapeError("segment grid incompatible with decomposition")
        flat = w.reshape(len(w), -1)
        p = ((flat @ decomp.functionals.T) @ decomp.basis).reshape(w.shape)
        q = w - p
    pn = grid.value_space_norm(p).max(axis=1)
    qn = grid.value_space_norm(q).max(axis=1)
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
