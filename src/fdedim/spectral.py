"""Spectral splitting of the delay phase space and the dichotomy constant.

Per decoupled sine mode the linear equation is a scalar delay ODE
y' = -c y - b y(t-r).  Each simple characteristic root lam contributes the
eigenfunction theta -> e^{lam theta} e_n; the spectral projection onto it
uses the classical bilinear pairing

    <psi, phi> = psi(0) phi(0) - b * integral_{-r}^0 psi(xi + r) phi(xi) dxi

with psi(s) = e^{-lam s}, whose value on the eigenfunction itself is the
characteristic derivative 1 - b r e^{-lam r}.  The pairing integrals are
evaluated by composite Simpson on the history grid; a Gram correction then
makes the discrete projection exactly idempotent on the sampled basis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .charroots import SpectrumTable
from .core import (GridSpec, HistorySegment, random_segment,
                   random_smooth_segment, sup_norm)
from .errors import ConfigError, DegenerateRootError, ShapeError
from .sim import RDEParams, _simpson_weights, linear_semigroup

# factor by which fit_dichotomy_K inflates the largest observed decay ratio
K_SAFETY = 1.1


@dataclass(frozen=True)
class SpectralDecomposition:
    """Discrete realization of X = (unstable span) + (stable complement)."""

    spectrum: SpectrumTable
    m: int
    grid: GridSpec
    params: RDEParams
    basis: np.ndarray = field(repr=False)       # (Lambda, nodes*dim)
    functionals: np.ndarray = field(repr=False) # (Lambda, nodes*dim), corrected
    K_fit: float | None = None
    K_margin: float | None = None

    @property
    def rho_m(self) -> float:
        return self.spectrum.rhos[self.m - 1]


def build_decomposition(spectrum: SpectrumTable, m: int, params: RDEParams,
                        grid: GridSpec) -> SpectralDecomposition:
    """Eigenbasis and dual functionals for the leading m spectral levels."""
    if m < 1 or m >= len(spectrum.rhos):
        raise ConfigError(
            f"cut m={m} needs at least m+1 spectrum levels")
    if not spectrum.groups:
        raise ConfigError("spectrum table carries no root data")
    if grid.value_dim != params.num_modes or grid.value_norm != "modal":
        raise ShapeError("grid must be modal with value_dim == num_modes")
    if abs(grid.delay_r - params.r) > 1e-12 * params.r:
        raise ShapeError("grid delay must equal params.r")
    b, r = params.b, params.r
    thetas = grid.nodes()
    qw = _simpson_weights(len(thetas)) * grid.spacing
    n_nodes, d = grid.num_nodes, grid.value_dim
    basis_rows = []
    func_rows = []
    for group in spectrum.groups[:m]:
        for root in group:
            if root.multiplicity > 1:
                raise DegenerateRootError(
                    f"repeated root {root.value} (mode {root.mode}); only "
                    "semisimple simple roots are supported")
            n_mode = root.mode
            if not 1 <= n_mode <= params.num_modes:
                raise ConfigError(
                    f"root mode {n_mode} outside modal truncation "
                    f"{params.num_modes}")
            lam = root.value
            dchar = 1.0 - b * r * np.exp(-lam * r)
            if abs(dchar) < 1e-8:
                raise DegenerateRootError(
                    f"non-semisimple root {lam}: characteristic derivative "
                    f"{dchar} within 1e-8 of zero")
            elam = np.exp(lam * thetas)           # complex e^{lam theta}
            # complex dual row on component n_mode:
            #   l(phi) = [phi_n(0) - b sum_j qw_j e^{-lam(theta_j + r)} phi_n(theta_j)] / dchar
            row_c = -b * qw * np.exp(-lam * (thetas + r))
            row_c[-1] += 1.0
            row_c = row_c / dchar
            # a conjugate pair spans (Re, Im) of e^{lam theta}, with dual
            # rows 2 Re row_c and -2 Im row_c; a real root spans itself
            parts = (((elam.real, 2.0 * row_c.real),
                      (elam.imag, -2.0 * row_c.imag)) if root.is_pair
                     else ((elam.real, row_c.real),))
            for vec, frow in parts:
                bmat = np.zeros((n_nodes, d))
                fmat = np.zeros((n_nodes, d))
                bmat[:, n_mode - 1] = vec
                fmat[:, n_mode - 1] = frow
                basis_rows.append(bmat.ravel())
                func_rows.append(fmat.ravel())
    B = np.array(basis_rows)
    W = np.array(func_rows)
    # Gram correction: exact idempotence on the sampled basis
    G = W @ B.T
    if abs(np.linalg.det(G)) < 1e-12:
        raise DegenerateRootError("singular pairing Gram matrix")
    W = np.linalg.solve(G, W)
    if B.shape[0] != spectrum.k(m):
        raise ConfigError(
            f"basis size {B.shape[0]} != k_m = {spectrum.k(m)}")
    return SpectralDecomposition(
        spectrum=spectrum, m=m, grid=grid, params=params,
        basis=B, functionals=W)


def project(decomp: SpectralDecomposition, h: HistorySegment,
            which: str = "P") -> HistorySegment:
    """Apply the spectral projection P (unstable span) or Q = I - P."""
    if which not in ("P", "Q"):
        raise ConfigError(f"which must be 'P' or 'Q', got {which!r}")
    if h.grid != decomp.grid:
        raise ShapeError("segment grid incompatible with decomposition")
    flat = h.values.ravel()
    coeffs = decomp.functionals @ flat
    p_flat = decomp.basis.T @ coeffs
    if which == "Q":
        p_flat = flat - p_flat
    return HistorySegment(decomp.grid,
                          p_flat.reshape(h.values.shape))


def estimate_projection_norm(decomp: SpectralDecomposition) -> float:
    """Operator norm of the discrete P in the sup-history norm.

    P maps each mode's node values to the same mode (block-diagonal per
    mode).  When the cut touches one mode this is exact: the max absolute
    row sum of that block.  When it touches several, the modal norm couples
    them at each node, and the norm is the max over output nodes i of

        max over s in the simplex of  sum_j sqrt(sum_n P_n[i, j]^2 s_n),

    a concave maximization: with D_ij = diag_n P_n[i, j], the sup of
    ||(P phi)(theta_i)|| over ||phi|| <= 1 is the max over unit u of
    sum_j ||D_ij u|| (phi(theta_j) along D_ij u), and s_n = u_n^2.
    Minorize-maximize steps in u (s_n <- s_n (dh/ds_n)^2,
    normalized) raise h monotonically; they stop once the concavity upper
    bound h/2 + max_n dh/ds_n is within 1e-10 of h (relative), and that
    upper end is returned (it bounds the norm from above even if the
    10,000-step cap is reached).
    """
    n, d = decomp.grid.num_nodes, decomp.grid.value_dim
    P = (decomp.basis.T @ decomp.functionals).reshape(n, d, n, d)
    blocks = np.stack([P[:, k, :, k] for k in range(d)])
    blocks = blocks[np.abs(blocks).sum(axis=(1, 2)) > 0]
    if len(blocks) == 1:
        return float(np.abs(blocks[0]).sum(axis=1).max())
    sq = blocks * blocks                       # (modes, out, in)
    s = np.full((len(sq), n, 1), 1.0 / len(sq))
    for _ in range(10_000):
        col = np.sqrt((sq * s).sum(axis=0))    # ||D_ij u|| per (out, in)
        h = col.sum(axis=1)
        half_inv = np.divide(0.5, col, out=np.zeros_like(col), where=col > 0)
        grad = (sq * half_inv).sum(axis=2)     # dh/ds_n per (mode, out)
        upper = 0.5 * h + grad.max(axis=0)
        if upper.max() - h.max() <= 1e-10 * h.max():
            break
        s = s * grad[..., None] ** 2
        s /= s.sum(axis=0, keepdims=True)
    return float(upper.max())


def fit_dichotomy_K(decomp: SpectralDecomposition, trials: int = 50,
                    horizon: float | None = None, seed: int = 0):
    """Fit K of the stable-part decay bound  |U(t) Q x| <= K e^{rho_m t} |x|.

    Max of the observed ratio over random stable-part segments and sampled
    times up to horizon (default 5 r), inflated by K_SAFETY.  Per-trial seeds make the result
    independent of execution order; the projected draws are integrated as
    one batch.  Returns (K_fit, K_margin), which `with_K` stores on a copy
    of the decomposition.  Raises ConfigError when trials < 1 or every draw
    is skipped, rather than return K = 0.
    """
    if trials < 1:
        raise ConfigError(f"need at least one K trial, got trials={trials}")
    params = decomp.params
    if horizon is None:
        horizon = 5.0 * params.r
    dt = decomp.grid.spacing / max(
        1, int(math.ceil(decomp.grid.spacing / (params.r / 64.0))))
    xs, nxs = [], []
    for i in range(trials):
        rng = np.random.default_rng(seed * 1_000_003 + i)
        # alternate rough and smooth histories so the fitted constant
        # certifies both classes
        draw = random_segment if i % 2 == 0 else random_smooth_segment
        raw = draw(decomp.grid, rng)
        # normalize by the *unprojected* data: the certified estimate is
        # |U(t) Q x| <= K e^{rho_m t} |x|, an operator-norm bound on U(t)Q.
        # Dividing by |Q x| instead is ill-conditioned when the projection
        # nearly cancels a draw and produces unbounded ratios.
        nx = sup_norm(raw)
        if nx < 1e-12:
            continue
        xs.append(project(decomp, raw, "Q"))
        nxs.append(nx)
    if not xs:
        raise ConfigError(f"all {trials} K trials drew a zero history")
    trajs = linear_semigroup(params, xs, horizon, dt, grid=decomp.grid)
    decay = np.exp(-decomp.rho_m * trajs[0].sample_times())
    worst = max(float((traj.norms() * decay / nx).max())
                for traj, nx in zip(trajs, nxs))
    K_fit = K_SAFETY * worst
    return K_fit, K_fit - worst


def with_K(decomp: SpectralDecomposition, K_fit: float,
           K_margin: float) -> SpectralDecomposition:
    return replace(decomp, K_fit=K_fit, K_margin=K_margin)
