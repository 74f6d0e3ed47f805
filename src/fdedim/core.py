"""Phase-space representations for delay equations.

States are history segments: functions on [-r, 0] sampled on a uniform grid,
with sup-over-time semantics.  Two concrete value spaces are supported:
Euclidean n-vectors and sine-modal coefficient vectors (whose norm is the
L2(0, pi) norm of the reconstructed series).
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, ShapeError

VALUE_NORMS = ("euclidean", "modal")

# sqrt(pi/2): Parseval factor so the modal l2 norm equals the L2(0, pi)
# norm of sum_n y_n sin(n x).
MODAL_SCALE = math.sqrt(math.pi / 2.0)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-delay_r, 0] with value_dim-dimensional node values."""

    delay_r: float
    num_nodes: int
    value_dim: int
    value_norm: str = "euclidean"

    def __post_init__(self):
        if not self.delay_r > 0:
            raise ConfigError(f"delay_r must be positive, got {self.delay_r}")
        if self.num_nodes < 2:
            raise ConfigError(f"num_nodes must be >= 2, got {self.num_nodes}")
        if self.value_dim < 1:
            raise ConfigError(f"value_dim must be >= 1, got {self.value_dim}")
        if self.value_norm not in VALUE_NORMS:
            raise ConfigError(f"value_norm must be one of {VALUE_NORMS}")

    @property
    def spacing(self) -> float:
        return self.delay_r / (self.num_nodes - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(-self.delay_r, 0.0, self.num_nodes)

    def value_space_norm(self, v: np.ndarray) -> float:
        """Norm of a single value vector (or row-wise for 2-D input)."""
        n = np.linalg.norm(v, axis=-1)
        if self.value_norm == "modal":
            n = MODAL_SCALE * n
        return n


@dataclass(frozen=True)
class HistorySegment:
    """A discretized phase-space point: node values on a GridSpec."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size == 0:
            raise ConfigError("empty values array")
        if v.shape != (self.grid.num_nodes, self.grid.value_dim):
            raise ShapeError(
                f"values shape {v.shape} != "
                f"({self.grid.num_nodes}, {self.grid.value_dim})"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "HistorySegment":
        """Sample a callable theta -> value vector (or scalar) on the grid."""
        vals = np.array([np.broadcast_to(fn(t), (grid.value_dim,))
                         for t in grid.nodes()], dtype=float)
        return cls(grid, vals)

    @classmethod
    def zero(cls, grid: GridSpec) -> "HistorySegment":
        return cls(grid, np.zeros((grid.num_nodes, grid.value_dim)))

    def __add__(self, other: "HistorySegment") -> "HistorySegment":
        self._check_compatible(other)
        return HistorySegment(self.grid, self.values + other.values)

    def __sub__(self, other: "HistorySegment") -> "HistorySegment":
        self._check_compatible(other)
        return HistorySegment(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "HistorySegment":
        return HistorySegment(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def _check_compatible(self, other: "HistorySegment"):
        if self.grid != other.grid:
            raise ShapeError("incompatible grids")


def sup_norm(h: HistorySegment) -> float:
    """Sup over nodes of the value-space norm."""
    return float(np.max(h.grid.value_space_norm(h.values)))


def _node_slopes(values: np.ndarray, h: float) -> np.ndarray:
    """Central-difference slopes at interior nodes (one-sided at the ends)."""
    m = np.empty_like(values)
    m[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    m[0] = (values[1] - values[0]) / h
    m[-1] = (values[-1] - values[-2]) / h
    return m


def interpolate(h: HistorySegment, theta) -> np.ndarray:
    """Piecewise-cubic interpolant of the segment, exact at the nodes.

    Interior intervals use Hermite cubics with central-difference slopes;
    the two end intervals use a cubic through the nearest four nodes (a
    one-sided linear rule cannot meet the smooth-history accuracy the
    integrator needs there).  Grids with fewer than 4 nodes fall back to
    linear interpolation.

    theta is a scalar (the result has shape (value_dim,)) or an array of
    any shape (the result has shape theta.shape + (value_dim,)).
    """
    g = h.grid
    r = g.delay_r
    n = g.num_nodes
    th = np.asarray(theta, dtype=float)
    tol = 1e-12 * max(1.0, r)
    outside = (th < -r - tol) | (th > tol)
    if outside.any():
        raise DomainError(f"theta={th[outside].flat[0]} outside [-{r}, 0]")
    x = (np.minimum(0.0, np.maximum(-r, th)) + r).ravel() / g.spacing
    i = np.clip(np.floor(x).astype(np.intp), 0, n - 2)
    s = x - i
    v = h.values
    out = np.empty((len(x), g.value_dim))
    at_lo = np.abs(s) < 1e-13
    at_hi = ~at_lo & (np.abs(s - 1.0) < 1e-13)
    out[at_lo] = v[i[at_lo]]
    out[at_hi] = v[i[at_hi] + 1]
    off = ~(at_lo | at_hi)
    if n < 4:
        sk = s[off, None]
        out[off] = (1.0 - sk) * v[i[off]] + sk * v[i[off] + 1]
        return out.reshape(th.shape + (g.value_dim,))
    # end intervals: cubic Lagrange through the 4 nearest nodes
    end = off & ((i == 0) | (i == n - 2))
    j0 = np.where(i[end] == 0, 0, n - 4)
    t = (x[end] - j0)[:, None]
    w = (-(t - 1) * (t - 2) * (t - 3) / 6.0, t * (t - 2) * (t - 3) / 2.0,
         -t * (t - 1) * (t - 3) / 2.0, t * (t - 1) * (t - 2) / 6.0)
    out[end] = sum(wk * v[j0 + k] for k, wk in enumerate(w))
    # interior Hermite with central-difference slopes at nodes i, i+1
    mid = off & ~end
    i, s = i[mid], s[mid, None]
    m_i = (v[i + 1] - v[i - 1]) / 2.0
    m_ip = (v[i + 2] - v[i]) / 2.0
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    out[mid] = h00 * v[i] + h10 * m_i + h01 * v[i + 1] + h11 * m_ip
    return out.reshape(th.shape + (g.value_dim,))


@contextlib.contextmanager
def open_path_or_buf(path_or_buf, mode: str, **kwargs):
    """Yield path_or_buf itself when it is an open file object; when it is
    a path (str or bytes), yield the file opened with `mode` and `kwargs`
    and close it on exit."""
    if isinstance(path_or_buf, (str, bytes)):
        with open(path_or_buf, mode, **kwargs) as f:
            yield f
    else:
        yield path_or_buf


def _json_default(x):
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)}")


def write_json(obj, path_or_buf) -> None:
    """The one JSON writer of every report: sorted keys, 2-space indent and
    a trailing newline; numpy scalars and arrays become numbers and lists."""
    with open_path_or_buf(path_or_buf, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2, default=_json_default)
        f.write("\n")


def segment_to_csv(h: HistorySegment, path_or_buf) -> None:
    """One row per node: theta, v1..vd."""
    with open_path_or_buf(path_or_buf, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["theta"] + [f"v{k + 1}" for k in range(h.grid.value_dim)])
        for theta, row in zip(h.grid.nodes(), h.values):
            w.writerow([repr(float(theta))] + [repr(float(x)) for x in row])


def segment_from_csv(path_or_buf, value_norm: str = "euclidean") -> HistorySegment:
    with open_path_or_buf(path_or_buf, "r", newline="") as f:
        rows = list(csv.reader(f))
    if len(rows) < 3:
        raise ConfigError("segment CSV needs at least 2 node rows")
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    thetas, values = data[:, 0], data[:, 1:]
    grid = GridSpec(delay_r=-thetas[0], num_nodes=len(thetas),
                    value_dim=values.shape[1], value_norm=value_norm)
    return HistorySegment(grid, values)


def random_segment(grid: GridSpec, rng: np.random.Generator,
                   scale: float = 1.0) -> HistorySegment:
    """I.i.d. normal node values; rough but valid test data."""
    return HistorySegment(grid, scale * rng.standard_normal(
        (grid.num_nodes, grid.value_dim)))


def random_smooth_segment(grid: GridSpec, rng: np.random.Generator,
                          scale: float = 1.0,
                          num_terms: int = 4) -> HistorySegment:
    """Random low-frequency Fourier history; smooth enough that cubic
    interpolation between nodes is accurate (needed when segments feed the
    integrator, whose delayed lookups interpolate the history)."""
    th = grid.nodes() / grid.delay_r  # in [-1, 0]
    vals = np.zeros((grid.num_nodes, grid.value_dim))
    for k in range(num_terms):
        amp_c = rng.standard_normal(grid.value_dim) / (1 + k * k)
        amp_s = rng.standard_normal(grid.value_dim) / (1 + k * k)
        vals += np.outer(np.cos(math.pi * k * th), amp_c)
        vals += np.outer(np.sin(math.pi * k * th), amp_s)
    return HistorySegment(grid, scale * vals)
