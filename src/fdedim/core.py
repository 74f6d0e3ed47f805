"""Phase-space representations for delay equations.

States are history segments: functions on [-r, 0] sampled on a uniform grid,
with sup-over-time semantics.  Two concrete value spaces are supported:
Euclidean n-vectors and sine-modal coefficient vectors (whose norm is the
L2(0, pi) norm of the reconstructed series).
"""
from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

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


def hermite_basis(s):
    """Cubic Hermite weights (h00, h10, h01, h11) at s in [0, 1]."""
    return ((1 + 2 * s) * (1 - s) ** 2, s * (1 - s) ** 2,
            s * s * (3 - 2 * s), s * s * (s - 1))


class Plan(NamedTuple):
    """A linear read of table rows, the same for every table of one layout:
    row k of the result is start_k + c_0k t[i_0k] + c_1k t[i_1k] +
    c_2k t[i_2k] + c_3k t[i_3k], summed left to right (`apply_plan`).

    idx: (4, N) row indices; coef: (4, N, 1) weights; start: (N, 1), -0.0
    (which adds nothing, whatever the sign of zero it meets) or +0.0 for a
    sum that started from 0.  The arrays are read-only.
    """

    idx: np.ndarray
    coef: np.ndarray
    start: np.ndarray


def apply_plan(table: np.ndarray, plan: Plan) -> np.ndarray:
    """(N, width): the plan's reads of a (rows, width) table, as one gather
    and one weighted sum."""
    p = plan.coef * table.take(plan.idx, axis=0)
    return plan.start + p[0] + p[1] + p[2] + p[3]


def node_table(values: np.ndarray) -> np.ndarray:
    """The table an interpolation plan reads, (2n - 2, width) for n >= 2
    nodes: the node values, then the central-difference slopes
    (v[k+1] - v[k-1]) / 2 at the interior nodes k = 1 .. n - 2."""
    return np.concatenate((values, (values[2:] - values[:-2]) / 2.0))


@functools.lru_cache(maxsize=64)
def interpolation_plan(r: float, n: int, theta_bytes: bytes) -> Plan:
    """The `interpolate` reads at the float64 thetas theta_bytes, on n
    uniform nodes over [-r, 0], as a plan into `node_table`; kept across
    calls.  It depends on the grid's delay and node count only, so segments
    of any width share it.  DomainError (and nothing cached) for a theta
    outside [-r, 0].

    Each branch keeps its own rounding: a node (within 1e-13 spacings) reads
    as 1 v + 0 v + 0 v + 0 v, which is v for any finite v; the sum of
    weight-times-node products of the end cubics starts from +0.0; the
    Hermite cubics read the slope rows.
    """
    th = np.frombuffer(theta_bytes)
    tol = 1e-12 * max(1.0, r)
    outside = (th < -r - tol) | (th > tol)
    if outside.any():
        raise DomainError(f"theta={th[outside][0]} outside [-{r}, 0]")
    x = (np.minimum(0.0, np.maximum(-r, th)) + r) / (r / (n - 1))
    i = np.clip(np.floor(x).astype(np.intp), 0, n - 2)
    s = x - i
    at_lo = np.abs(s) < 1e-13
    at_hi = ~at_lo & (np.abs(s - 1.0) < 1e-13)
    idx = np.repeat((i + at_hi)[None], 4, axis=0)
    coef = np.zeros((4, len(x)))
    coef[0] = 1.0
    start = np.full(len(x), -0.0)
    off = ~(at_lo | at_hi)
    if n < 4:
        # linear: (1 - s) v[i] + s v[i+1] + 0 v[i] + 0 v[i]
        idx[1, off] += 1
        coef[0, off] = 1.0 - s[off]
        coef[1, off] = s[off]
    else:
        # end intervals: cubic Lagrange through the 4 nearest nodes
        end = off & ((i == 0) | (i == n - 2))
        j0 = np.where(i[end] == 0, 0, n - 4)
        t = x[end] - j0
        idx[:, end] = j0 + np.arange(4)[:, None]
        coef[:, end] = (-(t - 1) * (t - 2) * (t - 3) / 6.0,
                        t * (t - 2) * (t - 3) / 2.0,
                        -t * (t - 1) * (t - 3) / 2.0,
                        t * (t - 1) * (t - 2) / 6.0)
        start[end] = 0.0
        # interior Hermite with central-difference slopes at nodes i, i+1
        mid = off & ~end
        im = i[mid]
        idx[:, mid] = (im, n + im - 1, im + 1, n + im)
        coef[:, mid] = hermite_basis(s[mid])
    return frozen_plan(idx, coef, start)


def frozen_plan(idx, coef, start) -> Plan:
    """A Plan of (4, N) indices, (4, N) weights and (N,) starts, shaped for
    `apply_plan` and made read-only."""
    plan = Plan(idx, coef[..., None], start[:, None])
    for a in plan:
        a.setflags(write=False)
    return plan


def interpolate(h: HistorySegment, theta) -> np.ndarray:
    """Piecewise-cubic interpolant of the segment, exact at the nodes.

    Interior intervals use Hermite cubics with central-difference slopes;
    the two end intervals use a cubic through the nearest four nodes (a
    one-sided linear rule cannot meet the smooth-history accuracy the
    integrator needs there).  Grids with fewer than 4 nodes fall back to
    linear interpolation.  The reads are the memoised
    `interpolation_plan` of the grid and the thetas, applied to the
    segment's `node_table`: a second call at the same thetas, on any
    segment of the grid, only gathers and sums.

    theta is a scalar (the result has shape (value_dim,)) or an array of
    any shape (the result has shape theta.shape + (value_dim,)).
    """
    g = h.grid
    th = np.asarray(theta, dtype=float)
    plan = interpolation_plan(g.delay_r, g.num_nodes, th.tobytes())
    out = apply_plan(node_table(h.values), plan)
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


def write_csv(path_or_buf, header, columns) -> None:
    """The one CSV writer of every table: the header row, then row i of the
    equal-length columns, in the csv module's default dialect.  A number
    column is written as the reprs of np.asarray(col).tolist(), so floats
    read back exactly; a list of str as it is.  Rows are streamed."""
    if len({len(col) for col in columns}) > 1:
        raise ShapeError("CSV columns differ in length")
    cells = [col if isinstance(col, list) and col and isinstance(col[0], str)
             else map(repr, np.asarray(col).tolist()) for col in columns]
    # reprs need no quoting; the csv module quotes a str cell holding a
    # comma, quote or line break, or an empty one alone on its row
    text = "".join("".join(col) for col in cells if isinstance(col, list))
    with open_path_or_buf(path_or_buf, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        if len(columns) > 1 and not any(c in text for c in ',"\r\n'):
            # the same text, hand-joined at about half of writerows' cost
            f.writelines(",".join(row) + "\r\n" for row in zip(*cells))
        else:
            w.writerows(zip(*cells))


def random_segment(grid: GridSpec, rng: np.random.Generator,
                   scale: float = 1.0) -> HistorySegment:
    """I.i.d. normal node values; rough but valid test data."""
    return HistorySegment(grid, scale * rng.standard_normal(
        (grid.num_nodes, grid.value_dim)))


def random_smooth_segment(grid: GridSpec, rng: np.random.Generator,
                          scale: float = 1.0) -> HistorySegment:
    """Random low-frequency Fourier history (frequencies 0..3 half-waves
    per delay, amplitudes decaying as 1/(1 + k^2)); smooth enough that cubic
    interpolation between nodes is accurate (needed when segments feed the
    integrator, whose delayed lookups interpolate the history)."""
    th = grid.nodes() / grid.delay_r  # in [-1, 0]
    vals = np.zeros((grid.num_nodes, grid.value_dim))
    for k in range(4):
        amp_c = rng.standard_normal(grid.value_dim) / (1 + k * k)
        amp_s = rng.standard_normal(grid.value_dim) / (1 + k * k)
        vals += np.outer(np.cos(math.pi * k * th), amp_c)
        vals += np.outer(np.sin(math.pi * k * th), amp_s)
    return HistorySegment(grid, scale * vals)
