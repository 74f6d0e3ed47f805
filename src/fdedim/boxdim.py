"""Empirical box-counting dimension of sampled attractors.

Long post-transient trajectories are pooled into point clouds in the
flattened history embedding (dimension num_nodes * value_dim).  Occupied
boxes of side 2*eps are counted as the distinct rows of the integer cell
array (a dense grid would be hopeless at this embedding dimension), and the
dimension estimate is the least-squares slope of ln N_eps against -ln eps.

Distinct rows are found by sorting one item per row.  When the product of
the column radices (max - min + 1, exact in Python ints) is below 2**63,
the item is the row's mixed-radix int64 code, and equal codes are equal
rows; otherwise it is the row viewed as one opaque byte string.  Box
counting in a few varying columns takes the code; the pipeline's samples
(99 columns) and their 1e-9 duplicate keys take the byte strings.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import open_path_or_buf
from .errors import ConfigError, DegenerateSampleError
from .sim import Trajectory

DUPLICATE_RESOLUTION = 1e-9
# int64 holds the integers below this in magnitude, and row codes below it
_INT64_LIMIT = 2 ** 63


@dataclass(frozen=True)
class AttractorSample:
    """Pooled post-transient states in the flattened history embedding."""

    points: np.ndarray = field(repr=False)  # (n_points, D)
    transient_dropped: float
    source: dict

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise ConfigError("points must be a nonempty (n, D) array")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def embedding_dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def frame(self) -> tuple:
        """Read-only (origin, span) of the points, computed on first use:
        the anchor and extent of every box grid, and the column ranges
        whose largest is the sup-norm diameter."""
        return _frame(self.points)


def _row_items(keys: np.ndarray) -> np.ndarray:
    """One sortable item per row of an (n, k) int64 array, k >= 1, equal
    exactly for equal rows.

    The item is the row's mixed-radix code, (keys - min) @ multipliers
    with the first column most significant, when the product of the
    column radices is below 2**63; otherwise it is the row viewed as one
    opaque byte string.
    """
    lo = keys.min(axis=0)
    multipliers = []
    size = 1
    for low, high in zip(reversed(lo.tolist()),
                         reversed(keys.max(axis=0).tolist())):
        multipliers.append(size)
        size *= high - low + 1
        if size >= _INT64_LIMIT:
            keys = np.ascontiguousarray(keys)
            rows = keys.view(np.dtype((np.void,
                                       keys.itemsize * keys.shape[1])))
            return rows.ravel()
    return (keys - lo) @ np.array(multipliers[::-1], dtype=np.int64)


def _distinct_rows(keys: np.ndarray) -> np.ndarray:
    """Increasing indices of the first occurrence of each distinct row of an
    (n, k) int64 array, k >= 1.

    A single 1-D unique over `_row_items` (one int64 code per row when the
    rows fit one word, else one byte string per row) replaces the much
    slower row-wise ``np.unique(axis=0)``.
    """
    _, idx = np.unique(_row_items(keys), return_index=True)
    return np.sort(idx)


def _num_distinct_rows(keys: np.ndarray) -> int:
    """Number of distinct rows of an (n, k) int64 array, k >= 1."""
    items = _row_items(keys)
    if items.dtype != np.int64:
        return len(np.unique(items))
    # a sort and a neighbour compare: ~6x faster than np.unique on int64
    # (4000 rows, numpy 2.4)
    items.sort()
    return int(np.count_nonzero(items[1:] != items[:-1])) + 1


def _dedup(points: np.ndarray, resolution: float) -> np.ndarray:
    scaled = np.round(points / resolution)
    if not np.abs(scaled).max() < _INT64_LIMIT:
        raise ConfigError(
            f"duplicate resolution {resolution!r} is too fine for the "
            f"largest coordinate {np.abs(points).max()!r}: keys overflow "
            "int64")
    return points[_distinct_rows(scaled.astype(np.int64))]


def sample_attractor(simulate, initial_conditions, transient: float,
                     horizon: float, stride: float,
                     source: dict | None = None) -> AttractorSample:
    """Pool post-transient history segments from several trajectories.

    simulate: callable phi -> Trajectory run to at least transient + horizon;
    stride: sampling period (a multiple of the history-grid spacing).
    """
    if transient < 0 or horizon <= 0:
        raise ConfigError("need transient >= 0 and horizon > 0")
    pools = []
    for phi in initial_conditions:
        traj = simulate(phi)
        if not isinstance(traj, Trajectory):
            raise ConfigError("simulate must return a Trajectory")
        h = traj.grid.spacing
        k = round(stride / h)
        if k < 1 or abs(k * h - stride) > 1e-9 * stride:
            raise ConfigError(
                f"stride {stride} must be a multiple of grid spacing {h}")
        n, d = traj.grid.num_nodes, traj.grid.value_dim
        # window j is the history segment at sample time j, as (d, n)
        windows = sliding_window_view(traj.states, n, axis=0)[::k]
        kept = traj.sample_times()[::k] >= transient - 1e-12
        pools.append(windows[kept].transpose(0, 2, 1).reshape(-1, n * d))
    if not sum(map(len, pools)):
        raise ConfigError("no post-transient samples collected")
    pts = _dedup(np.concatenate(pools), DUPLICATE_RESOLUTION)
    return AttractorSample(points=pts, transient_dropped=float(transient),
                           source=dict(source or {}))


def _frame(points: np.ndarray) -> tuple:
    """Coordinate-wise minimum and span of a sample, read-only: the anchor
    and extent of its box grids at every eps."""
    origin = points.min(axis=0)
    span = points.max(axis=0) - origin
    origin.setflags(write=False)
    span.setflags(write=False)
    return origin, span


def _count_boxes(points: np.ndarray, origin: np.ndarray, span: np.ndarray,
                 eps: float) -> int:
    if eps <= 0:
        raise ConfigError("eps must be positive")
    varying = span > 0
    if not varying.any():
        return 1
    if span.max() / (2.0 * eps) >= _INT64_LIMIT:
        raise ConfigError(
            f"eps {eps!r} is too small for the sample span {span.max()!r}: "
            "cell indices overflow int64")
    cells = np.floor((points[:, varying] - origin[varying])
                     / (2.0 * eps)).astype(np.int64)
    return _num_distinct_rows(cells)


def box_count(points: np.ndarray, eps: float) -> int:
    """Occupied cells of side 2*eps (each cell fits in a sup-ball of
    radius eps), anchored at the coordinate-wise minimum.

    Columns constant across the sample put every point in cell 0 and are
    dropped before counting, which leaves the count unchanged.
    """
    points = np.asarray(points, dtype=float)
    return _count_boxes(points, *_frame(points), eps)


def box_counting_dim(sample: AttractorSample, eps_list,
                     window: tuple | None = None) -> dict:
    """Least-squares slope of ln N_eps versus -ln eps.

    eps_list must be decreasing with >= 4 values spanning >= 1.5 decades.
    window (lo, hi) restricts the fit to eps in [lo, hi]; by default the
    largest contiguous window with R^2 >= 0.98 is chosen automatically.
    """
    eps = [float(e) for e in eps_list]
    if len(eps) < 4:
        raise ConfigError("need at least 4 epsilon values")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ConfigError("eps_list must be strictly decreasing")
    if math.log10(eps[0] / eps[-1]) < 1.5:
        raise ConfigError("eps_list must span at least 1.5 decades")
    counts = [_count_boxes(sample.points, *sample.frame, e) for e in eps]
    if len(set(counts)) < 2:
        if counts[0] == 1:
            # a single occupied cell at every scale: dimension 0 exactly
            return {"estimate": 0.0, "r_squared": 1.0, "eps": eps,
                    "counts": counts, "window_eps": [eps[0], eps[-1]],
                    "window_auto": window is None,
                    "num_points": len(sample)}
        raise DegenerateSampleError(
            "fewer than 2 distinct box counts; sample too degenerate")
    x = -np.log(eps)
    y = np.log(counts)

    def fit(i0, i1):
        xs, ys = x[i0:i1 + 1], y[i0:i1 + 1]
        slope, intercept = np.polyfit(xs, ys, 1)
        pred = slope * xs + intercept
        ss_res = float(np.sum((ys - pred) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
        return float(slope), r2

    if window is not None:
        lo, hi = window
        idx = [i for i, e in enumerate(eps) if lo <= e <= hi]
        if len(idx) < 2:
            raise ConfigError("window contains fewer than 2 epsilon values")
        i0, i1 = idx[0], idx[-1]
        auto = False
    else:
        # largest contiguous window with R^2 >= 0.98 (full range fallback)
        best = (2, 0, len(eps) - 1)
        found = None
        for i0 in range(len(eps)):
            for i1 in range(i0 + 3, len(eps)):
                _, r2 = fit(i0, i1)
                if r2 >= 0.98 and (found is None
                                   or i1 - i0 > found[0]):
                    found = (i1 - i0, i0, i1)
        _, i0, i1 = found if found is not None else best
        auto = True
    slope, r2 = fit(i0, i1)
    return {
        "estimate": slope,
        "r_squared": r2,
        "eps": eps,
        "counts": counts,
        "window_eps": [eps[i0], eps[i1]],
        "window_auto": auto,
        "num_points": len(sample),
    }


def dyadic_eps(eps_max: float, levels: int) -> list:
    """eps_max, eps_max/2, ..., halved `levels` times (monotone counts are
    exact for dyadic boxes sharing the same anchor)."""
    if levels < 1:
        raise ConfigError("levels must be >= 1")
    return [eps_max / 2 ** k for k in range(levels + 1)]


def diameter(sample: AttractorSample) -> float:
    """Exact max pairwise sup-distance over the whole sample.

    The sup-distance of two points is their largest coordinate gap, so the
    diameter is the largest column range; rounded subtraction is monotone,
    so this equals the max over all pairs of the rounded distances.
    """
    return float(np.max(sample.frame[1]))


def counts_to_csv(result: dict, path_or_buf) -> None:
    with open_path_or_buf(path_or_buf, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["eps", "n_eps"])
        for e, c in zip(result["eps"], result["counts"]):
            w.writerow([repr(float(e)), int(c)])
