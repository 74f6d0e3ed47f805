"""Empirical box-counting dimension of sampled attractors.

Long post-transient trajectories are pooled into point clouds in the
flattened history embedding (dimension num_nodes * value_dim).  Occupied
boxes of side 2*eps are counted as the distinct rows of the integer cell
array (a dense grid would be hopeless at this embedding dimension), and the
dimension estimate is the least-squares slope of ln N_eps against -ln eps.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateSampleError
from .sim import Trajectory

DUPLICATE_RESOLUTION = 1e-9


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


def _distinct_rows(keys: np.ndarray) -> np.ndarray:
    """Increasing indices of the first occurrence of each distinct row of an
    (n, k) integer array, k >= 1.

    Each row is viewed as one opaque byte string, so a single 1-D unique
    replaces the much slower row-wise ``np.unique(axis=0)``.
    """
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
    _, idx = np.unique(rows.ravel(), return_index=True)
    return np.sort(idx)


def _dedup(points: np.ndarray, resolution: float) -> np.ndarray:
    keys = np.round(points / resolution).astype(np.int64)
    return points[_distinct_rows(keys)]


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
        n = traj.grid.num_nodes
        for t in traj.sample_times()[::k]:
            if t < transient - 1e-12:
                continue
            seg = traj.segment(t)
            pools.append(seg.values.ravel())
    if not pools:
        raise ConfigError("no post-transient samples collected")
    pts = _dedup(np.array(pools), DUPLICATE_RESOLUTION)
    return AttractorSample(points=pts, transient_dropped=float(transient),
                           source=dict(source or {}))


def _frame(points: np.ndarray) -> tuple:
    """Coordinate-wise minimum and span of a sample: the anchor and extent
    of its box grids at every eps."""
    origin = points.min(axis=0)
    return origin, points.max(axis=0) - origin


def _count_boxes(points: np.ndarray, origin: np.ndarray, span: np.ndarray,
                 eps: float) -> int:
    if eps <= 0:
        raise ConfigError("eps must be positive")
    varying = span > 0
    if not varying.any():
        return 1
    if span.max() / (2.0 * eps) >= 2.0 ** 63:
        raise ConfigError(
            f"eps {eps!r} is too small for the sample span {span.max()!r}: "
            "cell indices overflow int64")
    cells = np.floor((points[:, varying] - origin[varying])
                     / (2.0 * eps)).astype(np.int64)
    return len(_distinct_rows(cells))


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
    # box_count's anchor and span, computed once for all levels
    frame = _frame(sample.points)
    counts = [_count_boxes(sample.points, *frame, e) for e in eps]
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
    pts = sample.points
    return float(np.max(pts.max(axis=0) - pts.min(axis=0)))


def counts_to_csv(result: dict, path_or_buf) -> None:
    own = isinstance(path_or_buf, (str, bytes))
    f = open(path_or_buf, "w", newline="") if own else path_or_buf
    try:
        w = csv.writer(f)
        w.writerow(["eps", "n_eps"])
        for e, c in zip(result["eps"], result["counts"]):
            w.writerow([repr(float(e)), int(c)])
    finally:
        if own:
            f.close()


def result_to_json(result: dict, path_or_buf) -> None:
    own = isinstance(path_or_buf, (str, bytes))
    f = open(path_or_buf, "w") if own else path_or_buf
    try:
        json.dump(result, f, sort_keys=True, indent=2)
        f.write("\n")
    finally:
        if own:
            f.close()
