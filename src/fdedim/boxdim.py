"""Empirical box-counting dimension of sampled attractors.

Long post-transient trajectories are pooled into point clouds in the
flattened history embedding (dimension num_nodes * value_dim).  Occupied
boxes of side 2*eps are counted as the distinct rows of the integer cell
array (a dense grid would be hopeless at this embedding dimension), and the
dimension estimate is the least-squares slope of ln N_eps against -ln eps.

A sample's frame (column minimum and span) is taken once, by a blocked
reduction that numpy runs much faster than a column reduction of the tall,
narrow sample, and so are its offsets from the minimum in the varying
columns.  Distinct rows are found by sorting one item per row.  When the
product of the column radices (exact in Python ints) is below 2**63, the
item is the row's mixed-radix int64 code, and equal codes are equal rows;
otherwise it is the row viewed as one opaque byte string.  A box count
reads its radices, floor(span / (2 eps)) + 1, off the frame; `_dedup`
shifts its keys to start at 0 and reads theirs off the shifted maxima.
Box counting in a few varying columns takes the code; the pipeline's
samples (99 columns) and their 1e-9 duplicate keys take the byte strings.

Every fit window, chosen or given, is fitted by one closed form from the
deviations about the window's own means.  Where the counts do not vary
over a window, its slope is 0.0 and its R^2 1.0: a sample whose counts are
equal at every level is a finite set at those scales, of dimension 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import write_csv
from .errors import ConfigError

DUPLICATE_RESOLUTION = 1e-9
# int64 holds the integers below this in magnitude, and row codes below it
_INT64_LIMIT = 2 ** 63
# rows per view row in _frame's blocked column reduction
_BLOCK = 32
# the least R^2 of box_counting_dim's automatic window
_R2_MIN = 0.98


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

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def frame(self) -> tuple:
        """Read-only (origin, span) of the points, computed on first use:
        the anchor and extent of every box grid, and the column ranges
        whose largest is the sup-norm diameter."""
        return _frame(self.points)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Read-only offsets of the points from the origin in the varying
        columns, computed on first use: the box coordinates that every eps
        level of `box_counting_dim` divides."""
        return _offsets(self.points, *self.frame)


def _byte_rows(keys: np.ndarray) -> np.ndarray:
    """Each row of an (n, k) int64 array as one opaque byte string."""
    keys = np.ascontiguousarray(keys)
    row = np.dtype((np.void, keys.itemsize * keys.shape[1]))
    return keys.view(row).ravel()


def _row_items(columns: np.ndarray, radices: list) -> np.ndarray:
    """One sortable item per row of (k, n) int64 columns, k >= 1, whose
    column j runs from 0 to radices[j] - 1, equal exactly for equal rows.

    The item is the row's mixed-radix int64 code, the first column most
    significant, when the product of the radices (exact in Python ints) is
    below 2**63, so that no partial code overflows; otherwise it is the
    row viewed as one opaque byte string.
    """
    if math.prod(radices) >= _INT64_LIMIT:
        return _byte_rows(columns.T)
    codes = columns[0].copy()
    for column, radix in zip(columns[1:], radices[1:]):
        codes *= radix
        codes += column
    return codes


def _distinct_rows(keys: np.ndarray) -> np.ndarray:
    """Increasing indices of the first occurrence of each distinct row of an
    (n, k) int64 array, k >= 1.

    A single 1-D unique over `_row_items` of the keys shifted to start at 0
    replaces the much slower row-wise ``np.unique(axis=0)``.  A shift that
    wraps in int64 (a column range of 2**63 or more, which takes the byte
    strings) still maps distinct keys to distinct keys.
    """
    lo = keys.min(axis=0)
    radices = [high - low + 1 for low, high in
               zip(lo.tolist(), keys.max(axis=0).tolist())]
    _, idx = np.unique(_row_items((keys - lo).T, radices), return_index=True)
    return np.sort(idx)


def _num_distinct(items: np.ndarray) -> int:
    """Number of distinct entries of a 1-D array of int64 codes (sorted in
    place) or byte strings."""
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


def sample_attractor(trajectories, transient: float, stride: float,
                     source: dict | None = None) -> AttractorSample:
    """Pool the history segments of several trajectories at the sample
    times t >= transient, one every stride (a multiple of the history-grid
    spacing)."""
    if transient < 0:
        raise ConfigError("need transient >= 0")
    pools = []
    for traj in trajectories:
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
    and extent of its box grids at every eps.

    numpy reduces a tall, narrow array over axis 0 slowly, so a C-ordered
    sample is reduced as a view of _BLOCK rows per row: over the blocks,
    then over the _BLOCK row slots, then with the leftover rows.  Min and
    max are exact, so the frame is the plain column reduction's, except
    that a zero in origin may carry the other sign, which moves no offset
    to another cell.  Min and max take the same entry among equal ones, so
    a column of 0.0 and -0.0 has span 0.0 either way.
    """
    n, d = points.shape
    m = n - n % _BLOCK if points.flags.c_contiguous else 0
    if m:
        rows = points[:m].reshape(-1, _BLOCK * d)  # a view, not a copy
        origin = rows.min(axis=0).reshape(_BLOCK, d).min(axis=0)
        top = rows.max(axis=0).reshape(_BLOCK, d).max(axis=0)
        if m < n:
            origin = np.minimum(origin, points[m:].min(axis=0))
            top = np.maximum(top, points[m:].max(axis=0))
    else:
        origin, top = points.min(axis=0), points.max(axis=0)
    span = top - origin
    origin.setflags(write=False)
    span.setflags(write=False)
    return origin, span


def _offsets(points: np.ndarray, origin: np.ndarray,
             span: np.ndarray) -> np.ndarray:
    """points - origin in the columns that vary (span > 0), read-only, as
    an (n, k) array stored column by column.  Constant columns put every
    point in cell 0 at every eps, so dropping them leaves every count
    unchanged."""
    varying = span > 0
    offsets = (points.T[varying] - origin[varying, None]).T
    offsets.setflags(write=False)
    return offsets


def _count_boxes(offsets: np.ndarray, span: np.ndarray, eps: float) -> int:
    """Occupied cells of side 2*eps among the offsets of a sample whose
    frame has the given span.

    Every varying column's offsets run from exactly 0 to exactly its span,
    so its cells run from 0 to floor(span / (2 eps)) with no scan.
    """
    if eps <= 0:
        raise ConfigError("eps must be positive")
    if not offsets.shape[1]:
        return 1
    if span.max() / (2.0 * eps) >= _INT64_LIMIT:
        raise ConfigError(
            f"eps {eps!r} is too small for the sample span {span.max()!r}: "
            "cell indices overflow int64")
    width = 2.0 * eps
    # the offsets are >= 0, so truncation is the floor
    cells = (offsets.T / width).astype(np.int64)
    return _num_distinct(_row_items(
        cells, [int(s / width) + 1 for s in span[span > 0].tolist()]))


def box_count(points: np.ndarray, eps: float) -> int:
    """Occupied cells of side 2*eps (each cell fits in a sup-ball of
    radius eps), anchored at the coordinate-wise minimum.

    Columns constant across the sample put every point in cell 0 and are
    dropped before counting, which leaves the count unchanged.
    """
    points = np.asarray(points, dtype=float)
    origin, span = _frame(points)
    return _count_boxes(_offsets(points, origin, span), span, eps)


def _fits(x: np.ndarray, y: np.ndarray, i0s: np.ndarray,
          i1s: np.ndarray) -> tuple:
    """(slopes, R^2s) of the least-squares lines through the windows
    x[i0:i1 + 1], y[i0:i1 + 1] of >= 2 levels, as one array expression over
    all windows: slope = sxy / sxx and R^2 = sxy^2 / (sxx syy), from the
    deviations about each window's own means.

    Deviations about each window's mean keep syy accurate to a few ulps
    however little y varies; prefix sums of x, y, x^2, y^2 and xy would
    subtract sums of squares about one shared mean, whose rounding error
    is large next to a small syy.  Where y does not vary (max == min), the
    slope is 0.0 and the R^2 1.0 by rule: the deviations about a rounded
    mean would give rounding noise for both.
    """
    index = np.arange(len(x))
    inside = (index >= i0s[:, None]) & (index <= i1s[:, None])
    xy = np.stack([x, y])[:, None, :]
    means = (np.where(inside, xy, 0.0).sum(axis=2, keepdims=True)
             / (i1s - i0s + 1)[:, None])
    dx, dy = np.where(inside, xy - means, 0.0)
    sxy = np.sum(dx * dy, axis=1)
    sxx = np.sum(dx * dx, axis=1)
    syy = np.sum(dy * dy, axis=1)
    flat = (np.where(inside, y, np.inf).min(axis=1)
            == np.where(inside, y, -np.inf).max(axis=1))
    return (np.where(flat, 0.0, sxy / sxx),
            np.where(flat, 1.0, sxy * sxy / np.where(flat, 1.0, sxx * syy)))


def _auto_window(x: np.ndarray, y: np.ndarray) -> tuple:
    """(i0, i1) of the largest contiguous window of >= 4 points whose
    `_fits` R^2 is >= 0.98, the first of its length; the full range when
    there is none."""
    levels = len(x)
    i0s, i1s = np.array([(lo, hi) for lo in range(levels)
                         for hi in range(lo + 3, levels)]).T
    ok = _fits(x, y, i0s, i1s)[1] >= _R2_MIN
    if not ok.any():
        return 0, levels - 1
    k = int(np.argmax(np.where(ok, i1s - i0s, -1)))
    return int(i0s[k]), int(i1s[k])


def box_counting_dim(sample: AttractorSample, eps_list,
                     window: tuple | None = None) -> dict:
    """Least-squares slope of ln N_eps versus -ln eps.

    eps_list must be decreasing with >= 4 values spanning >= 1.5 decades.
    window (lo, hi) restricts the fit to eps in [lo, hi]; by default the
    largest contiguous window with R^2 >= 0.98 is chosen automatically.
    Counts equal at every level fit as dimension 0.0 with R^2 1.0, over the
    full range when the window is automatic.
    """
    eps = [float(e) for e in eps_list]
    if len(eps) < 4:
        raise ConfigError("need at least 4 epsilon values")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ConfigError("eps_list must be strictly decreasing")
    if math.log10(eps[0] / eps[-1]) < 1.5:
        raise ConfigError("eps_list must span at least 1.5 decades")
    counts = [_count_boxes(sample.offsets, sample.frame[1], e) for e in eps]
    x = -np.log(eps)
    y = np.log(counts)
    if window is not None:
        lo, hi = window
        idx = [i for i, e in enumerate(eps) if lo <= e <= hi]
        if len(idx) < 2:
            raise ConfigError("window contains fewer than 2 epsilon values")
        i0, i1 = idx[0], idx[-1]
    else:
        i0, i1 = _auto_window(x, y)
    (slope,), (r2,) = _fits(x, y, np.array([i0]), np.array([i1]))
    return {
        "estimate": float(slope),
        "r_squared": float(r2),
        "eps": eps,
        "counts": counts,
        "window_eps": [eps[i0], eps[i1]],
        "window_auto": window is None,
        "num_points": len(sample),
    }


def dyadic_eps(eps_max: float, levels: int) -> list:
    """eps_max, eps_max/2, ..., halved `levels` times (monotone counts are
    exact for dyadic boxes sharing the same anchor)."""
    if levels < 1:
        raise ConfigError("levels must be >= 1")
    if not eps_max > 0:
        raise ConfigError(f"eps_max must be positive, got {eps_max!r}")
    return [eps_max / 2 ** k for k in range(levels + 1)]


def diameter(sample: AttractorSample) -> float:
    """Exact max pairwise sup-distance over the whole sample.

    The sup-distance of two points is their largest coordinate gap, so the
    diameter is the largest column range; rounded subtraction is monotone,
    so this equals the max over all pairs of the rounded distances.
    """
    return float(np.max(sample.frame[1]))


def counts_to_csv(result: dict, path_or_buf) -> None:
    """One row per box size: eps, n_eps."""
    write_csv(path_or_buf, ["eps", "n_eps"], [result["eps"], result["counts"]])
