"""Constructive ball coverings in small finite-dimensional normed spaces.

A radius-r1 ball is covered by radius-r2 balls; the count is compared
against the combinatorial bound m * 2^m * (1 + r1/r2)^m.  Nets are built by
greedy farthest-point insertion over a deterministic probe cloud and
certified by dense probing, not by formal proof.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import write_csv
from .errors import ConfigError, NetConstructionError

NORM_KINDS = ("sup", "euclidean", "weighted-sup")

# probe budgets keep greedy construction tractable at m <= 6
MAX_LATTICE_PROBES = 80_000
DEFAULT_RANDOM_PROBES = 100_000
PROBE_SEED = 20240917

# relative slack when deciding a probe is covered (floating-point headroom)
COVER_SLACK = 1e-6


@dataclass(frozen=True)
class NormSpec:
    """Norm on R^m: sup, Euclidean, or weighted sup max_i w_i |x_i|."""

    dim: int
    kind: str = "sup"
    weights: tuple = field(default=())

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.kind not in NORM_KINDS:
            raise ConfigError(f"kind must be one of {NORM_KINDS}")
        if self.kind == "weighted-sup":
            w = tuple(float(x) for x in self.weights)
            if len(w) != self.dim or any(x <= 0 for x in w):
                raise ConfigError(
                    "weighted-sup needs strictly positive weights of length dim")
            object.__setattr__(self, "weights", w)
        elif self.weights:
            raise ConfigError(f"{self.kind} norm takes no weights")

    def norm(self, pts: np.ndarray) -> np.ndarray:
        """Row-wise norm of an (n, m) array (or a single m-vector).

        Used for single vectors and for the distances of a probe cloud to
        the origin.  Reduced one coordinate column at a time, in the order
        that _distances repeats bitwise; numpy's reduction over a short
        last axis is ~10x slower on an (n, m) cloud.
        """
        pts = np.asarray(pts, dtype=float)
        if self.kind == "weighted-sup":
            pts = pts * np.asarray(self.weights)
        cols = np.moveaxis(pts, -1, 0)
        if self.kind == "euclidean":
            out = cols[0] * cols[0]
            for col in cols[1:]:
                out = out + col * col
            return np.sqrt(out)
        out = np.abs(cols[0])
        for col in cols[1:]:
            out = np.maximum(out, np.abs(col))
        return out

    def _distances(self, cols: np.ndarray, c: np.ndarray, out: np.ndarray,
                   tmp: np.ndarray) -> np.ndarray:
        """self.norm(probes - c) for probes stored as (m, n) columns cols.

        Writes into the length-n buffers out (returned) and tmp, with no
        other temporaries.  Each element sees norm's operations in norm's
        order (subtract c, weight, square or abs, add or max across the
        columns in order, sqrt last), so the values are bitwise equal.
        """
        w = self.weights
        euclidean = self.kind == "euclidean"
        for k in range(self.dim):
            acc = out if k == 0 else tmp
            np.subtract(cols[k], c[k], out=acc)
            if w:
                np.multiply(acc, w[k], out=acc)
            if euclidean:
                np.multiply(acc, acc, out=acc)
                if k:
                    np.add(out, acc, out=out)
            else:
                np.abs(acc, out=acc)
                if k:
                    np.maximum(out, acc, out=out)
        if euclidean:
            np.sqrt(out, out=out)
        return out

    def _box_halfwidths(self, radius: float) -> np.ndarray:
        """Half-widths of the smallest axis box containing the ball."""
        if self.kind == "weighted-sup":
            return radius / np.asarray(self.weights)
        return np.full(self.dim, radius)


def covering_bound(m: int, r1: float, r2: float) -> float:
    """The combinatorial covering-count bound m * 2^m * (1 + r1/r2)^m."""
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    if not (r1 > r2 > 0):
        raise ConfigError(f"need r1 > r2 > 0, got r1={r1}, r2={r2}")
    return m * 2.0 ** m * (1.0 + r1 / r2) ** m


def _lattice_probes(norm: NormSpec, r1: float, r2: float) -> np.ndarray:
    """Deterministic lattice of spacing r2/4 clipped to the r1-ball.

    The full lattice is used when affordable; otherwise the spacing is
    coarsened until the candidate grid fits the probe budget (the random
    cloud picks up the slack).  Grid geometry depends on r1 only through a
    linear scale, so net sizes are invariant under scaling (r1, r2) jointly.
    """
    h = r2 / 4.0
    half = norm._box_halfwidths(r1)
    while True:
        counts = [int(math.floor(hw / h)) for hw in half]
        total = 1
        for c in counts:
            total *= 2 * c + 1
            if total > MAX_LATTICE_PROBES:
                break
        if total <= MAX_LATTICE_PROBES:
            break
        h *= 1.5
    axes = [np.arange(-c, c + 1) * h for c in counts]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    pts = grid.reshape(-1, norm.dim)
    return pts[norm.norm(pts) <= r1 * (1.0 + 1e-12)]


def _random_probes(norm: NormSpec, r1: float, count: int) -> np.ndarray:
    """Random probes in the r1-ball, seeded deterministically and generated
    scale-free (unit ball, then scaled by r1)."""
    rng = np.random.default_rng(PROBE_SEED)
    m = norm.dim
    if norm.kind == "euclidean":
        d = rng.standard_normal((count, m))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        u = rng.random(count) ** (1.0 / m)
        unit = d * u[:, None]
    else:
        unit = rng.uniform(-1.0, 1.0, (count, m))
        if norm.kind == "weighted-sup":
            unit = unit / np.asarray(norm.weights)
    return r1 * unit


def _probe_cloud(norm: NormSpec, r1: float, r2: float,
                 random_probes: int) -> np.ndarray:
    lat = _lattice_probes(norm, r1, r2)
    rnd = _random_probes(norm, r1, random_probes)
    return np.concatenate([lat, rnd], axis=0)


def build_net(norm: NormSpec, r1: float, r2: float,
              random_probes: int = DEFAULT_RANDOM_PROBES,
              max_centers: int | None = None) -> np.ndarray:
    """Centers covering the r1-ball with r2-balls, greedily constructed.

    Farthest-point insertion seeded at the origin: repeatedly adopt the
    probe farthest from the current net until every probe is within r2 of
    some center.  Guarded at 10x the combinatorial bound (and optionally a
    user cap, since the bound itself is astronomically loose).
    """
    if not (r1 > r2 > 0):
        raise ConfigError(f"need r1 > r2 > 0, got r1={r1}, r2={r2}")
    if norm.dim > 6:
        raise ConfigError("build_net supports dim <= 6 (verification cost)")
    guard = 10.0 * covering_bound(norm.dim, r1, r2)
    if max_centers is not None:
        guard = min(guard, float(max_centers))
    probes = _probe_cloud(norm, r1, r2, random_probes)
    cols = np.ascontiguousarray(probes.T)
    out, tmp = np.empty(len(probes)), np.empty(len(probes))
    centers = [np.zeros(norm.dim)]
    dist = norm.norm(probes)  # distance to the origin center
    threshold = r2 * (1.0 + COVER_SLACK)
    while True:
        idx = int(np.argmax(dist))
        if dist[idx] <= threshold:
            break
        if len(centers) >= guard:
            raise NetConstructionError(
                f"net exceeded guard of {guard:.0f} centers "
                f"(dim={norm.dim}, r1/r2={r1 / r2:.3g})")
        c = probes[idx]
        centers.append(c)
        np.minimum(dist, norm._distances(cols, c, out, tmp), out=dist)
    return np.array(centers)


def verify_covering(centers: np.ndarray, norm: NormSpec, r1: float,
                    r2: float, probes: int = DEFAULT_RANDOM_PROBES) -> dict:
    """Probe-based covering certificate.

    centers is one m-vector or a (k, m) array.  Every lattice + random
    probe in the r1-ball must lie within r2 of some center.  Returns a
    report with the worst probe distance; on failure the witness probe is
    included.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.size == 0:
        raise ConfigError("centers must be nonempty")
    if centers.ndim > 2:
        raise ConfigError("centers must be an m-vector or a (k, m) array, "
                          f"got shape {centers.shape}")
    if centers.shape[1] != norm.dim:
        raise ConfigError(f"centers have width {centers.shape[1]} but the "
                          f"norm has dim {norm.dim}")
    cloud = _probe_cloud(norm, r1, r2, probes)
    cols = np.ascontiguousarray(cloud.T)
    out, tmp = np.empty(len(cloud)), np.empty(len(cloud))
    dist = np.full(len(cloud), np.inf)
    for c in centers:
        np.minimum(dist, norm._distances(cols, c, out, tmp), out=dist)
    worst = int(np.argmax(dist))
    max_uncovered = float(dist[worst])
    passed = max_uncovered <= r2 * (1.0 + COVER_SLACK)
    report = {
        "passed": bool(passed),
        "max_uncovered_distance": max_uncovered,
        "radius_r2": float(r2),
        "slack": float(r2 - max_uncovered),
        "num_centers": int(len(centers)),
        "num_probes": int(len(cloud)),
    }
    if not passed:
        report["witness_probe"] = [float(x) for x in cloud[worst]]
    return report


def net_to_csv(centers: np.ndarray, path_or_buf) -> None:
    """One center per row."""
    centers = np.asarray(centers, dtype=float)
    write_csv(path_or_buf, [f"x{k + 1}" for k in range(centers.shape[1])],
              centers.T)
