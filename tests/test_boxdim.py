import csv
import functools
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fdedim import boxdim
from fdedim.boxdim import (DUPLICATE_RESOLUTION, AttractorSample, _auto_window,
                           _count_boxes, _dedup, _distinct_rows, _fits,
                           _num_distinct, _row_items, box_count,
                           box_counting_dim, counts_to_csv, diameter,
                           dyadic_eps, sample_attractor)
from fdedim.core import (GridSpec, HistorySegment, random_smooth_segment,
                         write_json)
from fdedim.errors import ConfigError
from fdedim.sim import RDEParams, Trajectory, rde_grid, simulate_rde


def make_sample(points):
    return AttractorSample(points=np.asarray(points, dtype=float),
                           transient_dropped=0.0, source={})


def embed_line(n, rng, D=64, length=1.0):
    """Uniform points on a segment in R^D.

    The direction uses a few O(1) coordinates (a dense random direction
    spreads cell-boundary crossings over many scales and inflates the
    finite-eps slope well above the true dimension).
    """
    direction = np.zeros(D)
    slots = rng.choice(D, size=3, replace=False)
    direction[slots] = [1.0, 0.7, 0.3]
    t = rng.uniform(0.0, length, size=n)
    return np.outer(t, direction)


def embed_square(n, rng, D=16):
    basis = np.zeros((2, D))
    basis[0, 0] = 1.0
    basis[1, 1] = 1.0
    uv = rng.uniform(0.0, 1.0, size=(n, 2))
    return uv @ basis


# Reference forms the array versions replaced; the property tests below
# require exact agreement with them.
def box_count_reference(points, eps):
    origin = points.min(axis=0)
    cells = np.floor((points - origin) / (2.0 * eps)).astype(np.int64)
    return len(np.unique(cells, axis=0))


def diameter_reference(pts):
    best = 0.0
    for i in range(len(pts) - 1):
        d = np.max(np.abs(pts[i + 1:] - pts[i]), axis=1).max()
        best = max(best, float(d))
    return best


def distinct_rows_reference(keys):
    """First-occurrence indices through one void view per row."""
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
    _, idx = np.unique(rows.ravel(), return_index=True)
    return np.sort(idx)


def sample_attractor_reference(trajectories, transient, stride):
    """One Trajectory.segment call per kept sample time."""
    pools = []
    for traj in trajectories:
        k = round(stride / traj.grid.spacing)
        for t in traj.sample_times()[::k]:
            if t < transient - 1e-12:
                continue
            pools.append(traj.segment(t).values.ravel())
    return pools


def dedup_reference(points, resolution):
    keys = np.round(points / resolution).astype(np.int64)
    _, idx = np.unique(keys, axis=0, return_index=True)
    return points[np.sort(idx)]


def exact_window_fit(x, y, i0, i1):
    """(slope, R^2) of the least-squares line through the points i0..i1,
    in exact rational arithmetic on the float inputs and rounded once; a
    window of equal counts scores slope 0.0 and R^2 1.0.

    np.polyfit's R^2, 1 - ss_res / ss_tot, is not a reference to 1e-12
    where ln N barely varies: for counts (9999124, 9997836, 9997033,
    9999052) it is 1.6e-11 off the exact 0.0169730803602840.
    """
    xs = [Fraction(v) for v in x[i0:i1 + 1]]
    ys = [Fraction(v) for v in y[i0:i1 + 1]]
    if len(set(ys)) == 1:
        return 0.0, 1.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sxx = sum((a - mx) ** 2 for a in xs)
    syy = sum((b - my) ** 2 for b in ys)
    return float(sxy / sxx), float(sxy * sxy / (sxx * syy))


def auto_window_reference(x, y):
    """The per-window loop that `_auto_window` replaced, verbatim in logic
    but for its fit, now exact: (i0, i1, slope, R^2) of the chosen
    window."""
    fit = functools.partial(exact_window_fit, x, y)
    eps = x  # only its length is used
    best = (2, 0, len(eps) - 1)
    found = None
    for i0 in range(len(eps)):
        for i1 in range(i0 + 3, len(eps)):
            _, r2 = fit(i0, i1)
            if r2 >= 0.98 and (found is None
                               or i1 - i0 > found[0]):
                found = (i1 - i0, i0, i1)
    _, i0, i1 = found if found is not None else best
    return (i0, i1) + fit(i0, i1)


def assert_matches_reference(x, y, i0, i1, slope, r2):
    """The window equals the reference's; slope and R^2 agree to 1e-12.
    A draw where some window's reference R^2 is within 1e-12 of 0.98,
    where the two fits' rounding may choose differently, is skipped."""
    assume(all(abs(exact_window_fit(x, y, lo, hi)[1] - 0.98) > 1e-12
               for lo in range(len(x)) for hi in range(lo + 3, len(x))))
    ref = auto_window_reference(x, y)
    assert (i0, i1) == ref[:2]
    assert slope == pytest.approx(ref[2], rel=0, abs=1e-12)
    assert r2 == pytest.approx(ref[3], rel=0, abs=1e-12)


def fit_of(x, y, i0, i1):
    """`_fits` of the one window i0..i1, as floats."""
    (slope,), (r2,) = _fits(x, y, np.array([i0]), np.array([i1]))
    return float(slope), float(r2)


def _frame_cloud(n):
    """(n, 4) cloud: a rising column, a column of 0.0 and -0.0 whose other
    entries are positive, a column of 0.0 and -0.0 only, and a falling
    column from -0.0.  The extremes of the rising and falling columns are
    in the last row, which the blocked frame scan leaves over for n = 33
    and n = 65; the zero columns meet both zeros in every block."""
    rows = np.arange(n, dtype=float)
    zeros = np.where(rows % 3 == 0, -0.0, 0.0)
    return np.stack([rows * 0.75,
                     np.where(rows % 5 == 1, np.sin(rows) + 2.0, zeros),
                     np.where(rows % 2 == 1, -0.0, 0.0),
                     -np.sqrt(rows) * 2.0], axis=1)


# all-zero clouds whose last row holds +0.0 or -0.0: the diameter is +0.0
_SIGNED_ZEROS = [np.where(np.arange(n * 2).reshape(n, 2) % 3 == k, -0.0, 0.0)
                 for n, k in ((33, 0), (65, 1), (31, 2), (32, 0))]


# count sequences (eps = 0.25, 0.125, ...): the first four levels' R^2 is
# 0.98 to within 1.4e-11; counts constant over 5 or more levels, which fit
# flat (a polyfit's R^2 there is rounding noise: -0.67 over 45 repeated six
# times); saturated fine levels; two perfect windows of the longest length;
# and no window reaching 0.98 (the full-range fallback)
_WINDOW_COUNTS = [
    [1147685, 1421937, 2061592, 3161097],
    [1147685, 1421937, 2061592, 3161097, 6400000, 12000000],
    [45, 45, 45, 45, 45, 45, 137, 272],
    [5, 5, 5, 5, 9, 17, 33, 65],
    [3, 10, 40, 160, 640, 1000, 1000, 1000, 1000],
    [1, 2, 4, 8, 1000, 2000, 4000, 8000],
    [1, 100, 2, 90, 3, 80],
]


@st.composite
def point_clouds(draw):
    """(n, D) clouds with repeated rows, constant columns and negative
    coordinates: rows are drawn with replacement from a small pool and a
    random subset of columns is pinned to one value."""
    D = draw(st.integers(1, 6))
    pool = draw(hnp.arrays(np.float64, (draw(st.integers(1, 12)), D),
                           elements=st.floats(-10.0, 10.0)))
    rows = draw(hnp.arrays(np.int64, draw(st.integers(1, 40)),
                           elements=st.integers(0, len(pool) - 1)))
    pts = pool[rows]
    constant = draw(hnp.arrays(np.bool_, D))
    pts[:, constant] = draw(st.floats(-10.0, 10.0))
    return pts


@st.composite
def key_arrays(draw):
    """(n, k) int64 keys on both sides of the one-word code: up to 4
    columns of radix 1..6, dense enough for rows that a wrong code would
    merge, or up to 120 columns whose radices range from 1 (constant column)
    to 2**62 + 1.  Rows repeat, and keys may be negative."""
    narrow = draw(st.booleans())
    k = draw(st.integers(1, 4 if narrow else 120))
    widths = draw(st.lists(
        st.integers(0, 5) if narrow
        else st.sampled_from([0, 1, 2, 50, 2 ** 31, 2 ** 62]),
        min_size=k, max_size=k))
    lows = draw(hnp.arrays(np.int64, k,
                           elements=st.integers(-2 ** 62, 2 ** 61)))
    offsets = draw(hnp.arrays(np.int64, (draw(st.integers(1, 12)), k),
                              elements=st.integers(0, 2 ** 62)))
    pool = lows + offsets % (np.array(widths, dtype=np.int64) + 1)
    rows = draw(hnp.arrays(np.int64, draw(st.integers(1, 40)),
                           elements=st.integers(0, len(pool) - 1)))
    return pool[rows]


class TestArrayFormsMatchReference:
    @given(key_arrays())
    # n = 1; radices (7, (2**63 - 1) / 7), whose product 2**63 - 1 still
    # takes the code; radices (1, 2**63), whose product takes the bytes
    @example(np.array([[-3, 7]], dtype=np.int64))
    @example(np.array([[0, 0], [6, (2 ** 63 - 1) // 7 - 1], [6, 0],
                       [0, 0]], dtype=np.int64))
    @example(np.array([[5, 0], [5, 2 ** 63 - 1], [5, 0]], dtype=np.int64))
    @settings(max_examples=150, deadline=None)
    def test_distinct_rows(self, keys):
        ref = distinct_rows_reference(keys)
        got = _distinct_rows(keys)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
        lo = keys.min(axis=0)
        radices = [int(h) - int(l) + 1 for l, h in zip(lo, keys.max(axis=0))]
        assert _num_distinct(_row_items((keys - lo).T, radices)) == len(ref)

    @given(point_clouds(), st.floats(1e-3, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_box_count(self, pts, eps):
        assert box_count(pts, eps) == box_count_reference(pts, eps)

    @given(point_clouds(), st.floats(1.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_box_counting_dim_counts_per_level(self, pts, eps_max):
        # the shared anchor and span give the per-level box_count counts
        eps = dyadic_eps(eps_max, 6)
        counts = box_counting_dim(make_sample(pts), eps)["counts"]
        assert counts == [box_count_reference(pts, e) for e in eps]

    @given(point_clouds())
    @example(_frame_cloud(1))
    @example(_frame_cloud(31))
    @example(_frame_cloud(32))
    @example(_frame_cloud(33))
    @example(_frame_cloud(65))
    @example(_SIGNED_ZEROS[0])
    @example(_SIGNED_ZEROS[1])
    @example(_SIGNED_ZEROS[2])
    @example(_SIGNED_ZEROS[3])
    @settings(max_examples=60, deadline=None)
    def test_diameter_bitwise(self, pts):
        got = diameter(make_sample(pts))
        assert got.hex() == diameter_reference(pts).hex()

    @given(point_clouds(), st.floats(1e-3, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_dedup_first_occurrence_order(self, pts, resolution):
        got = _dedup(pts, resolution)
        ref = dedup_reference(pts, resolution)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)

    @given(point_clouds())
    @example(_frame_cloud(1))
    @example(_frame_cloud(31))
    @example(_frame_cloud(32))
    @example(_frame_cloud(33))
    @example(_frame_cloud(65))
    @example(np.asfortranarray(_frame_cloud(65)))
    @example(_frame_cloud(130)[::2])
    @settings(max_examples=60, deadline=None)
    def test_frame_and_diameter_match_uncached(self, pts):
        sample = make_sample(pts)
        origin, span = sample.frame
        assert np.array_equal(origin, pts.min(axis=0))
        assert np.array_equal(span, pts.max(axis=0) - pts.min(axis=0))
        assert not (origin.flags.writeable or span.flags.writeable)
        assert sample.frame is sample.frame
        ref = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
        assert diameter(sample).hex() == ref.hex()

    @given(point_clouds())
    @settings(max_examples=60, deadline=None)
    def test_offsets_taken_once(self, pts):
        sample = make_sample(pts)
        varying = np.ptp(pts, axis=0) > 0
        assert np.array_equal(sample.offsets,
                              pts[:, varying] - pts.min(axis=0)[varying])
        assert not sample.offsets.flags.writeable
        assert sample.offsets is sample.offsets

    @given(st.integers(2, 9), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(0, 60),
           st.sampled_from([0.0, 1.3, 2.0, 7.5]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sample_attractor_windows(self, num_nodes, value_dim, stride_k,
                                      num_traj, steps, transient, data):
        grid = GridSpec(delay_r=1.0, num_nodes=num_nodes,
                        value_dim=value_dim)
        times = np.concatenate([grid.nodes()[:-1],
                                np.arange(steps + 1) * grid.spacing])
        trajectories = [
            Trajectory(grid, times, data.draw(hnp.arrays(
                np.float64, (len(times), value_dim),
                elements=st.floats(-5.0, 5.0))))
            for _ in range(num_traj)]
        stride = stride_k * grid.spacing
        pools = sample_attractor_reference(trajectories, transient, stride)
        if not pools:
            with pytest.raises(ConfigError, match="no post-transient"):
                sample_attractor(trajectories, transient, stride)
            return
        got = sample_attractor(trajectories, transient, stride)
        ref = _dedup(np.array(pools), DUPLICATE_RESOLUTION)
        assert got.points.shape == ref.shape
        assert got.points.tobytes() == ref.tobytes()

    @given(st.lists(st.integers(1, 10 ** 7), min_size=4, max_size=10),
           st.booleans())
    @example(_WINDOW_COUNTS[0], False)
    @example(_WINDOW_COUNTS[1], False)
    @example(_WINDOW_COUNTS[2], False)
    @example(_WINDOW_COUNTS[3], False)
    @example(_WINDOW_COUNTS[4], False)
    @example(_WINDOW_COUNTS[5], False)
    @example(_WINDOW_COUNTS[6], False)
    @example([9999124, 9997836, 9997033, 9999052], False)
    @settings(max_examples=200, deadline=None)
    def test_auto_window(self, counts, monotone):
        if monotone:
            counts = sorted(counts)
        x = -np.log(dyadic_eps(0.25, len(counts) - 1))
        y = np.log(counts)
        i0, i1 = _auto_window(x, y)
        assert_matches_reference(x, y, i0, i1, *fit_of(x, y, i0, i1))

    @given(st.integers(4, 9), st.floats(0.2, 2.5), st.floats(0.0, 0.3),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_auto_window_near_power_law(self, levels, slope, noise, seed):
        # ln N a line plus noise: R^2 close to 0.98 for some windows
        x = -np.log(dyadic_eps(0.25, levels - 1))
        rng = np.random.default_rng(seed)
        counts = np.maximum(1, np.round(np.exp(
            3.0 + slope * (x - x[0]) + rng.normal(0.0, noise, levels))))
        y = np.log(counts)
        i0, i1 = _auto_window(x, y)
        assert_matches_reference(x, y, i0, i1, *fit_of(x, y, i0, i1))

    def test_flat_window_is_dimension_zero(self):
        # six equal counts fit as one flat window; a polyfit of the first
        # four levels scores R^2 1.0 only by rounding luck
        x = -np.log(dyadic_eps(0.25, 7))
        y = np.log(_WINDOW_COUNTS[2])
        assert _auto_window(x, y) == (0, 5)
        assert fit_of(x, y, 0, 5) == (0.0, 1.0)

    @given(st.lists(st.integers(1, 10 ** 7), min_size=4, max_size=10),
           st.integers(1, 10 ** 7), st.data())
    @example([45] * 6, 45, None)
    @example([46] * 5, 46, None)
    @settings(max_examples=200, deadline=None)
    def test_equal_counts_fit_flat(self, counts, count, data):
        # a polyfit of six 45s has slope -0.67 and of five 46s -10.0
        levels = len(counts)
        i0, i1 = 0, levels - 1
        if data is not None:
            i0 = data.draw(st.integers(0, levels - 2))
            i1 = data.draw(st.integers(i0 + 1, levels - 1))
        counts[i0:i1 + 1] = [count] * (i1 - i0 + 1)
        x = -np.log(dyadic_eps(0.25, levels - 1))
        assert fit_of(x, np.log(counts), i0, i1) == (0.0, 1.0)

    def test_pinned_window_near_threshold(self):
        x = -np.log(dyadic_eps(0.25, 3))
        _, r2 = fit_of(x, np.log(_WINDOW_COUNTS[0]), 0, 3)
        assert 0 < abs(r2 - 0.98) < 1e-9

    @given(point_clouds(), st.floats(1.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_box_counting_dim_matches_reference(self, pts, eps_max):
        eps = dyadic_eps(eps_max, 6)
        counts = [box_count_reference(pts, e) for e in eps]
        got = box_counting_dim(make_sample(pts), eps)
        i0, i1 = (eps.index(e) for e in got["window_eps"])
        assert_matches_reference(-np.log(eps), np.log(counts), i0, i1,
                                 got["estimate"], got["r_squared"])


class TestBoxCount:
    def test_single_point(self):
        s = make_sample([[0.3, -1.2, 4.0]])
        for e in (1.0, 0.1, 0.01):
            assert box_count(s.points, e) == 1

    def test_counts_monotone_dyadic(self):
        rng = np.random.default_rng(60)
        s = make_sample(embed_square(20_000, rng))
        eps = dyadic_eps(0.5, 7)
        counts = [box_count(s.points, e) for e in eps]
        assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))

    def test_eps_positive(self):
        with pytest.raises(ConfigError):
            box_count(np.zeros((3, 2)), 0.0)

    def test_cell_index_overflow_rejected(self):
        pts = np.array([[0.0], [1.0], [0.5]])
        # span / (2 eps) = 2**62 still fits in int64
        assert box_count(pts, 2.0 ** -63) == 3
        with pytest.raises(ConfigError, match="1e-20"):
            box_count(pts, 1e-20)
        # the largest cell below 2**63: one column of radix 2**63 - 1023
        big = np.array([[0.0], [2.0 ** 62 - 512], [2.0 ** 63 - 1024]])
        assert box_count(big, 0.5) == 3
        # two columns whose radix product crosses 2**63 count byte strings
        wide = np.array([[0.0, 0.0], [2.0 ** 32, 2.0 ** 32],
                         [1.0, 2.0 ** 32], [0.0, 0.0]])
        assert box_count(wide, 0.5) == 3 == box_count_reference(wide, 0.5)

    @pytest.mark.parametrize("top,takes_bytes", [
        # radices 3 and top + 1: top is the largest float with a product
        # below 2**63 (2**63 - 509); the next float up gives 2**63 + 1027
        (3074457345618258432.0, False), (3074457345618258944.0, True)])
    def test_count_boxes_place_value_limit(self, monkeypatch, top,
                                           takes_bytes):
        pts = np.array([[0.0, 0.0], [2.0, top], [1.0, 0.0], [2.0, top],
                        [0.0, top], [1.0, 512.0], [1.0, 512.0]])
        sample = make_sample(pts)
        byte_rows = []
        real = boxdim._byte_rows

        def counted(keys):
            byte_rows.append(keys.shape)
            return real(keys)

        monkeypatch.setattr(boxdim, "_byte_rows", counted)
        # eps = 0.5: cells of side 1, so the radices are 3 and top + 1
        got = _count_boxes(sample.offsets, sample.frame[1], 0.5)
        assert got == 5 == box_count_reference(pts, 0.5)
        assert byte_rows == ([(7, 2)] if takes_bytes else [])

    def test_dedup_key_overflow_rejected(self):
        pts = np.array([[1e10], [2e10], [3e10]])
        with pytest.raises(ConfigError, match=r"1e-09.*30000000000\.0"):
            _dedup(pts, 1e-9)
        assert len(_dedup(pts, 1e-6)) == 3


class TestBoxCountingDim:
    def test_single_point_estimate_zero(self):
        s = make_sample([[1.0, 2.0]])
        res = box_counting_dim(s, dyadic_eps(1.0, 6))
        assert abs(res["estimate"]) <= 0.05
        assert res["r_squared"] == 1.0

    def test_line_dimension_one(self):
        rng = np.random.default_rng(61)
        s = make_sample(embed_line(100_000, rng))
        res = box_counting_dim(s, dyadic_eps(0.25, 7))
        assert res["estimate"] == pytest.approx(1.0, abs=0.1)

    def test_square_dimension_two(self):
        rng = np.random.default_rng(62)
        s = make_sample(embed_square(100_000, rng))
        res = box_counting_dim(s, dyadic_eps(0.25, 6))
        assert res["estimate"] == pytest.approx(2.0, abs=0.15)

    def test_eps_list_validation(self):
        s = make_sample([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ConfigError):
            box_counting_dim(s, [1.0, 0.5, 0.25])  # too few
        with pytest.raises(ConfigError):
            box_counting_dim(s, [1.0, 0.5, 0.6, 0.25])  # not decreasing
        with pytest.raises(ConfigError):
            box_counting_dim(s, [1.0, 0.9, 0.8, 0.7])  # < 1.5 decades

    def test_degenerate_two_points(self):
        # two far-apart points: N_eps constant at 2, a finite set at these
        # scales, so dimension 0 over the full range
        s = make_sample([[0.0, 0.0], [100.0, 100.0]])
        res = box_counting_dim(s, [1.0, 0.5, 0.25, 0.01])
        assert (res["estimate"], res["r_squared"]) == (0.0, 1.0)
        assert res["counts"] == [2] * 4
        assert res["window_eps"] == [1.0, 0.01]

    def test_manual_window(self):
        rng = np.random.default_rng(63)
        s = make_sample(embed_line(50_000, rng))
        eps = dyadic_eps(0.25, 7)
        res = box_counting_dim(s, eps, window=(eps[5], eps[1]))
        assert not res["window_auto"]
        assert res["window_eps"] == [eps[1], eps[5]]
        assert res["estimate"] == pytest.approx(1.0, abs=0.15)

    def test_auto_window_reported(self):
        rng = np.random.default_rng(64)
        s = make_sample(embed_line(50_000, rng))
        res = box_counting_dim(s, dyadic_eps(0.25, 7))
        assert res["window_auto"]
        assert res["r_squared"] >= 0.98


class TestDiameter:
    def test_two_points(self):
        s = make_sample([[0.0, 0.0], [3.0, 1.0]])
        assert diameter(s) == 3.0

    def test_segment_length(self):
        rng = np.random.default_rng(65)
        s = make_sample(embed_line(5_000, rng, length=2.5))
        assert diameter(s) == pytest.approx(2.5, rel=0.02)

    def test_homogeneity(self):
        rng = np.random.default_rng(66)
        pts = embed_line(500, rng)
        assert diameter(make_sample(2.0 * pts)) == pytest.approx(
            2.0 * diameter(make_sample(pts)), rel=1e-12)


class TestSampleAttractor:
    @staticmethod
    def _contracting_setup():
        params = RDEParams(a=3.0, b=0.3, r=0.2, num_modes=2)
        grid = rde_grid(params, 17)
        dt = grid.spacing / 2.0

        def simulate(phis):
            return simulate_rde(params, phis, 8.0, dt)

        return params, grid, simulate

    def test_contracting_system_collapses(self):
        _, grid, simulate = self._contracting_setup()
        rng = np.random.default_rng(67)
        ics = [random_smooth_segment(grid, rng) for _ in range(3)]
        s = sample_attractor(simulate(ics), transient=6.0,
                             stride=grid.spacing)
        assert np.max(np.abs(s.points)) < 1e-6
        assert diameter(s) < 1e-6

    def test_pooling_never_decreases_diameter(self):
        params = RDEParams(a=1.0, b=0.3, r=1.0, num_modes=2)
        grid = rde_grid(params, 17)
        dt = grid.spacing / 2.0

        def simulate(phis):
            return simulate_rde(params, phis, 4.0, dt)

        rng = np.random.default_rng(68)
        ics = [random_smooth_segment(grid, rng) for _ in range(4)]
        d2 = diameter(sample_attractor(simulate(ics[:2]), 0.0,
                                       grid.spacing))
        d4 = diameter(sample_attractor(simulate(ics), 0.0, grid.spacing))
        assert d4 >= d2 - 1e-12

    def test_stride_must_align(self):
        _, grid, simulate = self._contracting_setup()
        phi = HistorySegment.zero(grid)
        with pytest.raises(ConfigError):
            sample_attractor(simulate([phi]), 0.0,
                             stride=grid.spacing * 1.37)


def test_serialization():
    s = make_sample([[0.0, 0.0], [0.5, 0.1], [1.0, 0.2], [0.2, 0.05]])
    res = box_counting_dim(s, dyadic_eps(1.0, 6))
    buf = io.StringIO()
    counts_to_csv(res, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "eps,n_eps"
    assert len(lines) == len(res["eps"]) + 1
    jbuf = io.StringIO()
    write_json(res, jbuf)
    import json
    assert json.loads(jbuf.getvalue())["estimate"] == res["estimate"]


def _reference_counts_csv(result, f):
    """The csv-module loop that core.write_csv replaced in counts_to_csv,
    kept verbatim in logic."""
    w = csv.writer(f)
    w.writerow(["eps", "n_eps"])
    for e, c in zip(result["eps"], result["counts"]):
        w.writerow([repr(float(e)), int(c)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_counts_csv_matches_reference(seed):
    pts = np.random.default_rng(seed).random((200, 3))
    res = box_counting_dim(make_sample(pts), dyadic_eps(0.5, 7))
    got, want = io.StringIO(), io.StringIO()
    counts_to_csv(res, got)
    _reference_counts_csv(res, want)
    assert got.getvalue() == want.getvalue()
