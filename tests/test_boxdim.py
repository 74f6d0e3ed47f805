import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fdedim.boxdim import (DUPLICATE_RESOLUTION, AttractorSample, _dedup,
                           _distinct_rows, _num_distinct_rows, box_count,
                           box_counting_dim, counts_to_csv, diameter,
                           dyadic_eps, sample_attractor)
from fdedim.core import (GridSpec, HistorySegment, random_smooth_segment,
                         write_json)
from fdedim.errors import ConfigError, DegenerateSampleError
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
        assert _num_distinct_rows(keys) == len(ref)

    @given(point_clouds(), st.floats(1e-3, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_box_count(self, pts, eps):
        assert box_count(pts, eps) == box_count_reference(pts, eps)

    @given(point_clouds(), st.floats(1.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_box_counting_dim_counts_per_level(self, pts, eps_max):
        # the shared anchor and span give the per-level box_count counts
        eps = dyadic_eps(eps_max, 6)
        try:
            counts = box_counting_dim(make_sample(pts), eps)["counts"]
        except DegenerateSampleError as exc:
            counts = None
            assert "fewer than 2 distinct" in str(exc)
        ref = [box_count_reference(pts, e) for e in eps]
        assert counts in (ref, None)
        if counts is None:
            assert len(set(ref)) < 2 and ref[0] > 1

    @given(point_clouds())
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
                sample_attractor(lambda tr: tr, trajectories, transient,
                                 1.0, stride)
            return
        got = sample_attractor(lambda tr: tr, trajectories, transient, 1.0,
                               stride)
        ref = _dedup(np.array(pools), DUPLICATE_RESOLUTION)
        assert got.points.shape == ref.shape
        assert got.points.tobytes() == ref.tobytes()


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
        # two far-apart points: N_eps constant at 2 -> degenerate
        s = make_sample([[0.0, 0.0], [100.0, 100.0]])
        with pytest.raises(DegenerateSampleError):
            box_counting_dim(s, [1.0, 0.5, 0.25, 0.01])

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

        def simulate(phi):
            return simulate_rde(params, phi, 8.0, dt)

        return params, grid, simulate

    def test_contracting_system_collapses(self):
        _, grid, simulate = self._contracting_setup()
        rng = np.random.default_rng(67)
        ics = [random_smooth_segment(grid, rng) for _ in range(3)]
        s = sample_attractor(simulate, ics, transient=6.0, horizon=2.0,
                             stride=grid.spacing)
        assert np.max(np.abs(s.points)) < 1e-6
        assert diameter(s) < 1e-6

    def test_pooling_never_decreases_diameter(self):
        params = RDEParams(a=1.0, b=0.3, r=1.0, num_modes=2)
        grid = rde_grid(params, 17)
        dt = grid.spacing / 2.0

        def simulate(phi):
            return simulate_rde(params, phi, 4.0, dt)

        rng = np.random.default_rng(68)
        ics = [random_smooth_segment(grid, rng) for _ in range(4)]
        d2 = diameter(sample_attractor(simulate, ics[:2], 0.0, 4.0,
                                       grid.spacing))
        d4 = diameter(sample_attractor(simulate, ics, 0.0, 4.0,
                                       grid.spacing))
        assert d4 >= d2 - 1e-12

    def test_stride_must_align(self):
        _, grid, simulate = self._contracting_setup()
        phi = HistorySegment.zero(grid)
        with pytest.raises(ConfigError):
            sample_attractor(simulate, [phi], 0.0, 1.0,
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
