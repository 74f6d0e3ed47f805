import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdedim.core import (GridSpec, HistorySegment, hermite_basis,
                         interpolate, random_segment, random_smooth_segment,
                         sup_norm, write_csv)
from fdedim.errors import ConfigError, DomainError, ShapeError


def grid(n=33, d=1, r=1.0, norm="euclidean"):
    return GridSpec(delay_r=r, num_nodes=n, value_dim=d, value_norm=norm)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(delay_r=0.0, num_nodes=5, value_dim=1)
        with pytest.raises(ConfigError):
            GridSpec(delay_r=1.0, num_nodes=1, value_dim=1)
        with pytest.raises(ConfigError):
            GridSpec(delay_r=1.0, num_nodes=5, value_dim=0)
        with pytest.raises(ConfigError):
            GridSpec(delay_r=1.0, num_nodes=5, value_dim=1, value_norm="L1")

    def test_nodes_and_spacing(self):
        g = grid(n=5, r=2.0)
        assert g.spacing == 0.5
        assert np.allclose(g.nodes(), [-2.0, -1.5, -1.0, -0.5, 0.0])

    def test_modal_norm_scale(self):
        g = grid(d=2, norm="modal")
        # L2(0, pi) norm of sin(x) is sqrt(pi/2), coefficient vector (1, 0)
        assert g.value_space_norm(np.array([1.0, 0.0])) == pytest.approx(
            math.sqrt(math.pi / 2.0))


class TestHistorySegment:
    def test_shape_checks(self):
        g = grid(n=5, d=2)
        with pytest.raises(ShapeError):
            HistorySegment(g, np.zeros((5, 3)))
        with pytest.raises(ShapeError):
            HistorySegment(g, np.zeros((4, 2)))

    def test_values_read_only(self):
        h = HistorySegment.zero(grid(n=5))
        with pytest.raises(ValueError):
            h.values[0, 0] = 1.0

    def test_arithmetic(self):
        g = grid(n=5, d=2)
        rng = np.random.default_rng(0)
        a, b = random_segment(g, rng), random_segment(g, rng)
        assert np.allclose((a + b).values, a.values + b.values)
        assert np.allclose((a - b).values, a.values - b.values)
        assert np.allclose((2.5 * a).values, 2.5 * a.values)

    def test_incompatible_grids(self):
        with pytest.raises(ShapeError):
            HistorySegment.zero(grid(n=5)) + HistorySegment.zero(grid(n=9))

    def test_sup_norm_pythagoras(self):
        g = grid(n=3, d=2)
        h = HistorySegment(g, np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]))
        assert sup_norm(h) == pytest.approx(5.0)


class TestInterpolate:
    def test_exact_at_nodes(self):
        g = grid(n=9)
        rng = np.random.default_rng(1)
        h = random_segment(g, rng)
        for theta, val in zip(g.nodes(), h.values):
            assert interpolate(h, theta) == pytest.approx(val)

    def test_linear_reproduction(self):
        g = grid(n=7)
        h = HistorySegment.from_function(g, lambda th: 2.0 * th + 1.0)
        for theta in np.linspace(-1.0, 0.0, 40):
            assert interpolate(h, theta)[0] == pytest.approx(
                2.0 * theta + 1.0, abs=1e-12)

    def test_smooth_accuracy(self):
        # sin history on 64 nodes: max mid-interval error below 1e-6
        g = grid(n=64)
        h = HistorySegment.from_function(g, lambda th: math.sin(th))
        worst = max(
            abs(interpolate(h, th)[0] - math.sin(th))
            for th in np.linspace(-1.0, 0.0, 500))
        assert worst < 1e-6

    def test_domain_error(self):
        h = HistorySegment.zero(grid(n=5))
        with pytest.raises(DomainError):
            interpolate(h, -1.5)
        with pytest.raises(DomainError):
            interpolate(h, 0.5)

    @given(st.floats(min_value=-1.0, max_value=0.0))
    @settings(max_examples=50, deadline=None)
    def test_within_convex_hull_for_linear_data(self, theta):
        g = grid(n=11)
        h = HistorySegment.from_function(g, lambda th: th)
        assert -1.0 - 1e-9 <= interpolate(h, theta)[0] <= 1e-9


# ---------------------------------------------------------------------------
# write_csv against csv.writer with repr cells
# ---------------------------------------------------------------------------

_CELLS = {
    "float": st.floats(allow_subnormal=True) | st.sampled_from(
        [-0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308]),
    "int": st.integers(-2 ** 63, 2 ** 63 - 1),
    "str": st.text(),
}


@st.composite
def _tables(draw):
    """(header, columns as write_csv takes them, the same columns as Python
    values): number columns as a list or an ndarray, str columns as a
    list."""
    n = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                          max_size=4))
    header = draw(st.lists(st.text(), min_size=len(kinds),
                           max_size=len(kinds)))
    given_cols, values = [], []
    for kind in kinds:
        vals = draw(st.lists(_CELLS[kind], min_size=n, max_size=n))
        as_array = kind != "str" and draw(st.booleans())
        given_cols.append(np.array(vals) if as_array else vals)
        values.append(vals)
    return header, given_cols, values


class TestWriteCsv:
    @given(_tables())
    # the two cases the csv module quotes: a delimiter or quote in a cell,
    # and an empty cell alone on its row
    @example((["a", "b"], [['q",'], [1.0]], [['q",'], [1.0]]))
    @example((["h"], [["", "x"]], [["", "x"]]))
    @settings(max_examples=150, deadline=None)
    def test_matches_csv_writer(self, table):
        header, columns, values = table
        got, want = io.StringIO(), io.StringIO()
        write_csv(got, header, columns)
        w = csv.writer(want)
        w.writerow(header)
        for row in zip(*values):
            w.writerow([x if isinstance(x, str) else repr(x) for x in row])
        assert got.getvalue() == want.getvalue()

    def test_numpy_scalars_written_as_python_numbers(self):
        buf = io.StringIO()
        write_csv(buf, ["x", "k"], [[np.float64(0.1)], (np.int64(3),)])
        assert buf.getvalue() == "x,k\r\n0.1,3\r\n"

    def test_unequal_columns_rejected(self):
        with pytest.raises(ShapeError):
            write_csv(io.StringIO(), ["a", "b"], [[1.0, 2.0], [1.0]])


def test_hermite_basis_at_interval_ends():
    basis = hermite_basis(np.array([0.0, 1.0]))
    assert [b.tolist() for b in basis] == [[1.0, 0.0], [0.0, 0.0],
                                          [0.0, 1.0], [0.0, 0.0]]


def test_random_smooth_segment_is_smooth():
    g = grid(n=65)
    rng = np.random.default_rng(3)
    h = random_smooth_segment(g, rng)
    # second differences stay bounded, unlike i.i.d. noise
    d2 = np.diff(h.values[:, 0], 2)
    assert np.max(np.abs(d2)) < 50.0 * g.spacing ** 2 * 100
