import csv
import io
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from fdedim.charroots import (CharRoot, SpectrumTable, char_value,
                              lambert_w0, mode_roots, ordered_spectrum,
                              real_rightmost_root, rightmost_real_part_bound,
                              roots_in_box, spectrum_to_csv, winding_number)
from fdedim.errors import ConfigError, DomainError, TruncationError

OMEGA = 0.5671432904097838  # the omega constant, solves w e^w = 1


class TestLambertW0:
    def test_known_values(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(1.0) == pytest.approx(OMEGA, rel=1e-14)
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=2e-7)

    def test_below_branch_point(self):
        with pytest.raises(DomainError):
            lambert_w0(-0.5)

    def test_branch_point_float_clamped(self):
        # the float -1/e lies just below the true branch point, where
        # scipy's lambertw returns nan
        assert lambert_w0(-1.0 / math.e) == -1.0

    @given(st.floats(min_value=-0.36, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_defining_identity(self, x):
        w = lambert_w0(x)
        assert w * math.exp(w) == pytest.approx(x, rel=1e-12, abs=1e-12)


def _newton_real_root_oracle(c, b, r, x0):
    x = x0
    for _ in range(200):
        f = x + c + b * math.exp(-x * r)
        df = 1.0 - b * r * math.exp(-x * r)
        x_new = x - f / df
        if abs(x_new - x) < 1e-15 * max(1.0, abs(x)):
            return x_new
        x = x_new
    return x


class TestRealRightmostRoot:
    def test_no_delay_term(self):
        assert real_rightmost_root(2.0, 0.0, 1.0) == -2.0

    def test_omega_constant(self):
        assert real_rightmost_root(0.0, -1.0, 1.0) == pytest.approx(
            OMEGA, rel=1e-12)

    def test_below_branch_point_returns_none(self):
        # -b r e^{cr} = -e^2 < -1/e
        assert real_rightmost_root(2.0, 1.0, 1.0) is None

    def test_newton_oracle_agreement(self):
        rng = np.random.default_rng(10)
        tested = 0
        while tested < 100:
            c = rng.uniform(-2.0, 3.0)
            b = rng.uniform(-2.0, 2.0)
            r = rng.uniform(0.1, 2.0)
            if b != 0 and -b * r * math.exp(c * r) < -1.0 / math.e + 1e-3:
                continue
            root = real_rightmost_root(c, b, r)
            assert root is not None
            oracle = _newton_real_root_oracle(c, b, r, root + 1e-4)
            assert root == pytest.approx(oracle, abs=1e-10)
            tested += 1

    @pytest.mark.parametrize("c, b, r", [(0.0, -1.0, 1.0), (2.0, -0.3, 0.7),
                                         (-1.5, -2.5, 1.9), (720.0, -1.0, 1.0)])
    def test_equals_rightmost_bound_for_negative_b(self, c, b, r):
        # both go through one W0 path, so they agree bitwise
        assert real_rightmost_root(c, b, r) == rightmost_real_part_bound(c, b, r)

    def test_dominates_roots_in_box(self):
        c, b, r = 0.0, -1.0, 1.0
        top = real_rightmost_root(c, b, r)
        for root in roots_in_box(c, b, r, (-6.0, 1.0, -12.0, 12.0)):
            assert root.value.real <= top + 1e-9


class TestRootsInBox:
    def test_linear_case(self):
        roots = roots_in_box(2.0, 0.0, 1.0, (-3.0, -1.0, -1.0, 1.0))
        assert len(roots) == 1
        assert roots[0].value == pytest.approx(-2.0)

    def test_omega_box(self):
        roots = roots_in_box(0.0, -1.0, 1.0, (0.0, 1.0, -1.0, 1.0))
        assert len(roots) == 1
        assert roots[0].value.real == pytest.approx(OMEGA, abs=1e-10)

    def test_purely_imaginary_root(self):
        roots = roots_in_box(0.0, math.pi / 2.0, 1.0, (-0.1, 0.1, 1.0, 2.0))
        assert len(roots) == 1
        lam = roots[0].value
        assert lam.imag == pytest.approx(math.pi / 2.0, abs=1e-10)
        assert abs(char_value(lam, 0.0, math.pi / 2.0, 1.0)) < 1e-10

    def test_root_near_left_edge_counted_once(self):
        # the root -4.4897 + 26.72i lies 0.010 inside the left edge, closer
        # than the initial contour sample step of 0.08
        box = (-4.5, -1.7247232693199388,
               -31.864225332644537, 31.864225332644537)
        assert winding_number(5.0, 0.3, 1.0, box) == 10
        roots = roots_in_box(5.0, 0.3, 1.0, box)
        assert sum(cr.real_dimension for cr in roots) == 10
        for cr in roots:
            assert box[0] <= cr.value.real <= box[1]
            assert abs(cr.value.imag) <= box[3]

    def test_residual_invariant(self):
        for root in roots_in_box(1.0, 0.7, 1.3, (-5.0, 2.0, -15.0, 15.0)):
            lam = root.value
            assert abs(char_value(lam, 1.0, 0.7, 1.3)) < 1e-10 * (1 + abs(lam))

    def test_count_matches_refined_winding(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            c = rng.uniform(-1.0, 3.0)
            b = rng.uniform(-1.5, 1.5)
            r = rng.uniform(0.3, 1.5)
            # conjugate-symmetric box: a pair is either wholly in or out,
            # so real_dimension totals match the raw winding count
            half = 9.0 + rng.uniform(0, 0.5)
            box = (-4.0 + rng.uniform(-0.3, 0.3), 1.5 + rng.uniform(0, 0.4),
                   -half, half)
            try:
                roots = roots_in_box(c, b, r, box)
            except Exception:
                continue
            total = sum(cr.real_dimension for cr in roots)
            refined = winding_number(c, b, r, box, samples_per_edge=1024)
            assert total == refined


class TestModeRoots:
    def test_undelayed_single_root(self):
        roots = mode_roots(1.0, 0.0, 1.0, 1, -12.0)
        assert len(roots) == 1
        assert roots[0].value == pytest.approx(-2.0)
        assert roots[0].mode == 1

    def test_complex_pair_case(self):
        # c = 2, b = 0.5: Lambert argument -0.5 e^2 < -1/e, rightmost pair
        roots = mode_roots(1.0, 0.5, 1.0, 1, -2.0)
        assert len(roots) == 1
        assert roots[0].is_pair
        lam = roots[0].value
        oracle = -2.0 + complex(scipy.special.lambertw(-0.5 * math.e ** 2, 0))
        assert lam == pytest.approx(oracle, abs=1e-10)

    def test_short_delay_real_root(self):
        # a=2, b=1, r=0.1, n=1: W0 argument ~ -0.135 > -1/e
        roots = mode_roots(2.0, 1.0, 0.1, 1, -10.0)
        real_roots = [cr for cr in roots if not cr.is_pair]
        expected = -3.0 + 10.0 * lambert_w0(-0.1 * math.exp(0.3))
        assert max(cr.value.real for cr in real_roots) == pytest.approx(
            expected, abs=1e-10)

    def test_paper_sign_flag(self):
        default = mode_roots(1.0, 0.0, 1.0, 2, -20.0)   # c = a + 4
        flipped = mode_roots(5.0, 0.0, 1.0, 2, -20.0,
                             paper_sign=True)           # c = 5 - 4 = 1
        assert default[0].value == pytest.approx(-5.0)
        assert flipped[0].value == pytest.approx(-1.0)

    def test_overflowing_argument(self):
        # mode 30: c r = 901, so -b r e^{c r} is no float; the rightmost
        # bound puts every root below a desk-scale floor, while with
        # b = 1e300 it reaches the floor and the roots cannot be computed
        assert mode_roots(1.0, 0.3, 1.0, 30, -5.0) == []
        with pytest.raises(ConfigError, match="overflow"):
            mode_roots(1.0, 1e300, 1.0, 30, -1e9)


class TestOrderedSpectrum:
    def test_undelayed_ladder(self):
        t = ordered_spectrum(1.0, 0.0, 1.0, 3, -12.0)
        assert t.rhos == (-2.0, -5.0, -10.0)
        assert t.multiplicities == (1, 1, 1)
        assert t.cumulative == (1, 2, 3)
        assert t.k(2) == 2

    def test_strict_ordering_and_merge(self):
        t = ordered_spectrum(1.0, 0.1, 1.0, 3, -4.5)
        assert all(r1 > r2 for r1, r2 in zip(t.rhos, t.rhos[1:]))
        assert t.cumulative == tuple(np.cumsum(t.multiplicities))

    def test_invariant_under_max_mode_growth(self):
        t3 = ordered_spectrum(1.0, 0.1, 1.0, 3, -4.5)
        t5 = ordered_spectrum(1.0, 0.1, 1.0, 5, -4.5)
        assert t3.rhos == t5.rhos
        assert t3.multiplicities == t5.multiplicities

    def test_truncation_error_reports_mode(self):
        with pytest.raises(TruncationError) as exc:
            ordered_spectrum(1.0, 0.1, 1.0, 3, -12.0)
        assert exc.value.mode == 4

    def test_leading_level_negative_under_standing_assumption(self):
        # a > 0, b > 0, b - a < 1 implies the top real part is negative
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.uniform(0.01, 5.0)
            b = rng.uniform(0.01, min(5.0, a + 0.99))
            r = rng.uniform(0.1, 2.0)
            c = a + 1.0  # mode-1 offset dominates all modes
            rho1 = (-c + complex(
                scipy.special.lambertw(-b * r * math.exp(c * r), 0)) / r).real
            assert rho1 < 0.0

    def test_serialization(self):
        t = ordered_spectrum(1.0, 0.0, 1.0, 2, -9.0)
        buf = io.StringIO()
        spectrum_to_csv(t, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "rho,multiplicity,k_cumulative"
        assert lines[1].startswith("-2.0,1,1")
        d = t.to_dict()
        assert d["rhos"] == [-2.0, -5.0]
        assert d["truncation"]["max_mode"] == 2

    @pytest.mark.parametrize("a,b,r,max_mode,floor", [
        (1.0, 0.0, 1.0, 3, -15.0), (1.0, 0.3, 1.0, 3, -3.7),
        (1.0, 0.3, 1.0, 6, -4.9), (0.5, -2.0, 1.0, 2, -1.3),
        (2.0, 0.5, 0.5, 4, -6.0)])
    def test_csv_matches_reference(self, a, b, r, max_mode, floor):
        t = ordered_spectrum(a, b, r, max_mode, floor)
        got, want = io.StringIO(), io.StringIO()
        spectrum_to_csv(t, got)
        _reference_spectrum_csv(t, want)
        assert got.getvalue() == want.getvalue()


def _reference_spectrum_csv(table, f):
    """The csv-module loop that core.write_csv replaced in spectrum_to_csv
    (through the removed SpectrumTable.to_rows), kept verbatim in logic."""
    w = csv.writer(f)
    w.writerow(["rho", "multiplicity", "k_cumulative"])
    for rho, mult, cum in zip(table.rhos, table.multiplicities,
                              table.cumulative):
        w.writerow([repr(float(rho)), mult, cum])


class TestSpectrumTableInvariants:
    def test_rejects_nondecreasing(self):
        with pytest.raises(ConfigError):
            SpectrumTable(rhos=(-1.0, -1.0), multiplicities=(1, 1),
                          cumulative=(1, 2), truncation=(1, -5.0))

    def test_rejects_bad_cumulative(self):
        with pytest.raises(ConfigError):
            SpectrumTable(rhos=(-1.0, -2.0), multiplicities=(1, 2),
                          cumulative=(1, 2), truncation=(1, -5.0))


def test_rightmost_bound_continuous_across_overflow_switch():
    # log-argument c r + ln(|b| r) crosses 700 at c = 700 (b = -1, r = 1)
    vals = [rightmost_real_part_bound(c, -1.0, 1.0)
            for c in (699.999, 700.0, 700.001)]
    assert vals == pytest.approx([-6.541690, -6.541691, -6.541693], abs=5e-7)
    # equal steps on either side of the switch: no jump at c = 700
    assert vals[1] - vals[2] == pytest.approx(vals[0] - vals[1], rel=1e-3)
    assert vals[0] > vals[1] > vals[2]


def test_rightmost_bound_dominates_all_roots():
    for c, b, r in [(2.0, 0.5, 1.0), (0.0, -1.0, 1.0), (5.0, 2.0, 0.5)]:
        bound = rightmost_real_part_bound(c, b, r)
        for root in roots_in_box(c, b, r, (bound - 6.0, bound + 1.0,
                                           -20.0, 20.0)):
            assert root.value.real <= bound + 1e-9


def test_char_root_real_dimension():
    assert CharRoot(complex(-1.0, 0.0), 1).real_dimension == 1
    assert CharRoot(complex(-1.0, 2.0), 1).real_dimension == 2
