import cmath
import csv
import io
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdedim.charroots import (CharRoot, SpectrumTable, char_value,
                              lambert_w, mode_roots, ordered_spectrum,
                              rightmost_real_part_bound, spectrum_to_csv,
                              winding_number)
from fdedim.errors import ConfigError, TruncationError

OMEGA = 0.5671432904097838  # the omega constant, solves w e^w = 1


class TestLambertW0:
    """The principal real branch, as the real part of lambert_w(x)."""

    def test_known_values(self):
        assert lambert_w(0.0).real == 0.0
        assert lambert_w(1.0).real == pytest.approx(OMEGA, rel=1e-14)
        assert lambert_w(math.e).real == pytest.approx(1.0, rel=1e-14)
        assert lambert_w(-1.0 / math.e).real == pytest.approx(-1.0, abs=2e-7)

    @given(st.floats(min_value=-0.36, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_defining_identity(self, x):
        w = lambert_w(x).real
        assert w * math.exp(w) == pytest.approx(x, rel=1e-12, abs=1e-12)


# within this distance of -1/e, W is too ill-conditioned (relative condition
# number 1/|1 + W|, about 140 at the edge) for two double implementations to
# agree to 1e-13: scipy itself is 1.1e-13 from the exact value at 1e-6
BRANCH_POINT_WINDOW = 1e-5


class TestLambertW:
    @given(st.floats(min_value=1e-6, max_value=1e12), st.booleans(),
           st.integers(min_value=-8, max_value=8))
    @example(1.0 / math.e - 1e-9, True, -1)
    @example(1.0 / math.e + 1e-9, True, 0)
    @example(1.0 / math.e - 2e-5, True, -1)
    @example(1e-6, True, -1)
    @example(1e12, False, 0)
    @settings(max_examples=500, deadline=None)
    def test_matches_scipy(self, mag, negative, k):
        x = -mag if negative else mag
        w = lambert_w(x, k)
        if abs(x + 1.0 / math.e) < BRANCH_POINT_WINDOW:
            assert abs(w * cmath.exp(w) - x) <= 1e-14 * (1.0 + abs(w)) * mag
        else:
            want = complex(scipy.special.lambertw(x, k))
            assert abs(w - want) <= 1e-13 * abs(want)

    def test_near_branch_point(self):
        # exact values (mpmath, 40 digits) where scipy's k = -1 value is
        # -1.0000000082; the tolerance is the condition number 1.4e4 times
        # a few ulp
        x = -1.0 / math.e + 1e-9
        assert lambert_w(x, -1) == pytest.approx(-1.0000737348695394,
                                                 rel=1e-11)
        assert lambert_w(x, 0) == pytest.approx(-0.9999262687548364,
                                                rel=1e-11)

    def test_real_branches_are_real(self):
        assert lambert_w(0.5).imag == 0.0
        assert lambert_w(-0.2).imag == 0.0
        assert lambert_w(-0.2, -1).imag == 0.0
        assert lambert_w(-1e-300, -1).imag == 0.0

    def test_zero(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(0.0, 1).real == -math.inf


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


def _top_real_root(c, b, r):
    """Largest real root of D from `mode_roots` (mode 1, so a = c - 1), or
    None.  Any floor below -c - 1/r is safe: W0 >= -1 puts the principal
    real root above it.  A margin of 1e-3 rather than criterion 2's 1 keeps
    the enumeration short: at margin 1 some draws below have ~500 roots."""
    roots = mode_roots(c - 1.0, b, r, 1, -c - 1.0 / r - 1e-3)
    return max((cr.value.real for cr in roots if not cr.is_pair),
               default=None)


class TestRealRightmostRoot:
    def test_no_delay_term(self):
        assert rightmost_real_part_bound(2.0, 0.0, 1.0) == -2.0
        assert _top_real_root(2.0, 0.0, 1.0) == -2.0

    def test_omega_constant(self):
        assert _top_real_root(0.0, -1.0, 1.0) == pytest.approx(
            OMEGA, rel=1e-12)

    def test_newton_oracle_agreement(self):
        rng = np.random.default_rng(10)
        tested = 0
        while tested < 100:
            c = rng.uniform(-2.0, 3.0)
            b = rng.uniform(-2.0, 2.0)
            r = rng.uniform(0.1, 2.0)
            if b != 0 and -b * r * math.exp(c * r) < -1.0 / math.e + 1e-3:
                continue
            root = _top_real_root(c, b, r)
            assert root is not None
            oracle = _newton_real_root_oracle(c, b, r, root + 1e-4)
            assert root == pytest.approx(oracle, abs=1e-10)
            tested += 1

    @pytest.mark.parametrize("c, b, r", [(0.0, -1.0, 1.0), (2.0, -0.3, 0.7),
                                         (-1.5, -2.5, 1.9), (720.0, -1.0, 1.0)])
    def test_equals_rightmost_bound_for_negative_b(self, c, b, r):
        # for b < 0 the bound is attained: it solves D(rho) = 0, also past
        # the log-argument switch at 700 (c = 720), where e^{c r} overflows
        bound = rightmost_real_part_bound(c, b, r)
        assert abs(char_value(bound, c, b, r)) <= 1e-12 * (1.0 + abs(c))
        if c < 700.0:
            assert _top_real_root(c, b, r) == pytest.approx(bound, rel=1e-13)

    def test_dominates_roots_in_box(self):
        c, b, r = 0.0, -1.0, 1.0
        top = _top_real_root(c, b, r)
        for root in mode_roots(c - 1.0, b, r, 1, -6.0):
            assert root.value.real <= top + 1e-9


def _roots_in_box(c, b, r, box):
    """The roots of `mode_roots` (mode 1, a = c - 1) inside the box, whose
    left edge is the enumeration's floor."""
    re0, re1, im0, im1 = box
    return [cr for cr in mode_roots(c - 1.0, b, r, 1, re0)
            if cr.value.real <= re1 and im0 <= cr.value.imag <= im1]


class TestRootsInBox:
    """The enumerated roots inside a box against its winding count."""

    def test_linear_case(self):
        box = (-3.0, -1.0, -1.0, 1.0)
        roots = _roots_in_box(2.0, 0.0, 1.0, box)
        assert len(roots) == 1
        assert roots[0].value == pytest.approx(-2.0)
        assert winding_number(2.0, 0.0, 1.0, box) == 1

    def test_omega_box(self):
        box = (0.0, 1.0, -1.0, 1.0)
        roots = _roots_in_box(0.0, -1.0, 1.0, box)
        assert len(roots) == 1
        assert roots[0].value.real == pytest.approx(OMEGA, abs=1e-10)
        assert winding_number(0.0, -1.0, 1.0, box) == 1

    def test_purely_imaginary_root(self):
        roots = _roots_in_box(0.0, math.pi / 2.0, 1.0, (-0.1, 0.1, 1.0, 2.0))
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
        roots = mode_roots(4.0, 0.3, 1.0, 1, box[0])
        assert sum(cr.real_dimension for cr in roots) == 10
        for cr in roots:
            assert box[0] <= cr.value.real <= box[1]
            assert abs(cr.value.imag) <= box[3]

    def test_residual_invariant(self):
        for root in mode_roots(0.0, 0.7, 1.3, 1, -5.0):
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
                roots = _roots_in_box(c, b, r, box)
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
        expected = -3.0 + 10.0 * scipy.special.lambertw(
            -0.1 * math.exp(0.3), 0).real
        assert max(cr.value.real for cr in real_roots) == pytest.approx(
            expected, abs=1e-10)

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


# every root of the README configs (a, b, r, max_mode, floor), in
# ordered_spectrum's order, as computed through scipy.special.lambertw; all
# multiplicities are 1
README_ROOTS = {
    (1.0, 0.3, 1.0, 3, -3.7): [
        (1, (-1.7530264667528612+1.7139106058517042j)),
        (2, (-2.4540766752634977+2.388158173635368j)),
        (3, (-3.197309804109355+2.7565934648681827j)),
        (1, (-3.2573319719096796+7.691953913090728j)),
        (2, (-3.3123840348302664+8.060372242623828j)),
        (3, (-3.570382527005384+8.501497684479078j)),
    ],
    (1.0, 0.3, 1.0, 6, -4.9): [
        (1, (-1.7530264667528612+1.7139106058517042j)),
        (2, (-2.4540766752634977+2.388158173635368j)),
        (3, (-3.197309804109355+2.7565934648681827j)),
        (1, (-3.2573319719096796+7.691953913090728j)),
        (2, (-3.3123840348302664+8.060372242623828j)),
        (3, (-3.570382527005384+8.501497684479078j)),
        (4, (-3.8075854280841352+2.923511494048074j)),
        (1, (-3.8521045678290298+14.005690354227603j)),
        (2, (-3.861611574213908+14.217068421282619j)),
        (3, (-3.9599510413636954+14.53110297767465j)),
        (4, (-3.960657896994382+8.829554624138883j)),
        (4, (-4.1803933515044935+14.849338508710805j)),
        (1, (-4.221100212465073+20.311432804836638j)),
        (2, (-4.223082499648639+20.458309653381033j)),
        (3, (-4.270587967552665+20.69049363643533j)),
        (5, (-4.2911757375220585+3.004085108743565j)),
        (5, (-4.35881622474+9.029501036329297j)),
        (4, (-4.400872349025768+20.96155003838154j)),
        (5, (-4.473260517489034+15.096375531499207j)),
        (1, (-4.489626884639913+26.610250169918206j)),
        (2, (-4.48966599950033+26.722632679054744j)),
        (3, (-4.5166189560545185+26.904592311171445j)),
        (4, (-4.59954373210448+27.132228747147497j)),
        (5, (-4.6092792157539595+21.209992757171637j)),
        (6, (-4.683963463586556+3.0475656794313473j)),
        (2, (-4.700394390104538+32.99580272593439j)),
        (1, (-4.700949608593297+32.90482277346951j)),
        (6, (-4.717133315658824+9.148628851749462j)),
        (3, (-4.717400127006192+33.14477312836188j)),
        (5, (-4.749168700534284+27.363847985530725j)),
        (4, (-4.773770462635067+33.33822617610183j)),
        (6, (-4.777871200407487+15.265527853150655j)),
        (6, (-4.857656959605722+21.403675014978386j)),
        (2, (-4.874517798274015+39.27310327706414j)),
        (1, (-4.8752481991805885+39.1966849449255j)),
        (5, (-4.883832045016082+33.54849586606453j)),
        (3, (-4.886066527532083+39.39898512494943j)),
    ],
    (2.0, 1.5, 0.5, 2, -3.2): [
        (1, (-1.8991739902546252+3.717394765223365j)),
        (2, (-2.6263758317389265+4.440913761391797j)),
    ],
}


@pytest.mark.parametrize("config", list(README_ROOTS))
def test_readme_roots_frozen(config):
    a, b, r, max_mode, floor = config
    t = ordered_spectrum(a, b, r, max_mode, floor)
    got = [(cr.mode, cr.multiplicity, cr.value)
           for grp in t.groups for cr in grp]
    want = README_ROOTS[config]
    assert [g[:2] for g in got] == [(mode, 1) for mode, _ in want]
    for (_, _, value), (_, ref) in zip(got, want):
        assert abs(value - ref) <= 1e-14 * abs(ref)


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
    # no root in a box to the right of the bound, by the argument principle
    for c, b, r in [(2.0, 0.5, 1.0), (0.0, -1.0, 1.0), (5.0, 2.0, 0.5)]:
        bound = rightmost_real_part_bound(c, b, r)
        assert winding_number(c, b, r, (bound + 1e-6, bound + 6.0,
                                        -20.0, 20.0),
                              samples_per_edge=1024) == 0


def test_char_root_real_dimension():
    assert CharRoot(complex(-1.0, 0.0), 1).real_dimension == 1
    assert CharRoot(complex(-1.0, 2.0), 1).real_dimension == 2
