import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdedim.bounds import (BoundReport, OptimizeResult, SqueezeConstants,
                           _golden_min,
                           absorbing_entry_time, absorbing_radius,
                           bound_grid_csv, bound_report, eta, fractal_bound,
                           fractal_bound_alpha_free, hausdorff_bound,
                           hausdorff_bound_alpha_free, nonautonomous_bounds,
                           optimize_bound, rde_absorbing_envelope,
                           rde_constants, rfde_constants, zeta)
from fdedim.charroots import ordered_spectrum
from fdedim.core import write_json
from fdedim.errors import ConfigError, DomainError


def sc(M1=1.0, M2=1.0, M3=1.0, l0=0.0, l1=0.0, Lam=1, t0=1.0):
    return SqueezeConstants(M1=M1, M2=M2, M3=M3, lambda0=l0, lambda1=l1,
                            Lambda=Lam, t0=t0)


class TestSqueezeConstants:
    def test_validation(self):
        with pytest.raises(ConfigError):
            sc(M1=0.0)
        with pytest.raises(ConfigError):
            sc(M2=-1.0)
        with pytest.raises(ConfigError):
            sc(Lam=0)
        with pytest.raises(ConfigError):
            sc(t0=0.0)

    def test_gap_reported_not_enforced(self):
        assert sc(l0=1.0, l1=0.0).gap_ok
        assert not sc(l0=0.0, l1=1.0).gap_ok  # allowed, only flagged


class TestEta:
    def test_arithmetic_examples(self):
        assert eta(sc(), 2.0) == pytest.approx(6.0)
        assert eta(sc(M1=0.05, M2=0.05, M3=0.025), 2.0) == pytest.approx(0.25)

    def test_affine_in_alpha(self):
        c = sc(M1=0.7, M2=0.1, M3=0.1, l0=-0.3, l1=-1.0, t0=2.0)
        slope = c.M1 * math.exp(c.lambda0 * c.t0)
        for a1, a2 in [(0.1, 0.9), (0.5, 1.5)]:
            assert (eta(c, a2) - eta(c, a1)) == pytest.approx(
                slope * (a2 - a1), rel=1e-12)

    def test_alpha_positive_required(self):
        with pytest.raises(DomainError):
            eta(sc(), 0.0)


class TestZeta:
    def test_boundary_and_interior(self):
        assert zeta(sc(M2=0.25, M3=0.25), 0.5) == pytest.approx(1.0)
        assert zeta(sc(M2=0.125, M3=0.125), 0.25) == pytest.approx(0.5)

    def test_increasing_in_t0_when_rates_positive(self):
        vals = [zeta(sc(M2=0.1, M3=0.1, l0=0.5, l1=0.2, t0=t), 0.3)
                for t in (0.5, 1.0, 2.0)]
        assert vals[0] < vals[1] < vals[2]


class TestHausdorffBound:
    def test_unit_case(self):
        # Lambda=1, eta=0.25 at alpha=2: (-ln 4)/ln(1/4) = 1
        c = sc(M1=0.05, M2=0.05, M3=0.025)
        assert hausdorff_bound(c, 2.0) == pytest.approx(1.0)

    def test_lambda_two_case(self):
        # Lambda=2, eta=1/16 at alpha=2: (ln2 + 2 ln4)/(4 ln2) = 1.25
        c = sc(M1=0.0125, M2=0.0125, M3=0.00625, Lam=2)
        assert eta(c, 2.0) == pytest.approx(1.0 / 16.0)
        assert hausdorff_bound(c, 2.0) == pytest.approx(1.25)

    def test_infeasible_returns_none(self):
        assert hausdorff_bound(sc(), 2.0) is None

    def test_alpha_range(self):
        with pytest.raises(DomainError):
            hausdorff_bound(sc(), 2.5)
        with pytest.raises(DomainError):
            hausdorff_bound(sc(), 0.0)


class TestFractalBound:
    def test_unit_case(self):
        # Lambda=1, M1=2, zeta=0.5 at alpha=1: ln6/ln2
        c = sc(M1=2.0, M2=0.2, M3=0.2, l0=math.log(0.25), l1=0.0, Lam=1)
        assert zeta(c, 1.0) == pytest.approx(0.5)
        assert fractal_bound(c, 1.0) == pytest.approx(
            math.log(6.0) / math.log(2.0))

    def test_alpha_at_m1_rejected(self):
        with pytest.raises(DomainError):
            fractal_bound(sc(M1=2.0, M2=0.1, M3=0.1), 2.0)

    def test_infeasible_returns_none(self):
        assert fractal_bound(sc(M1=2.0), 1.0) is None


class TestAlphaFreeLimits:
    def test_hausdorff_limit_agrees(self):
        c = sc(M1=0.1, M2=0.05, M3=0.02, l0=-0.5, l1=-1.0)
        limit = hausdorff_bound(c, 2.0 - 1e-10)
        assert hausdorff_bound_alpha_free(c) == pytest.approx(limit, abs=1e-9)

    def test_fractal_limit_agrees(self):
        c = sc(M1=0.4, M2=0.05, M3=0.02, l0=-0.5, l1=-1.0)
        limit = fractal_bound(c, c.M1 * (1.0 - 1e-12))
        assert fractal_bound_alpha_free(c) == pytest.approx(limit, abs=1e-9)

    def test_fractal_near_limit_example(self):
        # M1 = alpha (1 + 1e-12): log factor collapses to ln 4
        c = sc(M1=1.0 + 1e-12, M2=0.1, M3=0.05, l0=-1.5, l1=-1.5, Lam=1)
        val = fractal_bound(c, 1.0)
        z = zeta(c, 1.0)
        assert val == pytest.approx(math.log(4.0) / (-math.log(z)), rel=1e-9)


class TestBoundReport:
    def test_flags_and_positivity(self):
        c = sc(M1=0.1, M2=0.05, M3=0.02, l0=-0.5, l1=-1.0)
        rep = bound_report(c, 0.05)
        assert rep.feasible["hausdorff_eta_lt_1"]
        assert rep.feasible["fractal_zeta_lt_1"]
        assert rep.hausdorff is not None and rep.hausdorff > 0
        assert rep.fractal is not None and rep.fractal > 0

    def test_infeasible_flags(self):
        rep = bound_report(sc(), 1.5)
        assert rep.hausdorff is None
        assert rep.fractal is None
        assert not rep.feasible["hausdorff_eta_lt_1"]
        assert not rep.feasible["fractal_alpha_range"]  # alpha >= M1

    def test_nonautonomous_identical_numbers(self):
        c = sc(M1=0.1, M2=0.05, M3=0.02, l0=-0.5, l1=-1.0)
        auto = bound_report(c, 0.05)
        non = nonautonomous_bounds(c, 0.05)
        assert non.variant == "nonautonomous"
        assert non.hausdorff == auto.hausdorff
        assert non.fractal == auto.fractal
        assert non.eta == auto.eta

    def test_variant_rejected(self):
        with pytest.raises(ConfigError):
            bound_report(sc(), 1.0, variant="periodic")


def _random_feasible_constants(rng):
    while True:
        c = sc(M1=rng.uniform(0.05, 0.5), M2=rng.uniform(0.01, 0.2),
               M3=rng.uniform(0.0, 0.1) + 1e-6,
               l0=rng.uniform(-1.0, -0.1), l1=rng.uniform(-2.0, -0.5),
               Lam=int(rng.integers(1, 4)), t0=rng.uniform(0.5, 2.0))
        alpha = rng.uniform(0.3, 1.9) * min(1.0, c.M1 / 2.0)
        if eta(c, alpha) < 0.95 and zeta(c, alpha) < 0.95:
            return c, alpha


class TestMonotonicity:
    def test_bounds_increase_with_contraction(self):
        # scaling M2 up raises eta/zeta and must raise both bounds
        rng = np.random.default_rng(30)
        for _ in range(20):
            c, alpha = _random_feasible_constants(rng)
            c2 = sc(M1=c.M1, M2=c.M2 * 1.05, M3=c.M3, l0=c.lambda0,
                    l1=c.lambda1, Lam=c.Lambda, t0=c.t0)
            if eta(c2, alpha) >= 1 or zeta(c2, alpha) >= 1:
                continue
            assert hausdorff_bound(c2, alpha) > hausdorff_bound(c, alpha)
            assert fractal_bound(c2, alpha) > fractal_bound(c, alpha)


class TestOptimizer:
    @staticmethod
    def _const(c):
        return lambda t0: sc(M1=c.M1, M2=c.M2, M3=c.M3, l0=c.lambda0,
                             l1=c.lambda1, Lam=c.Lambda, t0=t0)

    def test_matches_dense_scan_when_t0_free(self):
        # lambda0 = lambda1 = 0: eta independent of t0, optimum over alpha
        # alone; compare against a 10^4-point brute-force scan
        c = sc(M1=0.05, M2=0.03, M3=0.01)
        res = optimize_bound(self._const(c), (0.01, 1.99), (0.5, 1.5))
        assert res.feasible
        alphas = np.linspace(0.01, 1.99, 10_000)
        brute = min(hausdorff_bound(c, float(a)) for a in alphas)
        assert res.bound <= brute + 1e-6

    def test_dominance_over_interior_point(self):
        c = sc(M1=0.1, M2=0.05, M3=0.02, l0=-0.5, l1=-1.0)
        res = optimize_bound(self._const(c), (0.2, 1.8), (0.5, 2.0))
        assert res.feasible
        assert res.bound <= hausdorff_bound(
            sc(M1=0.1, M2=0.05, M3=0.02, l0=-0.5, l1=-1.0, t0=1.0), 1.0)

    def test_argmin_alpha_approaches_two(self):
        # as M1 e^{l0 t0} shrinks, the Hausdorff argmin in alpha moves to
        # the upper end of the range
        argmins = []
        for m1 in (0.5, 0.1, 0.01):
            c = sc(M1=m1, M2=0.02, M3=0.005, l0=0.0, l1=0.0)
            alphas = np.linspace(0.05, 1.99, 4000)
            vals = [hausdorff_bound(c, float(a)) for a in alphas]
            vals = [math.inf if v is None else v for v in vals]
            argmins.append(alphas[int(np.argmin(vals))])
        assert argmins[0] < argmins[1] < argmins[2]
        assert argmins[2] > 1.9

    def test_infeasible_structured_report(self):
        c = sc()  # eta >= 6 everywhere
        res = optimize_bound(self._const(c), (0.1, 1.9), (0.5, 1.5))
        assert not res.feasible
        assert res.bound is None
        assert "constraint" in res.reasons
        assert res.min_contraction > 1.0

    def test_fractal_target(self):
        c = sc(M1=0.4, M2=0.05, M3=0.02, l0=-0.5, l1=-1.0)
        res = optimize_bound(self._const(c), (0.01, 0.39), (0.5, 2.0),
                             target="fractal")
        assert res.feasible
        assert res.bound > 0

    def test_bad_target(self):
        with pytest.raises(ConfigError):
            optimize_bound(self._const(sc()), (0.1, 1.9), (0.5, 1.5),
                           target="upper")

    def test_grid_csv(self):
        c = sc(M1=0.1, M2=0.05, M3=0.02, l0=-0.5, l1=-1.0)
        buf = io.StringIO()
        bound_grid_csv(self._const(c), (0.2, 1.8), (0.5, 2.0), buf, grid=8)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "alpha,t0,contraction,bound"
        assert len(lines) == 65


# Reference implementations: the per-cell grid loops that `_scan_grid`
# replaced in optimize_bound and bound_grid_csv, kept verbatim in logic.

def _reference_optimize_bound(sc_of_t0, alpha_range, t0_range, target,
                              grid):
    a_lo, a_hi = map(float, alpha_range)
    t_lo, t_hi = map(float, t0_range)

    def evaluate(alpha, t0):
        try:
            c = sc_of_t0(t0)
        except (ConfigError, DomainError):
            return math.inf, math.inf
        if target == "hausdorff":
            if not 0.0 < alpha < 2.0:
                return math.inf, math.inf
            contraction = eta(c, alpha)
            val = hausdorff_bound(c, alpha)
        else:
            if not 0.0 < alpha < c.M1:
                return math.inf, math.inf
            contraction = zeta(c, alpha)
            val = fractal_bound(c, alpha)
        return (val if val is not None else math.inf), contraction

    alphas = np.linspace(a_lo, a_hi, grid)
    t0s = np.linspace(t_lo, t_hi, grid)
    best = (math.inf, None, None)
    min_contraction = math.inf
    for t0 in t0s:
        for alpha in alphas:
            val, contraction = evaluate(alpha, t0)
            min_contraction = min(min_contraction, contraction)
            if val < best[0]:
                best = (val, alpha, t0)
    if best[1] is None:
        return OptimizeResult(
            feasible=False, alpha=None, t0=None, bound=None, target=target,
            min_contraction=min_contraction,
            reasons={"constraint": f"{'eta' if target == 'hausdorff' else 'zeta'} >= 1 "
                                   "everywhere on the grid",
                     "min_contraction": min_contraction})
    _, alpha, t0 = best
    for _ in range(3):
        alpha = _golden_min(lambda a: evaluate(a, t0)[0], a_lo, a_hi)
        t0 = _golden_min(lambda t: evaluate(alpha, t)[0], t_lo, t_hi)
    val, _ = evaluate(alpha, t0)
    if val > best[0]:
        val, alpha, t0 = best
    return OptimizeResult(
        feasible=True, alpha=float(alpha), t0=float(t0), bound=float(val),
        target=target, min_contraction=min_contraction, reasons={})


def _reference_bound_grid_csv(sc_of_t0, alpha_range, t0_range, f, target,
                              grid):
    a_lo, a_hi = map(float, alpha_range)
    t_lo, t_hi = map(float, t0_range)
    w = csv.writer(f)
    w.writerow(["alpha", "t0", "contraction", "bound"])
    for t0 in np.linspace(t_lo, t_hi, grid):
        try:
            c = sc_of_t0(float(t0))
        except (ConfigError, DomainError):
            continue
        for alpha in np.linspace(a_lo, a_hi, grid):
            alpha = float(alpha)
            try:
                if target == "hausdorff":
                    contraction = eta(c, alpha)
                    val = hausdorff_bound(c, alpha) if alpha < 2 else None
                else:
                    contraction = zeta(c, alpha)
                    val = fractal_bound(c, alpha) if alpha < c.M1 else None
            except DomainError:
                continue
            w.writerow([repr(alpha), repr(float(t0)), repr(contraction),
                        "" if val is None else repr(val)])


def _family(M1, M2, M3, l0, l1, Lam, m1_slope, hole):
    """t0 -> constants; M1 (and so the fractal alpha range) moves with t0
    when m1_slope > 0, and t0 inside the hole raises DomainError."""
    def sc_of_t0(t0):
        if hole[0] <= t0 <= hole[1]:
            raise DomainError(f"no constants at t0={t0}")
        return sc(M1=M1 * (1.0 + m1_slope * t0), M2=M2, M3=M3, l0=l0, l1=l1,
                  Lam=Lam, t0=t0)
    return sc_of_t0


_family_args = st.tuples(
    st.floats(0.05, 4.0), st.floats(0.001, 1.5), st.floats(0.0, 1.0),
    st.floats(-3.0, 1.0), st.floats(-5.0, 0.0), st.integers(1, 4),
    st.sampled_from([0.0, 0.5]),
    st.tuples(st.floats(0.0, 9.0), st.floats(0.0, 3.0)).map(
        lambda h: (h[0], h[0] + h[1])))
_t0_range = st.tuples(st.floats(0.05, 3.0), st.floats(0.01, 5.0)).map(
    lambda t: (t[0], t[0] + t[1]))
_NO_HOLE = (9.5, 9.5)
_FEASIBLE = (0.5, 0.05, 0.02, -0.5, -1.0, 1, 0.0, _NO_HOLE)


def _examples(cases):
    def decorate(test):
        for fam, alpha_range, target, grid in cases:
            test = example(fam=fam, alpha_range=alpha_range,
                           t0_range=(0.5, 3.0), target=target,
                           grid=grid)(test)
        return test
    return decorate


# Pinned cases: feasible on part of the grid with alpha crossing 2 or M1;
# eta/zeta >= 1 everywhere; sc_of_t0 raising at every t0; and, with
# lambda0 = lambda1 = 0 and dyadic constants, a grid alpha exactly at 2 or
# M1 with contraction < 1 and a contraction exactly 1 inside the range.
_PINNED = [
    (_FEASIBLE, (0.01, 2.5), "hausdorff", 16),
    (_FEASIBLE, (0.01, 1.0), "fractal", 16),
    ((2.0, 1.5, 1.0, 0.5, 0.0, 2, 0.5, _NO_HOLE), (0.01, 1.99),
     "hausdorff", 8),
    ((0.5, 0.05, 0.02, -0.5, -1.0, 1, 0.0, (0.0, 9.0)), (0.01, 1.99),
     "fractal", 8),
    ((0.125, 0.0625, 0.0625, 0.0, 0.0, 1, 0.0, _NO_HOLE), (0.5, 2.5),
     "hausdorff", 5),
    ((1.0, 0.125, 0.125, 0.0, 0.0, 1, 0.0, _NO_HOLE), (0.5, 2.5),
     "hausdorff", 5),
    ((0.5, 0.125, 0.125, 0.0, 0.0, 1, 0.0, _NO_HOLE), (0.25, 1.25),
     "fractal", 5),
    ((1.0, 0.25, 0.25, 0.0, 0.0, 1, 0.0, _NO_HOLE), (0.25, 1.25),
     "fractal", 5),
]


class TestGridScanMatchesReference:
    """The array scan of optimize_bound/bound_grid_csv equals the per-cell
    loops it replaced: the same OptimizeResult (min_contraction included)
    and byte-identical CSV text."""

    @given(fam=_family_args,
           alpha_range=st.tuples(st.floats(0.001, 3.0),
                                 st.floats(0.01, 4.0)).map(
               lambda a: (a[0], a[0] + a[1])),
           t0_range=_t0_range, target=st.sampled_from(["hausdorff",
                                                       "fractal"]),
           grid=st.integers(2, 16))
    @_examples(_PINNED)
    @settings(max_examples=80, deadline=None)
    def test_optimize_bound(self, fam, alpha_range, t0_range, target, grid):
        sc_of_t0 = _family(*fam)
        got = optimize_bound(sc_of_t0, alpha_range, t0_range, target, grid)
        want = _reference_optimize_bound(sc_of_t0, alpha_range, t0_range,
                                         target, grid)
        assert got.to_dict() == want.to_dict()

    @given(fam=_family_args,
           alpha_range=st.tuples(st.floats(-1.0, 3.0),
                                 st.floats(0.01, 4.0)).map(
               lambda a: (a[0], a[0] + a[1])),
           t0_range=_t0_range, target=st.sampled_from(["hausdorff",
                                                       "fractal"]),
           grid=st.integers(2, 16))
    @_examples(_PINNED + [(_FEASIBLE, (-0.5, 2.5), "hausdorff", 16),
                          (_FEASIBLE, (0.0, 1.0), "fractal", 16)])
    @settings(max_examples=80, deadline=None)
    def test_bound_grid_csv(self, fam, alpha_range, t0_range, target, grid):
        sc_of_t0 = _family(*fam)
        got, want = io.StringIO(), io.StringIO()
        bound_grid_csv(sc_of_t0, alpha_range, t0_range, got, target, grid)
        _reference_bound_grid_csv(sc_of_t0, alpha_range, t0_range, want,
                                  target, grid)
        assert got.getvalue() == want.getvalue()


class TestRdeConstants:
    def test_undelayed_example(self):
        spec = ordered_spectrum(1.0, 0.0, 1.0, 2, -9.0)  # rhos -2, -5
        c = rde_constants(spec, 1, 0.1, 1.0, 1.0)
        # b = 0: P phi = e^{lambda_1 theta} phi_1(0) has norm e^{|rho_1| r};
        # the linear and the forcing term of the certified M1 each give e^2
        assert c.M1 == pytest.approx(2.0 * math.exp(2.0))
        assert c.lambda0 == pytest.approx(-1.9)
        assert c.lambda1 == pytest.approx(-2.0)
        assert c.M2 == 1.0
        # M3 = K * L_f / (rho1 + L_f - rho_m) = 0.1/0.1 at m=1
        assert c.M3 == pytest.approx(1.0)
        assert c.Lambda == 1

    def test_linear_case(self):
        spec = ordered_spectrum(1.0, 0.0, 1.0, 2, -9.0)
        c = rde_constants(spec, 1, 0.0, 2.5, 1.0)
        assert c.M3 == 0.0
        assert c.lambda0 == pytest.approx(-2.0)

    def test_statement_m1_flag(self):
        spec = ordered_spectrum(1.0, 0.0, 1.0, 2, -9.0)
        assert rde_constants(spec, 1, 0.1, 1.0, 1.0,
                             statement_m1=True).M1 == 2.0

    def test_lambda_passthrough(self):
        spec = ordered_spectrum(1.0, 0.0, 1.0, 3, -15.0)
        assert rde_constants(spec, 2, 0.0, 1.0, 1.0).Lambda == spec.k(2)

    def test_cut_needs_next_level(self):
        spec = ordered_spectrum(1.0, 0.0, 1.0, 2, -9.0)
        with pytest.raises(ConfigError):
            rde_constants(spec, 2, 0.1, 1.0, 1.0)

    def test_monotone_in_m_when_feasible(self):
        # k_m grows with m; each cut optimized at its own (alpha, t0)
        # never yields a smaller Hausdorff bound
        spec = ordered_spectrum(1.0, 0.0, 1.0, 4, -25.0)
        bounds = []
        for m in (1, 2, 3):
            def make(t0, m=m):
                return rde_constants(spec, m, 0.05, 1.0, t0)
            res = optimize_bound(make, (0.01, 1.99), (0.1, 3.0))
            assert res.feasible
            bounds.append(res.bound)
        assert bounds[0] <= bounds[1] + 1e-9 <= bounds[2] + 2e-9


class TestRfdeConstants:
    def test_arithmetic_example(self):
        c = rfde_constants(K0=0.5, gamma=1.0, beta=-2.0, K=1.0, L_f=0.2,
                           t0=1.0, Lambda=1)
        assert c.lambda0 == pytest.approx(-0.9)
        assert c.lambda1 == -2.0
        assert c.M3 == pytest.approx(0.1 / 1.1)
        assert c.M1 == pytest.approx(1.5)  # K0 + K
        assert c.gap_ok  # beta < -gamma < L_f K0 - gamma always

    def test_linear_case(self):
        c = rfde_constants(K0=0.5, gamma=1.0, beta=-2.0, K=1.0, L_f=0.0,
                           t0=1.0, Lambda=1)
        assert c.M3 == 0.0
        assert c.lambda0 == pytest.approx(-1.0)

    def test_statement_flag(self):
        c = rfde_constants(K0=0.5, gamma=1.0, beta=-2.0, K=1.0, L_f=0.2,
                           t0=1.0, Lambda=1, statement_m1=True)
        assert c.M1 == 2.0

    def test_precondition(self):
        with pytest.raises(DomainError):
            rfde_constants(K0=0.5, gamma=1.0, beta=-0.5, K=1.0, L_f=0.2,
                           t0=1.0, Lambda=1)
        with pytest.raises(DomainError):
            rfde_constants(K0=0.5, gamma=-1.0, beta=-2.0, K=1.0, L_f=0.2,
                           t0=1.0, Lambda=1)


class TestAbsorbing:
    def test_radius_example(self):
        assert absorbing_radius(0.5, 1.0, 1.0, 0.0) == pytest.approx(4.0)

    def test_radius_small_k0_limit(self):
        assert absorbing_radius(1e-12, 1.0, 1.0, 0.0) == pytest.approx(
            1.0, rel=1e-9)

    def test_radius_preconditions(self):
        with pytest.raises(DomainError):
            absorbing_radius(1.5, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            absorbing_radius(0.5, 1.0, 3.0, 0.0)
        with pytest.raises(ConfigError):
            absorbing_radius(0.5, 1.0, 1.0, -1.0)

    def test_entry_time_increasing_in_r_d(self):
        times = [absorbing_entry_time(0.5, 1.0, 1.0, 0.5, rd)
                 for rd in (10.0, 100.0, 1000.0)]
        assert times[0] < times[1] < times[2]
        # tenfold radius adds ln(10)/gamma
        assert times[1] - times[0] == pytest.approx(math.log(10.0))

    def test_envelope_linear_homogeneous(self):
        # c1 = 0, L_f = 0: pure exponential decay
        val = rde_absorbing_envelope(2.0, 10.0, 3.0, 0.0, 3.1, 0.0, 0.2)
        assert val == pytest.approx(
            math.exp(3.1 * 0.2) * 10.0 * math.exp(-3.0 * 2.0))

    def test_envelope_long_time_limit(self):
        a, L_f, delta, c1, r = 3.0, 0.5, 3.1, 1.0, 0.2
        edr = math.exp(delta * r)
        limit = c1 * edr / (a - L_f * edr)
        assert rde_absorbing_envelope(200.0, 10.0, a, L_f, delta, c1,
                                      r) == pytest.approx(limit)

    def test_envelope_direct_evaluation(self):
        a, L_f, delta, c1, r, phi, t = 3.0, 0.5, 3.1, 1.0, 0.2, 10.0, 2.0
        edr = math.exp(delta * r)
        gap = a - L_f * edr
        expect = c1 * edr / gap + edr * (phi - c1 / gap) * math.exp(-gap * t)
        assert rde_absorbing_envelope(t, phi, a, L_f, delta, c1,
                                      r) == pytest.approx(expect, rel=1e-12)

    def test_envelope_needs_delta_above_a(self):
        with pytest.raises(DomainError):
            rde_absorbing_envelope(1.0, 1.0, 3.0, 0.5, 2.9, 1.0, 0.2)


def test_report_json_roundtrip():
    c = sc(M1=0.1, M2=0.05, M3=0.02, l0=-0.5, l1=-1.0)
    rep = bound_report(c, 0.05)
    buf = io.StringIO()
    write_json(rep.to_dict(), buf)
    import json
    back = json.loads(buf.getvalue())
    assert back["hausdorff"] == rep.hausdorff
    assert back["variant"] == "autonomous"


@given(st.floats(min_value=0.05, max_value=1.95),
       st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_feasible_bounds_positive(alpha, t0):
    c = sc(M1=0.2, M2=0.05, M3=0.02, l0=-0.5, l1=-1.0, t0=t0)
    rep = bound_report(c, alpha)
    if rep.hausdorff is not None:
        assert rep.hausdorff > 0
    if rep.fractal is not None:
        assert rep.fractal > 0
