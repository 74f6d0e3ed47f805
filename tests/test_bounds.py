import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdedim.bounds import (BoundReport, OptimizeResult, SqueezeConstants,
                           _best_t0, _evaluate, _log_contraction,
                           absorbing_entry_time, absorbing_radius,
                           bound_grid_csv, bound_report, eta, fractal_bound,
                           fractal_bound_alpha_free, hausdorff_bound,
                           hausdorff_bound_alpha_free, optimize_bound,
                           rde_absorbing_envelope, rde_constants, rde_halanay,
                           rfde_constants, zeta)
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
        assert hausdorff_bound_alpha_free(c) == hausdorff_bound(c, 2.0)

    def test_fractal_limit_agrees(self):
        c = sc(M1=0.4, M2=0.05, M3=0.02, l0=-0.5, l1=-1.0)
        limit = fractal_bound(c, c.M1 * (1.0 - 1e-12))
        assert fractal_bound_alpha_free(c) == pytest.approx(limit, abs=1e-9)
        L = c.Lambda
        assert fractal_bound_alpha_free(c) == \
            (math.log(L) + L * math.log(4.0)) / -math.log(zeta(c, c.M1))

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
    def test_matches_dense_scan_when_t0_free(self):
        # lambda0 = lambda1 = 0: eta independent of t0, optimum over alpha
        # alone; compare against a 10^4-point brute-force scan
        c = sc(M1=0.05, M2=0.03, M3=0.01)
        res = optimize_bound(c, (0.01, 1.99), (0.5, 1.5))
        assert res.feasible
        alphas = np.linspace(0.01, 1.99, 10_000)
        brute = min(hausdorff_bound(c, float(a)) for a in alphas)
        assert res.bound <= brute + 1e-6

    def test_dominance_over_interior_point(self):
        c = sc(M1=0.1, M2=0.05, M3=0.02, l0=-0.5, l1=-1.0)
        res = optimize_bound(c, (0.2, 1.8), (0.5, 2.0))
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
        res = optimize_bound(c, (0.1, 1.9), (0.5, 1.5))
        assert not res.feasible
        assert res.bound is None
        assert "constraint" in res.reasons
        assert res.min_contraction > 1.0

    def test_fractal_target(self):
        c = sc(M1=0.4, M2=0.05, M3=0.02, l0=-0.5, l1=-1.0)
        res = optimize_bound(c, (0.01, 0.39), (0.5, 2.0),
                             target="fractal")
        assert res.feasible
        assert res.bound > 0

    def test_bad_target(self):
        with pytest.raises(ConfigError):
            optimize_bound(sc(), (0.1, 1.9), (0.5, 1.5),
                           target="upper")

    def test_grid_csv(self):
        c = sc(M1=0.1, M2=0.05, M3=0.02, l0=-0.5, l1=-1.0)
        buf = io.StringIO()
        bound_grid_csv(optimize_bound(c, (0.2, 1.8), (0.5, 2.0), grid=8),
                       buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "alpha,t0,contraction,bound"
        assert len(lines) == 65


# Reference implementations: the per-cell grid loops that the array scan
# replaced in optimize_bound and bound_grid_csv, kept verbatim in logic,
# and the coordinate-wise golden-section search that the closed-form t0 and
# the alpha zoom replaced.

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(fn, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Golden-section argmin of fn on [lo, hi] (inf = infeasible)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return c if fc <= fd else d


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
    # the scan: every cell's eta or zeta, and its bound (NaN where none)
    cells = np.empty((grid, grid))
    bounds = np.full((grid, grid), math.nan)
    for i, t0 in enumerate(t0s):
        for j, alpha in enumerate(alphas):
            val, contraction = evaluate(alpha, t0)
            min_contraction = min(min_contraction, contraction)
            if val < best[0]:
                best = (val, alpha, t0)
            c = sc_of_t0(t0)
            cells[i, j] = (eta if target == "hausdorff" else zeta)(c, alpha)
            if val < math.inf:
                bounds[i, j] = val
    scan = (alphas, t0s, cells, bounds)
    if best[1] is None:
        return OptimizeResult(
            feasible=False, alpha=None, t0=None, bound=None, target=target,
            min_contraction=min_contraction,
            reasons={"constraint": f"{'eta' if target == 'hausdorff' else 'zeta'} >= 1 "
                                   "everywhere on the grid",
                     "min_contraction": min_contraction}, scan=scan)
    _, alpha, t0 = best
    for _ in range(3):
        alpha = _golden_min(lambda a: evaluate(a, t0)[0], a_lo, a_hi)
        t0 = _golden_min(lambda t: evaluate(alpha, t)[0], t_lo, t_hi)
    val, _ = evaluate(alpha, t0)
    if val > best[0]:
        val, alpha, t0 = best
    return OptimizeResult(
        feasible=True, alpha=float(alpha), t0=float(t0), bound=float(val),
        target=target, min_contraction=min_contraction, reasons={},
        scan=scan)


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


def _family(M1, M2, M3, l0, l1, Lam):
    """Constants whose t0 the optimizer replaces (t0 = 1 is a placeholder)."""
    return sc(M1=M1, M2=M2, M3=M3, l0=l0, l1=l1, Lam=Lam)


def _of_t0(c):
    """The t0 -> constants callable the reference loops take."""
    return lambda t0: replace(c, t0=t0)


_family_args = st.tuples(
    st.floats(0.05, 4.0), st.floats(0.001, 1.5), st.floats(0.0, 1.0),
    st.floats(-3.0, 1.0), st.floats(-5.0, 0.0), st.integers(1, 4))
_t0_range = st.tuples(st.floats(0.05, 3.0), st.floats(0.01, 5.0)).map(
    lambda t: (t[0], t[0] + t[1]))
_FEASIBLE = (0.5, 0.05, 0.02, -0.5, -1.0, 1)


def _examples(cases):
    def decorate(test):
        for fam, alpha_range, target, grid in cases:
            test = example(fam=fam, alpha_range=alpha_range,
                           t0_range=(0.5, 3.0), target=target,
                           grid=grid)(test)
        return test
    return decorate


# Pinned cases: feasible on part of the grid with alpha crossing 2 or M1;
# eta/zeta >= 1 everywhere; and, with lambda0 = lambda1 = 0 and dyadic
# constants, a grid alpha exactly at 2 or M1 with contraction < 1 and a
# contraction exactly 1 inside the range.
_PINNED = [
    (_FEASIBLE, (0.01, 2.5), "hausdorff", 16),
    (_FEASIBLE, (0.01, 1.0), "fractal", 16),
    ((2.0, 1.5, 1.0, 0.5, 0.0, 2), (0.01, 1.99), "hausdorff", 8),
    (_FEASIBLE, (0.01, 1.99), "fractal", 8),
    ((0.125, 0.0625, 0.0625, 0.0, 0.0, 1), (0.5, 2.5), "hausdorff", 5),
    ((1.0, 0.125, 0.125, 0.0, 0.0, 1), (0.5, 2.5), "hausdorff", 5),
    ((0.5, 0.125, 0.125, 0.0, 0.0, 1), (0.25, 1.25), "fractal", 5),
    ((1.0, 0.25, 0.25, 0.0, 0.0, 1), (0.25, 1.25), "fractal", 5),
]


# fdedim optimize --M1 0.5 --M2 0.05 --M3 0.02 --lambda0 0.3 --lambda1 -1
# --Lambda 1 --alpha-min 0.01 --alpha-max 1.99 --t0-min 0.1 --t0-max 20:
# lambda0 > 0 > lambda1, so the best t0 is interior at every alpha
_INTERIOR = dict(fam=(0.5, 0.05, 0.02, 0.3, -1.0, 1), alpha_range=(0.01, 1.99),
                 t0_range=(0.1, 20.0), target="hausdorff", grid=64)


class TestGridScanMatchesReference:
    """The array scan of optimize_bound, and bound_grid_csv's text of it,
    equal the per-cell loops they replaced: the same scan, feasibility,
    min_contraction and reasons, and byte-identical CSV text.  The optimum
    is no worse than the golden-section search's, to 1e-7 relative."""

    @given(fam=_family_args,
           alpha_range=st.tuples(st.floats(0.001, 3.0),
                                 st.floats(0.01, 4.0)).map(
               lambda a: (a[0], a[0] + a[1])),
           t0_range=_t0_range, target=st.sampled_from(["hausdorff",
                                                       "fractal"]),
           grid=st.integers(2, 16))
    @_examples(_PINNED)
    @example(**_INTERIOR)
    @settings(max_examples=80, deadline=None)
    def test_optimize_bound(self, fam, alpha_range, t0_range, target, grid):
        c = _family(*fam)
        got = optimize_bound(c, alpha_range, t0_range, target, grid)
        want = _reference_optimize_bound(_of_t0(c), alpha_range, t0_range,
                                         target, grid)
        assert (got.feasible, got.min_contraction, got.reasons) == \
            (want.feasible, want.min_contraction, want.reasons)
        for mine, ref in zip(got.scan, want.scan):
            np.testing.assert_array_equal(mine, ref)
        if got.feasible:
            assert got.bound <= want.bound * (1.0 + 1e-7)
            scalar = (hausdorff_bound if target == "hausdorff"
                      else fractal_bound)
            assert scalar(replace(c, t0=got.t0), got.alpha) == got.bound
        else:
            assert got.bound is want.bound is None

    def test_interior_optimum_beats_golden_section(self):
        c = _family(*_INTERIOR["fam"])
        args = [_INTERIOR[k] for k in ("alpha_range", "t0_range", "target",
                                       "grid")]
        got = optimize_bound(c, *args)
        want = _reference_optimize_bound(_of_t0(c), *args)
        assert want.bound == 2.0226703501634695
        assert got.bound < want.bound
        assert _INTERIOR["t0_range"][0] < got.t0 < _INTERIOR["t0_range"][1]

    @given(fam=_family_args,
           alpha_range=st.tuples(st.floats(0.001, 3.0),
                                 st.floats(0.01, 4.0)).map(
               lambda a: (a[0], a[0] + a[1])),
           t0_range=_t0_range, target=st.sampled_from(["hausdorff",
                                                       "fractal"]),
           grid=st.integers(2, 16))
    @_examples(_PINNED)
    @settings(max_examples=80, deadline=None)
    def test_bound_grid_csv(self, fam, alpha_range, t0_range, target, grid):
        c = _family(*fam)
        got, want = io.StringIO(), io.StringIO()
        bound_grid_csv(optimize_bound(c, alpha_range, t0_range, target,
                                      grid), got)
        _reference_bound_grid_csv(_of_t0(c), alpha_range, t0_range, want,
                                  target, grid)
        assert got.getvalue() == want.getvalue()


_rate = st.one_of(st.just(0.0), st.floats(-100.0, 2.0))


class TestBestT0:
    """_best_t0's t0 is no worse than a dense scan of the t0 range, at
    every sign of lambda0 and lambda1, also where the lambda0 term
    underflows (lambda0 t0 < -745)."""

    @given(fam=st.tuples(st.floats(0.05, 4.0), st.floats(0.001, 1.5),
                         st.floats(0.0, 1.0), _rate, _rate,
                         st.integers(1, 4)),
           alpha=st.floats(0.001, 4.0), t0_range=_t0_range,
           hausdorff=st.booleans())
    @example(fam=(0.5, 0.05, 0.02, 0.0, 0.0, 1), alpha=1.0,
             t0_range=(0.5, 3.0), hausdorff=True)
    @example(fam=(0.5, 0.05, 0.02, 0.3, -1.0, 1), alpha=0.12,
             t0_range=(0.1, 20.0), hausdorff=True)
    @example(fam=(0.5, 0.05, 0.02, -1.0, 0.3, 1), alpha=0.2,
             t0_range=(0.1, 20.0), hausdorff=False)
    @example(fam=(2.0, 1.0, 0.5, -41.0, -45.0, 1), alpha=1.0,
             t0_range=(18.5, 20.0), hausdorff=True)
    @example(fam=(2.0, 1.0, 0.5, -60.0, 0.01, 1), alpha=1.0,
             t0_range=(13.0, 20.0), hausdorff=False)
    @example(fam=(2.0, 1.0, 0.5, 0.01, -60.0, 1), alpha=1.0,
             t0_range=(13.0, 20.0), hausdorff=True)
    @example(fam=(2.0, 1.0, 0.5, 5e-324, -1.0, 1), alpha=1.0,
             t0_range=(0.5, 3.0), hausdorff=True)
    @example(fam=(0.1, 0.01, 0.0, 1.0, -5e-324, 1), alpha=0.001,
             t0_range=(0.5, 3.0), hausdorff=True)
    @settings(max_examples=150, deadline=None)
    def test_no_worse_than_dense_scan(self, fam, alpha, t0_range, hausdorff):
        c = _family(*fam)
        t_lo, t_hi = t0_range
        (t,) = _best_t0(c, np.array([alpha]), t_lo, t_hi, hausdorff)
        assert t_lo <= t <= t_hi
        ts = np.linspace(t_lo, t_hi, 2001)
        (best,), _ = _evaluate(c, np.array([alpha]), np.array([t]), hausdorff)
        dense, _ = _evaluate(c, np.array([alpha]), ts, hausdorff)
        assert best <= dense.min() * (1.0 + 1e-12)
        # in logs, which stay finite where the contraction underflows
        log_best = _log_contraction(c, alpha, t, hausdorff)
        log_dense = min(_log_contraction(c, alpha, x, hausdorff)
                        for x in ts.tolist())
        assert log_best <= log_dense + 1e-12 * max(1.0, abs(log_dense))


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
            res = optimize_bound(rde_constants(spec, m, 0.05, 1.0, 0.1),
                                 (0.01, 1.99), (0.1, 3.0))
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
        # c1 = 0, b = L_f = 0: y_1' = -(1 + a) y_1, so gamma = 1 + a and the
        # window sup-norm decays from |phi| after the lag r
        val = rde_absorbing_envelope(2.0, 10.0, 3.0, 0.0, 0.0, 0.0, 0.2)
        assert val == pytest.approx(10.0 * math.exp(-4.0 * 1.8), rel=1e-12)

    def test_envelope_long_time_limit(self):
        a, b, L_f, c1, r = 3.0, 0.3, 0.5, 1.0, 0.2
        limit = c1 / (1.0 + a - b - L_f)
        assert rde_absorbing_envelope(200.0, 10.0, a, b, L_f, c1,
                                      r) == pytest.approx(limit, rel=1e-12)
        # a history inside the radius stays under the radius
        assert rde_absorbing_envelope(0.0, 0.1, a, b, L_f, c1,
                                      r) == pytest.approx(limit, rel=1e-12)

    def test_envelope_direct_evaluation(self):
        a, b, L_f, c1, r, phi = 3.0, 0.3, 0.5, 1.0, 0.2, 10.0
        gamma, R = rde_halanay(a, b, L_f, c1, r)
        # gamma is the Halanay rate: gamma = (1 + a) - (b + L_f) e^{gamma r}
        assert gamma > 0
        assert gamma == pytest.approx(
            1.0 + a - (b + L_f) * math.exp(gamma * r), rel=1e-12)
        assert R == pytest.approx(c1 / (1.0 + a - b - L_f), rel=1e-15)
        t = np.array([0.0, 0.1, 0.2, 2.0])
        env = rde_absorbing_envelope(t, phi, a, b, L_f, c1, r)
        expect = R + (phi - R) * np.exp(-gamma * np.maximum(t - r, 0.0))
        np.testing.assert_allclose(env, expect, rtol=1e-12)
        # the window still holds phi for t <= r
        np.testing.assert_allclose(env[:3], phi, rtol=4e-16)
        assert env[3] == rde_absorbing_envelope(2.0, phi, a, b, L_f, c1, r)

    def test_envelope_needs_dissipation(self):
        # applies iff b + L_f < 1 + a
        with pytest.raises(DomainError):
            rde_absorbing_envelope(1.0, 1.0, 1.0, 1.5, 0.5, 1.0, 0.2)
        with pytest.raises(DomainError):
            rde_halanay(1.0, 1.9, 0.2, 1.0, 2.0)
        assert rde_halanay(1.0, 1.5, 0.4, 1.0, 0.2)[0] > 0


def test_report_json_roundtrip():
    c = sc(M1=0.1, M2=0.05, M3=0.02, l0=-0.5, l1=-1.0)
    rep = bound_report(c, 0.05)
    buf = io.StringIO()
    write_json(rep.to_dict(), buf)
    import json
    back = json.loads(buf.getvalue())
    assert back["hausdorff"] == rep.hausdorff


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


def _reference_hausdorff_bound(c, alpha):
    """hausdorff_bound as it was before the underflow fix, verbatim in
    logic: math.log of eta, which raises where eta underflows to 0."""
    e = eta(c, alpha)
    if e >= 1.0:
        return None
    L = c.Lambda
    return (-math.log(L) - L * math.log(2.0 + 4.0 / alpha)) / math.log(e)


def _reference_fractal_bound(c, alpha):
    z = zeta(c, alpha)
    if z >= 1.0:
        return None
    L = c.Lambda
    return ((math.log(L) + L * math.log(2.0 + 2.0 * c.M1 / alpha))
            / (-math.log(z)))


class TestContractionUnderflow:
    """lambda0 t0 = -820: eta and zeta underflow to 0.0, and the bounds take
    ln(A e^{l0 t0} + B e^{l1 t0}) as a log-sum-exp instead of math.log(0.0)."""

    UNDER = dict(M1=2.0, M2=1.0, M3=0.5, l0=-41.0, l1=-45.0, Lam=1)

    def test_bounds_finite_at_zero_contraction(self):
        c = sc(**self.UNDER, t0=20.0)
        assert eta(c, 1.0) == 0.0 and zeta(c, 1.0) == 0.0
        # eta = (alpha M1 + 2 M3) e^{-820} + 2 M2 e^{-900}: the second term
        # is e^{-80} of the first, below its last digit
        h = hausdorff_bound(c, 1.0)
        assert h == pytest.approx(math.log(6.0) / (820.0 - math.log(3.0)),
                                  rel=1e-14)
        f = fractal_bound(c, 1.0)
        assert f == pytest.approx(math.log(6.0) / (820.0 - math.log(1.5)),
                                  rel=1e-14)
        rep = bound_report(c, 1.0)
        assert (rep.hausdorff, rep.fractal) == (h, f)

    @given(st.floats(-3.0, 0.5), st.floats(0.01, 1.99))
    @settings(max_examples=60, deadline=None)
    def test_log_sum_exp_matches_log_where_positive(self, shift, alpha):
        # at l0 t0 = -700 + shift, eta is small but not 0: the log-sum-exp
        # form agrees with math.log of it
        c = sc(**self.UNDER, t0=(700.0 - shift) / 41.0)
        for hausdorff in (True, False):
            value = eta(c, alpha) if hausdorff else zeta(c, alpha)
            assert value > 0.0
            assert _log_contraction(c, alpha, c.t0, hausdorff) == \
                pytest.approx(math.log(value), rel=1e-13)

    @given(fam=_family_args, alpha=st.floats(0.001, 4.0),
           t0=st.floats(0.05, 8.0))
    @settings(max_examples=150, deadline=None)
    def test_unchanged_where_positive(self, fam, alpha, t0):
        c = replace(_family(*fam), t0=t0)
        if alpha <= 2.0:
            assert hausdorff_bound(c, alpha) == \
                _reference_hausdorff_bound(c, alpha)
        if alpha < c.M1:
            assert fractal_bound(c, alpha) == \
                _reference_fractal_bound(c, alpha)

    @pytest.mark.parametrize("target", ["hausdorff", "fractal"])
    def test_optimizer_scans_underflow(self, target):
        c = sc(**self.UNDER)
        res = optimize_bound(c, (0.01, 1.99), (0.1, 20.0), target, grid=16)
        assert res.feasible and math.isfinite(res.bound) and res.bound > 0
        alphas, t0s, contraction, bound = res.scan
        assert (contraction == 0.0).any()
        scalar = hausdorff_bound if target == "hausdorff" else fractal_bound
        for i, j in zip(*np.nonzero(contraction == 0.0)):
            cell = replace(c, t0=float(t0s[i]))
            alpha = float(alphas[j])
            if alpha < (2.0 if target == "hausdorff" else c.M1):
                assert bound[i, j] == scalar(cell, alpha) > 0
