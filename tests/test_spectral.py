import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdedim.charroots import CharRoot, SpectrumTable, ordered_spectrum
from fdedim.core import (HistorySegment, random_segment,
                         random_smooth_segment, sup_norm)
from fdedim.errors import (ConfigError, DegenerateRootError, ShapeError)
from fdedim.sim import RDEParams, linear_semigroup, rde_grid
from fdedim import spectral
from fdedim.spectral import (K_SAFETY, build_decomposition,
                             estimate_projection_norm, fit_dichotomy_K,
                             project, with_K)

NODES = 33


@pytest.fixture(scope="module")
def delayed():
    """a=1, b=0.3, r=1 modal system, cut after the first level."""
    params = RDEParams(a=1.0, b=0.3, r=1.0, num_modes=3)
    spectrum = ordered_spectrum(1.0, 0.3, 1.0, 3, -3.7)
    grid = rde_grid(params, NODES)
    return build_decomposition(spectrum, 1, params, grid)


@pytest.fixture(scope="module")
def undelayed():
    params = RDEParams(a=1.0, b=0.0, r=1.0, num_modes=2)
    spectrum = ordered_spectrum(1.0, 0.0, 1.0, 2, -9.0)
    grid = rde_grid(params, NODES)
    return build_decomposition(spectrum, 1, params, grid)


class TestBuild:
    def test_basis_size_is_k_m(self, delayed):
        assert delayed.basis.shape[0] == delayed.spectrum.k(1)

    def test_grid_must_be_modal(self):
        params = RDEParams(a=1.0, b=0.0, r=1.0, num_modes=2)
        spectrum = ordered_spectrum(1.0, 0.0, 1.0, 2, -9.0)
        from fdedim.core import GridSpec
        bad = GridSpec(delay_r=1.0, num_nodes=NODES, value_dim=2,
                       value_norm="euclidean")
        with pytest.raises(ShapeError):
            build_decomposition(spectrum, 1, params, bad)

    def test_cut_bounds(self, undelayed):
        params = RDEParams(a=1.0, b=0.0, r=1.0, num_modes=2)
        grid = rde_grid(params, NODES)
        with pytest.raises(ConfigError):
            build_decomposition(undelayed.spectrum, 2, params, grid)

    def test_defective_root_rejected(self):
        # double root of lam + 2 + b e^{-lam} at lam = -3, b = e^{-3}
        b = math.exp(-3.0)
        params = RDEParams(a=1.0, b=b, r=1.0, num_modes=1)
        table = SpectrumTable(
            rhos=(-3.0, -6.0), multiplicities=(1, 1), cumulative=(1, 2),
            truncation=(1, -10.0),
            groups=((CharRoot(complex(-3.0, 0.0), 1),),
                    (CharRoot(complex(-6.0, 0.0), 1),)))
        with pytest.raises(DegenerateRootError):
            build_decomposition(table, 1, params, rde_grid(params, NODES))


class TestProjection:
    def test_idempotent(self, delayed):
        rng = np.random.default_rng(40)
        for _ in range(20):
            h = random_segment(delayed.grid, rng)
            for which in ("P", "Q"):
                once = project(delayed, h, which)
                twice = project(delayed, once, which)
                assert sup_norm(twice - once) <= 1e-10 * max(1.0, sup_norm(h))

    def test_complementarity_exact(self, delayed):
        rng = np.random.default_rng(41)
        h = random_segment(delayed.grid, rng)
        back = project(delayed, h, "P") + project(delayed, h, "Q")
        assert np.array_equal(back.values, h.values) or sup_norm(
            back - h) < 1e-14

    def test_basis_fixed_and_annihilated(self, delayed):
        g = delayed.grid
        for row in delayed.basis:
            seg = HistorySegment(g, row.reshape(g.num_nodes, g.value_dim))
            assert sup_norm(project(delayed, seg, "P") - seg) <= 1e-10
            assert sup_norm(project(delayed, seg, "Q")) <= 1e-10

    def test_offcut_mode_annihilated(self, undelayed):
        # constant history along the second sine mode lies in the stable part
        g = undelayed.grid
        vals = np.zeros((g.num_nodes, g.value_dim))
        vals[:, 1] = 1.0
        h = HistorySegment(g, vals)
        assert sup_norm(project(undelayed, h, "P")) <= 1e-10
        assert sup_norm(project(undelayed, h, "Q") - h) <= 1e-10

    def test_coefficients_match_projection(self, delayed):
        rng = np.random.default_rng(42)
        h = random_segment(delayed.grid, rng)
        coeffs = delayed.functionals @ h.values.ravel()
        rebuilt = HistorySegment.zero(delayed.grid)
        g = delayed.grid
        for c, row in zip(coeffs, delayed.basis):
            seg = HistorySegment(g, row.reshape(g.num_nodes, g.value_dim))
            rebuilt = rebuilt + float(c) * seg
        assert sup_norm(rebuilt - project(delayed, h, "P")) <= 1e-10

    def test_grid_mismatch(self, delayed):
        params = RDEParams(a=1.0, b=0.3, r=1.0, num_modes=3)
        other = HistorySegment.zero(rde_grid(params, NODES + 4))
        with pytest.raises(ShapeError):
            project(delayed, other, "P")

    def test_operator_norm_at_least_one(self, delayed):
        assert estimate_projection_norm(delayed) >= 1.0 - 1e-9

    def test_operator_norm_exact(self, delayed):
        # no history is stretched by more than the norm, and the sign
        # pattern of the heaviest row of the mode-1 block attains it
        norm = estimate_projection_norm(delayed)
        rng = np.random.default_rng(44)
        for _ in range(200):
            h = random_segment(delayed.grid, rng)
            assert sup_norm(project(delayed, h, "P")) <= norm * sup_norm(h)
        n, d = delayed.grid.num_nodes, delayed.grid.value_dim
        block = (delayed.basis.T @ delayed.functionals).reshape(
            n, d, n, d)[:, 0, :, 0]
        vals = np.zeros((n, d))
        vals[:, 0] = np.sign(block[np.abs(block).sum(axis=1).argmax()])
        witness = HistorySegment(delayed.grid, vals)
        ratio = sup_norm(project(delayed, witness, "P")) / sup_norm(witness)
        assert ratio == pytest.approx(norm, rel=1e-12)
        assert norm == pytest.approx(8.00, abs=0.01)

    def test_operator_norm_across_modes(self):
        # cut m = 2 spans modes 1 and 2; reference: brute force over the
        # mode weight s of max_i sum_j sqrt(s P1[i,j]^2 + (1-s) P2[i,j]^2)
        params = RDEParams(a=1.0, b=0.3, r=1.0, num_modes=3)
        spectrum = ordered_spectrum(1.0, 0.3, 1.0, 3, -3.7)
        decomp = build_decomposition(spectrum, 2, params,
                                     rde_grid(params, NODES))
        P = (decomp.basis.T @ decomp.functionals).reshape(
            NODES, 3, NODES, 3)
        p1, p2 = P[:, 0, :, 0] ** 2, P[:, 1, :, 1] ** 2
        brute = max(np.sqrt(s * p1 + (1.0 - s) * p2).sum(axis=1).max()
                    for s in np.linspace(0.0, 1.0, 2001))
        norm = estimate_projection_norm(decomp)
        assert brute <= norm + 1e-9
        assert norm == pytest.approx(brute, rel=1e-6)
        # the flat max row sum of P misses the coupling across modes
        assert np.abs(P.reshape(NODES * 3, -1)).sum(axis=1).max() < brute

    def test_certified_m1_dominates_projection_norm(self):
        # the P-leg at t = 0 needs M1 >= ||P||: a complex pair (b = 0.3),
        # a real root (b = 0) and a cut spanning two modes
        from fdedim.bounds import rde_constants
        cases = [((1.0, 0.3, 1.0, 3, -3.7), 1, 0.05),
                 ((1.0, 0.0, 1.0, 2, -9.0), 1, 0.1),
                 ((1.0, 0.3, 1.0, 3, -3.7), 2, 0.05)]
        for (a, b, r, modes, floor), cut, L_f in cases:
            params = RDEParams(a=a, b=b, r=r, num_modes=modes)
            spectrum = ordered_spectrum(a, b, r, modes, floor)
            decomp = build_decomposition(spectrum, cut, params,
                                         rde_grid(params, NODES))
            sc = rde_constants(spectrum, cut, L_f, 1.0, 1.0)
            assert sc.M1 >= estimate_projection_norm(decomp)


class TestFlowInteraction:
    def test_stable_part_decay_slope(self, delayed):
        # log-slope of ||U(t) Q h|| over [2r, 10r] at most rho_2 + 0.05
        rng = np.random.default_rng(43)
        h = project(delayed, random_smooth_segment(delayed.grid, rng), "Q")
        dt = delayed.grid.spacing / 2.0
        traj = linear_semigroup(delayed.params, h, 10.0, dt)
        ts = traj.sample_times()
        ns = traj.norms()
        mask = (ts >= 2.0) & (ts <= 10.0)
        slope = np.polyfit(ts[mask], np.log(ns[mask]), 1)[0]
        assert slope <= delayed.spectrum.rhos[delayed.m] + 0.05

    def test_commutes_with_linear_flow(self, delayed):
        rng = np.random.default_rng(44)
        h = random_smooth_segment(delayed.grid, rng)
        dt = delayed.grid.spacing / 4.0
        T = 5.0
        full = linear_semigroup(delayed.params, h, T, dt)
        part = linear_semigroup(delayed.params,
                                project(delayed, h, "P"), T, dt)
        worst = max(
            sup_norm(project(delayed, full.segment(t), "P")
                     - part.segment(t))
            for t in (1.0, 2.0, 3.0, 4.0, 5.0))
        assert worst <= 1e-6 * sup_norm(h)


class TestDichotomyFit:
    def test_undelayed_eigen_history_ratio(self, undelayed):
        # b=0, mode-2 eigen-history: the decay ratio in segment sup-norm is
        # exactly e^{(rho_2 - rho_1) t} <= 1 (closed-form modal oracle)
        g = undelayed.grid
        rho2 = undelayed.spectrum.rhos[undelayed.m]  # -5
        vals = np.zeros((g.num_nodes, g.value_dim))
        vals[:, 1] = np.exp(rho2 * g.nodes())
        x = HistorySegment(g, vals)
        nx = sup_norm(x)
        traj = linear_semigroup(undelayed.params, x, 5.0, g.spacing / 2.0)
        rho_m = undelayed.rho_m
        for t, nn in zip(traj.sample_times(), traj.norms()):
            ratio = nn * math.exp(-rho_m * t) / nx
            assert ratio <= 1.0 + 1e-6
            assert ratio == pytest.approx(
                min(1.0, math.exp((rho2 - rho_m) * t)), abs=1e-4)

    def test_undelayed_fit_bounded_by_window_lag(self, undelayed):
        # with segment sup-norms the history window lags the state decay by
        # at most e^{|rho_m| r}, so K_fit sits between the safety factor and
        # safety * e^{|rho_m| r}
        K_fit, margin = fit_dichotomy_K(undelayed, trials=8)
        assert 1.1 - 1e-9 <= K_fit <= 1.1 * math.exp(
            -undelayed.rho_m * undelayed.params.r) + 1e-9
        assert margin > 0

    def test_more_trials_never_decrease(self, delayed):
        k_small, _ = fit_dichotomy_K(delayed, trials=6)
        k_large, _ = fit_dichotomy_K(delayed, trials=12)
        assert k_large >= k_small - 1e-12

    def test_deterministic(self, delayed):
        a = fit_dichotomy_K(delayed, trials=6)
        b = fit_dichotomy_K(delayed, trials=6)
        assert a == b

    def test_held_out_validation(self, delayed):
        K_fit, _ = fit_dichotomy_K(delayed, trials=20)
        rho_m = delayed.rho_m
        dt = delayed.grid.spacing / 2.0
        violations = 0
        for i in range(10):
            rng = np.random.default_rng(999_000 + i)
            draw = random_segment if i % 2 == 0 else random_smooth_segment
            raw = draw(delayed.grid, rng)
            nx = sup_norm(raw)
            x = project(delayed, raw, "Q")
            traj = linear_semigroup(delayed.params, x, 5.0, dt)
            for t, nn in zip(traj.sample_times(), traj.norms()):
                if nn > K_fit * math.exp(rho_m * t) * nx + 1e-12:
                    violations += 1
        assert violations == 0

    def test_with_K_records(self, delayed):
        d2 = with_K(delayed, 6.0, 0.5)
        assert d2.K_fit == 6.0


def _reference_fit_dichotomy_K(decomp, trials=50, horizon=None, seed=0):
    """fit_dichotomy_K before the batched integration: one
    linear_semigroup call per trial."""
    params = decomp.params
    if horizon is None:
        horizon = 5.0 * params.r
    dt = decomp.grid.spacing / max(
        1, int(math.ceil(decomp.grid.spacing / (params.r / 64.0))))
    rho_m = decomp.rho_m
    worst = 0.0
    for i in range(trials):
        rng = np.random.default_rng(seed * 1_000_003 + i)
        draw = random_segment if i % 2 == 0 else random_smooth_segment
        raw = draw(decomp.grid, rng)
        nx = sup_norm(raw)
        if nx < 1e-12:
            continue
        x = project(decomp, raw, "Q")
        traj = linear_semigroup(params, x, horizon, dt, grid=decomp.grid)
        ratios = traj.norms() * np.exp(-rho_m * traj.sample_times()) / nx
        worst = max(worst, float(ratios.max()))
    K_fit = K_SAFETY * worst
    return K_fit, K_fit - worst


class TestBatchedFitMatchesPerTrialLoop:
    @given(which=st.sampled_from(["delayed", "undelayed"]),
           trials=st.integers(1, 12), seed=st.integers(0, 10_000),
           horizon=st.sampled_from([None, 2.0, 3.5]))
    @settings(max_examples=25, deadline=None)
    def test_equal(self, request, which, trials, seed, horizon):
        decomp = request.getfixturevalue(which)
        kw = dict(trials=trials, horizon=horizon, seed=seed)
        assert fit_dichotomy_K(decomp, **kw) == \
            _reference_fit_dichotomy_K(decomp, **kw)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected(self, delayed, trials):
        # a K = 0 would feed M2 = 0 into every bound
        with pytest.raises(ConfigError, match="at least one K trial"):
            fit_dichotomy_K(delayed, trials=trials)

    def test_all_draws_skipped_rejected(self, delayed, monkeypatch):
        monkeypatch.setattr(spectral, "sup_norm", lambda h: 0.0)
        with pytest.raises(ConfigError, match="zero history"):
            fit_dichotomy_K(delayed, trials=4)
