"""Dimension-bound formulas, application constants, and (alpha, t0) tuning.

Everything here evaluates closed-form expressions built from the squeezing
constants (M1, M2, M3, lambda0, lambda1, Lambda, t0): the contraction
factors eta and zeta, the Hausdorff and fractal bounds they yield, the
alpha-free limit variants, the specialization constants for the two model
classes (scalar retarded reaction-diffusion and abstract retarded
functional equations), absorbing-set radii, and the reaction-diffusion
absorbing envelope, which Halanay's inequality gives from the equation.

One evaluator, `_evaluate`, writes each formula once and computes every
contraction and bound value, of one (alpha, t0) or of a whole grid.  The
pullback-attractor bounds are the same formulas with s0 in place of t0, so
one set of functions serves both.  The (alpha, t0) optimizer scans its
grid once, then refines alpha with the best t0 in closed form; the scan
travels on its result, and bound_grid_csv writes it through
core.write_csv, the one CSV writer of every table.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .charroots import SpectrumTable, rightmost_real_part_bound
from .core import write_csv
from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class SqueezeConstants:
    """Constants of the squeezing hypothesis at a fixed transit time t0."""

    M1: float
    M2: float
    M3: float
    lambda0: float
    lambda1: float
    Lambda: int
    t0: float

    def __post_init__(self):
        if not (self.M1 > 0 and self.M2 > 0 and self.M3 >= 0):
            raise ConfigError("M1, M2 must be positive and M3 nonnegative")
        if self.Lambda < 1:
            raise ConfigError("Lambda must be >= 1")
        if not 0 < self.t0 < math.inf:
            raise ConfigError("t0 must be positive and finite")

    @property
    def gap_ok(self) -> bool:
        """Reported only: lambda1 < lambda0 is not required by the formulas."""
        return self.lambda1 < self.lambda0


def _weights(sc: SqueezeConstants, alpha, hausdorff: bool):
    """(A, B) of the contraction A e^{l0 t0} + B e^{l1 t0}: A = alpha M1 +
    2 M3 and B = 2 M2 for eta, A = alpha + M3 and B = M2 for zeta.  A and B
    are positive; alpha may be an array."""
    if hausdorff:
        return alpha * sc.M1 + 2.0 * sc.M3, 2.0 * sc.M2
    return alpha + sc.M3, sc.M2


def _log_contraction(sc: SqueezeConstants, alpha: float, t0: float,
                     hausdorff: bool) -> float:
    """ln(A e^{l0 t0} + B e^{l1 t0}) as a log-sum-exp of `_weights`' terms,
    finite where the contraction underflows to 0.0 (l0 t0, l1 t0 < -745)."""
    a, b = _weights(sc, alpha, hausdorff)
    logs = (math.log(a) + sc.lambda0 * t0, math.log(b) + sc.lambda1 * t0)
    top = max(logs)
    return top + math.log1p(math.exp(min(logs) - top))


def _map(fn, x: np.ndarray) -> np.ndarray:
    """The math function fn on every element of x (np.exp and np.log may
    differ from math.exp and math.log in the last ulp)."""
    return np.fromiter(map(fn, x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def _evaluate(sc: SqueezeConstants, alphas: np.ndarray, t0s: np.ndarray,
              hausdorff: bool):
    """(contraction, bound) over the broadcast of alphas and t0s for the
    constants sc with their t0 replaced by t0s: eta and hausdorff_bound
    (hausdorff) or zeta and fractal_bound, the bound NaN where the
    contraction is >= 1.  No alpha range check; the callers make it.

    e^{l0 t0} and e^{l1 t0} come from math.exp once per element of t0s,
    the alpha-only log terms from math.log once per element of alphas, and
    the contraction is one array expression in eta/zeta's operation order.
    math.log is mapped over the contraction where it is in (0, 1), with
    `_log_contraction` where it underflowed to 0.
    """
    e0 = _map(math.exp, sc.lambda0 * t0s)
    e1 = _map(math.exp, sc.lambda1 * t0s)
    L = sc.Lambda
    # the fractal numerator is negated so that both bounds are
    # num / ln(contraction); negation is exact in IEEE arithmetic
    with np.errstate(over="ignore"):  # as Python's float arithmetic does
        if hausdorff:
            contraction = (alphas * sc.M1 * e0 + 2.0 * sc.M2 * e1
                           + 2.0 * sc.M3 * e0)
            num = -math.log(L) - L * _map(math.log, 2.0 + 4.0 / alphas)
        else:
            contraction = alphas * e0 + sc.M2 * e1 + sc.M3 * e0
            num = -(math.log(L)
                    + L * _map(math.log, 2.0 + 2.0 * sc.M1 / alphas))
    feasible = contraction < 1.0
    logs = np.ones(contraction.shape)
    positive = feasible & (contraction > 0.0)
    logs[positive] = _map(math.log, contraction[positive])
    under = feasible & ~positive
    if under.any():
        logs[under] = [
            _log_contraction(sc, a, t, hausdorff) for a, t in zip(
                np.broadcast_to(alphas, under.shape)[under].tolist(),
                np.broadcast_to(t0s, under.shape)[under].tolist())]
    bound = np.divide(num, logs, out=np.full(contraction.shape, math.nan),
                      where=feasible)
    return contraction, bound


def _at(sc: SqueezeConstants, alpha: float, hausdorff: bool):
    """(contraction, bound or None) of `_evaluate` at alpha and sc's t0."""
    contraction, bound = _evaluate(sc, np.array([float(alpha)]),
                                   np.array([float(sc.t0)]), hausdorff)
    value = bound.item()
    return contraction.item(), None if math.isnan(value) else value


def eta(sc: SqueezeConstants, alpha: float) -> float:
    """Hausdorff contraction factor
    alpha*M1*e^{l0 t0} + 2*M2*e^{l1 t0} + 2*M3*e^{l0 t0}."""
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return _at(sc, alpha, True)[0]


def zeta(sc: SqueezeConstants, alpha: float) -> float:
    """Fractal contraction factor
    alpha*e^{l0 t0} + M2*e^{l1 t0} + M3*e^{l0 t0}."""
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return _at(sc, alpha, False)[0]


def hausdorff_bound(sc: SqueezeConstants, alpha: float):
    """(-ln L - L ln(2 + 4/alpha)) / ln eta, or None when eta >= 1."""
    # the closed endpoint alpha = 2 is the alpha-free limit value
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must be in (0, 2], got {alpha}")
    return _at(sc, alpha, True)[1]


def fractal_bound(sc: SqueezeConstants, alpha: float):
    """(ln L + L ln(2 + 2 M1/alpha)) / (-ln zeta), or None when zeta >= 1."""
    if not 0.0 < alpha < sc.M1:
        raise DomainError(f"alpha must be in (0, M1={sc.M1}), got {alpha}")
    return _at(sc, alpha, False)[1]


def hausdorff_bound_alpha_free(sc: SqueezeConstants):
    """Limit form alpha -> 2: (-ln L - L ln 4) / ln eta(sc, 2).

    (The printed autonomous display drops the M1 factor inside the log; the
    non-autonomous display and the derivation both keep it, so we keep it.)
    """
    return hausdorff_bound(sc, 2.0)


def fractal_bound_alpha_free(sc: SqueezeConstants):
    """Limit form alpha -> M1: (ln L + L ln 4) / (-ln zeta(sc, M1)), the
    fractal formula at alpha = M1 (where 2 + 2 M1/alpha is exactly 4)."""
    return _at(sc, sc.M1, False)[1]


@dataclass(frozen=True)
class BoundReport:
    eta: float
    zeta: float
    hausdorff: float | None
    fractal: float | None
    alpha_used: float
    feasible: dict

    def to_dict(self) -> dict:
        return {
            "eta": self.eta, "zeta": self.zeta,
            "hausdorff": self.hausdorff, "fractal": self.fractal,
            "alpha_used": self.alpha_used,
            "feasible": dict(self.feasible),
        }


def bound_report(sc: SqueezeConstants, alpha: float) -> BoundReport:
    """Evaluate both bounds at one alpha with per-formula feasibility flags.

    The global-attractor and pullback-attractor bounds are the same
    formulas in the squeezing constants, with the pullback transit time s0
    in place of t0, so this one report serves both."""
    e, h = _at(sc, alpha, True) if alpha > 0 else (math.inf, None)
    z, f = _at(sc, alpha, False) if alpha > 0 else (math.inf, None)
    feas = {
        "hausdorff_alpha_range": 0.0 < alpha <= 2.0,
        "hausdorff_eta_lt_1": e < 1.0,
        "fractal_alpha_range": 0.0 < alpha < sc.M1,
        "fractal_zeta_lt_1": z < 1.0,
        "gap_lambda1_lt_lambda0": sc.gap_ok,
    }
    return BoundReport(
        eta=e, zeta=z, hausdorff=h if feas["hausdorff_alpha_range"] else None,
        fractal=f if feas["fractal_alpha_range"] else None,
        alpha_used=alpha, feasible=feas)


# ---------------------------------------------------------------------------
# Application constants
# ---------------------------------------------------------------------------

def rde_m1(spectrum: SpectrumTable, m: int, L_f: float) -> float:
    """Certified M1 of the P-leg ||P(S(t)u - S(t)v)|| <= M1 e^{l0 t} ||u - v||
    (sup-history norm, all t >= 0) at spectral cut m:

        M1 = sum over the roots lam of the first m levels of
             c_lam max(1, e^{-Re lam r})
             [1 + |b| int_0^r e^{-Re lam s} ds + L_f / (l0 - Re lam)]
             / |1 - b r e^{-lam r}|,

    with c_lam = 2 for a conjugate pair and 1 for a real root, and
    l0 = rho_1 + L_f (the last term is 0 when L_f = 0).

    Derivation.  The linear part is U(t) P w_0 = sum_lam l_lam(w_0)
    e^{lam (t + theta)}: the dual functional of the bilinear pairing obeys
    |l_lam(phi)| <= (1 + |b| int_0^r e^{-Re lam s} ds) ||phi|| / |1 - b r
    e^{-lam r}|, and the eigenhistory has sup norm e^{Re lam t}
    max(1, e^{-Re lam r}) <= e^{l0 t} max(1, e^{-Re lam r}).  The
    variation-of-constants part integrates l_lam(X_0 g) = g / (1 - b r
    e^{-lam r}) against e^{Re lam (t - s)} with |g(s)| <= L_f ||w(s)||.
    Assumption: ||w(s)|| <= e^{l0 s} ||w_0||, the growth bound M3 also rests
    on; then the integral is at most L_f e^{l0 t} / (l0 - Re lam).

    Needs the table's root data (groups) and its b, r (params).  It does
    not depend on t0, so one rde_constants call serves a whole (alpha, t0)
    optimization, which varies t0 itself.
    """
    if len(spectrum.groups) < m or not {"b", "r"} <= spectrum.params.keys():
        raise ConfigError("certified M1 needs the table's roots, b and r")
    b, r = spectrum.params["b"], spectrum.params["r"]
    lambda0 = spectrum.rhos[0] + L_f
    M1 = 0.0
    for group in spectrum.groups[:m]:
        for root in group:
            if root.multiplicity > 1:
                raise DomainError(f"repeated root {root.value}: the bound "
                                  "covers simple roots only")
            lam = complex(root.value)
            re = lam.real
            pairing = 1.0 + abs(b) * (r if re == 0.0
                                      else -math.expm1(-re * r) / re)
            forcing = 0.0 if L_f == 0 else L_f / (lambda0 - re)
            dchar = abs(1.0 - b * r * cmath.exp(-lam * r))
            M1 += ((2.0 if root.is_pair else 1.0) * max(1.0, math.exp(-re * r))
                   * (pairing + forcing) / dchar)
    return M1


def rde_constants(spectrum: SpectrumTable, m: int, L_f: float, K: float,
                  t0: float) -> SqueezeConstants:
    """Squeezing constants for the scalar retarded reaction-diffusion model
    at spectral cut m, given the dichotomy constant K and Lipschitz L_f.

    M1 is the certified bound of `rde_m1`, which dominates the operator
    norm of P in the sup-history norm at t = 0 and the P-leg at every
    t >= 0 under the growth assumption stated there.  The theorem
    statement's value 2 is not a valid P-leg constant in general: for a=1,
    b=0.3, r=1, m=1 the discrete ||P|| is 8.00 > 2.
    """
    if m < 1 or m >= len(spectrum.rhos):
        raise ConfigError(
            f"cut m={m} needs at least m+1 spectrum levels "
            f"(got {len(spectrum.rhos)})")
    if L_f < 0 or K <= 0:
        raise ConfigError("need L_f >= 0 and K > 0")
    rho1 = spectrum.rhos[0]
    rho_m = spectrum.rhos[m - 1]
    denom = rho1 + L_f - rho_m
    if L_f > 0 and denom <= 0:
        raise DomainError(
            f"M3 denominator rho1 + L_f - rho_m = {denom} must be positive")
    M3 = 0.0 if L_f == 0 else K * L_f / denom
    return SqueezeConstants(
        M1=rde_m1(spectrum, m, L_f), M2=K, M3=M3,
        lambda0=L_f + rho1, lambda1=rho_m,
        Lambda=spectrum.k(m), t0=t0)


def rfde_constants(K0: float, gamma: float, beta: float, K: float,
                   L_f: float, t0: float, Lambda: int) -> SqueezeConstants:
    """Squeezing constants for the abstract retarded functional equation
    given user-supplied dichotomy data (K0, gamma, beta, K).

    M1 is the derivation's value K0 + K.  Precondition: beta < -gamma < 0.
    """
    if not (beta < -gamma < 0):
        raise DomainError(f"need beta < -gamma < 0, got beta={beta}, gamma={gamma}")
    if K0 <= 0 or K <= 0 or L_f < 0:
        raise ConfigError("need K0 > 0, K > 0, L_f >= 0")
    denom = -beta - gamma + L_f * K0
    if L_f > 0 and denom <= 0:
        raise DomainError(
            f"M3 denominator -beta - gamma + L_f*K0 = {denom} must be positive")
    M3 = 0.0 if L_f == 0 else K * L_f * K0 / denom
    return SqueezeConstants(
        M1=K0 + K, M2=K, M3=M3,
        lambda0=L_f * K0 - gamma, lambda1=beta,
        Lambda=Lambda, t0=t0)


def absorbing_radius(K0: float, gamma: float, L_f: float, f0: float) -> float:
    """Absorbing-ball radius (1/(1-K0)) [K0 f0/gamma + 1/(gamma - K0 L_f)]."""
    if not K0 < 1:
        raise DomainError(f"need K0 < 1, got {K0}")
    if not K0 * L_f - gamma < 0:
        raise DomainError(f"need K0*L_f < gamma, got {K0 * L_f} >= {gamma}")
    if not gamma > 0:
        raise DomainError(f"need gamma > 0, got {gamma}")
    if f0 < 0:
        raise ConfigError(f"f0 must be nonnegative, got {f0}")
    return (K0 * f0 / gamma + 1.0 / (gamma - K0 * L_f)) / (1.0 - K0)


def absorbing_entry_time(K0: float, gamma: float, L_f: float, f0: float,
                         r_D: float) -> float:
    """The a-priori entry time T_D after which every history of norm at
    most r_D lies inside the absorbing ball:
    (1/gamma) ln[ r_D gamma (1-K0)(gamma-K0 L_f) / (K0 f0 (gamma-K0 L_f) + gamma) ]."""
    if not r_D > 0:
        raise ConfigError("r_D must be positive")
    absorbing_radius(K0, gamma, L_f, f0)  # validates the hypotheses
    num = r_D * gamma * (1.0 - K0) * (gamma - K0 * L_f)
    den = K0 * f0 * (gamma - K0 * L_f) + gamma
    return math.log(num / den) / gamma


def rde_halanay(a: float, b: float, L_f: float, c1: float,
                r: float) -> tuple[float, float]:
    """(gamma, R) of Halanay's inequality (Halanay 1966) for v = ||y(t)||,
    D+v <= -(1 + a) v + (b + L_f) sup_{[t-r, t]} v + c1, which gives
    v(t) <= R + (|phi| - R)^+ e^{-gamma t}: R = c1 / (1 + a - b - L_f) and
    gamma > 0 solves gamma = (1 + a) - (b + L_f) e^{gamma r}."""
    c, q = 1.0 + a, b + L_f
    if not q < c:
        raise DomainError(f"need b + L_f < 1 + a, got {q!r} >= {c!r}")
    return -rightmost_real_part_bound(c, q, r), c1 / (c - q)


def rde_absorbing_envelope(t, phi_norm: float, a: float, b: float,
                           L_f: float, c1: float, r: float):
    """R + (|phi| - R)^+ e^{-gamma (t - r)^+} at a time or array t: the
    window sup-norm lags rde_halanay's pointwise bound by r."""
    gamma, R = rde_halanay(a, b, L_f, c1, r)
    lag = np.maximum(np.asarray(t, dtype=float) - r, 0.0)
    return R + max(phi_norm - R, 0.0) * np.exp(-gamma * lag)


# ---------------------------------------------------------------------------
# (alpha, t0) optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizeResult:
    """The optimum of `optimize_bound` or its infeasibility report, with
    the (alphas, t0s, contraction, bound) arrays of the grid scan behind it
    as scan, which `bound_grid_csv` writes; scan is kept out of to_dict,
    repr and ==."""

    feasible: bool
    alpha: float | None
    t0: float | None
    bound: float | None
    target: str
    min_contraction: float  # smallest eta/zeta seen over the grid
    reasons: dict
    scan: tuple | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"feasible": self.feasible, "alpha": self.alpha,
                "t0": self.t0, "bound": self.bound, "target": self.target,
                "min_contraction": self.min_contraction,
                "reasons": dict(self.reasons)}


def _best_t0(sc: SqueezeConstants, alphas: np.ndarray, t_lo: float,
             t_hi: float, hausdorff: bool) -> np.ndarray:
    """The t0 in [t_lo, t_hi] of least contraction at each of alphas, and
    so of least bound.  The contraction A e^{l0 t0} + B e^{l1 t0}
    (`_weights`) is convex in t0: nonincreasing when l0, l1 <= 0,
    nondecreasing when l0, l1 >= 0, and otherwise least at its one
    stationary point ln(-B l1 / (A l0)) / (l0 - l1), taken as a sum of
    logs so that no product or quotient over- or underflows."""
    l0, l1 = sc.lambda0, sc.lambda1
    if l0 <= 0.0 and l1 <= 0.0:
        return np.full(alphas.shape, t_hi)
    if l0 >= 0.0 and l1 >= 0.0:
        return np.full(alphas.shape, t_lo)
    a, b = _weights(sc, alphas, hausdorff)
    # l0 and l1 have opposite signs: -l1 / l0 = |l1| / |l0|
    t = ((math.log(b) + math.log(abs(l1)) - math.log(abs(l0)) - np.log(a))
         / (l0 - l1))
    return np.clip(t, t_lo, t_hi)


def optimize_bound(sc: SqueezeConstants, alpha_range, t0_range,
                   target: str = "hausdorff", grid: int = 64) -> OptimizeResult:
    """Minimize the chosen bound over (alpha, t0) for the constants sc, of
    which only t0 varies (sc's own t0 is not used).

    alpha_range/t0_range: (lo, hi) intervals.  A grid x grid array scan
    (`_evaluate`), which the result carries as scan for `bound_grid_csv`.
    Only cells with 0 < alpha < 2 (hausdorff) or 0 < alpha < M1 (fractal)
    count toward the argmin and toward min_contraction, and only those
    with contraction < 1 toward the argmin.  Then alpha is refined on the
    profile bound(alpha, t*(alpha)), t* the closed-form best t0 of
    `_best_t0`: at the grid's alphas, then by scans of 33 points on the
    bracket around the last scan's best, down to a scan at most 1e-6 wide.
    The grid's best cell is kept where it is better.  Returns a structured
    infeasibility report (never an exception) when no cell is feasible.
    """
    if target not in ("hausdorff", "fractal"):
        raise ConfigError(f"target must be hausdorff or fractal, got {target}")
    a_lo, a_hi = map(float, alpha_range)
    t_lo, t_hi = map(float, t0_range)
    if not (0 < a_lo < a_hi < math.inf and 0 < t_lo < t_hi < math.inf):
        raise ConfigError("ranges must be positive finite nonempty intervals")
    hausdorff = target == "hausdorff"
    alpha_max = 2.0 if hausdorff else sc.M1

    alphas = np.linspace(a_lo, a_hi, grid)
    t0s = np.linspace(t_lo, t_hi, grid)
    contraction, bound = _evaluate(sc, alphas[None, :], t0s[:, None],
                                   hausdorff)
    in_range = alphas < alpha_max
    bound[:, ~in_range] = math.nan
    scan = (alphas, t0s, contraction, bound)
    min_contraction = float(np.min(contraction, where=in_range,
                                   initial=math.inf))
    vals = np.where(np.isnan(bound), math.inf, bound)
    best_val = float(np.min(vals, initial=math.inf))
    if not best_val < math.inf:
        return OptimizeResult(
            feasible=False, alpha=None, t0=None, bound=None, target=target,
            min_contraction=min_contraction,
            reasons={"constraint": f"{'eta' if hausdorff else 'zeta'} >= 1 "
                                   "everywhere on the grid",
                     "min_contraction": min_contraction},
            scan=scan)
    i, j = divmod(int(np.argmin(vals)), len(alphas))
    best = (best_val, float(alphas[j]), float(t0s[i]))
    xs = alphas
    while True:
        ts = _best_t0(sc, xs, t_lo, t_hi, hausdorff)
        _, profile = _evaluate(sc, xs, ts, hausdorff)
        profile[(xs >= alpha_max) | np.isnan(profile)] = math.inf
        k = int(np.argmin(profile))
        if profile[k] <= best[0]:
            best = (float(profile[k]), float(xs[k]), float(ts[k]))
        if not (xs[-1] - xs[0] > 1e-6 and profile[k] < math.inf):
            break
        xs = np.linspace(xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)], 33)
    val, alpha, t0 = best
    return OptimizeResult(
        feasible=True, alpha=alpha, t0=t0, bound=val, target=target,
        min_contraction=min_contraction, reasons={}, scan=scan)


def bound_grid_csv(result: OptimizeResult, path_or_buf) -> None:
    """CSV of (alpha, t0, contraction, bound-or-empty) over the grid that
    `optimize_bound` scanned to produce result, one row per cell, t0-major,
    written by `core.write_csv`.

    Every cell is written, also at alpha >= 2 (hausdorff) or alpha >= M1
    (fractal), where the bound is left empty, as it is where the
    contraction is >= 1.  The alpha and t0 columns are text columns, so
    each grid value is formatted once, not once per row.
    """
    alphas, t0s, contraction, bound = result.scan
    write_csv(path_or_buf, ["alpha", "t0", "contraction", "bound"],
              [[repr(a) for a in alphas.tolist()] * len(t0s),
               [t for t in map(repr, t0s.tolist()) for _ in alphas],
               contraction.ravel(),
               ["" if math.isnan(b) else repr(b)
                for b in bound.ravel().tolist()]])
