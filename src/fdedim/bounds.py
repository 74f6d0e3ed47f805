"""Dimension-bound formulas, application constants, and (alpha, t0) tuning.

Everything here evaluates closed-form expressions built from the squeezing
constants (M1, M2, M3, lambda0, lambda1, Lambda, t0): the contraction
factors eta and zeta, the Hausdorff and fractal bounds they yield, the
alpha-free limit variants, the specialization constants for the two model
classes (scalar retarded reaction-diffusion and abstract retarded
functional equations), and absorbing-set radii/envelopes.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .charroots import SpectrumTable
from .core import open_path_or_buf
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
        if not self.t0 > 0:
            raise ConfigError("t0 must be positive")

    @property
    def gap_ok(self) -> bool:
        """Reported only: lambda1 < lambda0 is not required by the formulas."""
        return self.lambda1 < self.lambda0


def eta(sc: SqueezeConstants, alpha: float) -> float:
    """Hausdorff contraction factor
    alpha*M1*e^{l0 t0} + 2*M2*e^{l1 t0} + 2*M3*e^{l0 t0}."""
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    e0 = math.exp(sc.lambda0 * sc.t0)
    e1 = math.exp(sc.lambda1 * sc.t0)
    return alpha * sc.M1 * e0 + 2.0 * sc.M2 * e1 + 2.0 * sc.M3 * e0


def zeta(sc: SqueezeConstants, alpha: float) -> float:
    """Fractal contraction factor
    alpha*e^{l0 t0} + M2*e^{l1 t0} + M3*e^{l0 t0}."""
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    e0 = math.exp(sc.lambda0 * sc.t0)
    e1 = math.exp(sc.lambda1 * sc.t0)
    return alpha * e0 + sc.M2 * e1 + sc.M3 * e0


def hausdorff_bound(sc: SqueezeConstants, alpha: float):
    """(-ln L - L ln(2 + 4/alpha)) / ln eta, or None when eta >= 1."""
    # the closed endpoint alpha = 2 is the alpha-free limit value
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must be in (0, 2], got {alpha}")
    e = eta(sc, alpha)
    if e >= 1.0:
        return None
    L = sc.Lambda
    return (-math.log(L) - L * math.log(2.0 + 4.0 / alpha)) / math.log(e)


def fractal_bound(sc: SqueezeConstants, alpha: float):
    """(ln L + L ln(2 + 2 M1/alpha)) / (-ln zeta), or None when zeta >= 1."""
    if not 0.0 < alpha < sc.M1:
        raise DomainError(f"alpha must be in (0, M1={sc.M1}), got {alpha}")
    z = zeta(sc, alpha)
    if z >= 1.0:
        return None
    L = sc.Lambda
    return (math.log(L) + L * math.log(2.0 + 2.0 * sc.M1 / alpha)) / (-math.log(z))


def hausdorff_bound_alpha_free(sc: SqueezeConstants):
    """Limit form alpha -> 2: (-ln L - L ln 4) / ln eta(sc, 2).

    (The printed autonomous display drops the M1 factor inside the log; the
    non-autonomous display and the derivation both keep it, so we keep it.)
    """
    e = eta(sc, 2.0)
    if e >= 1.0:
        return None
    L = sc.Lambda
    return (-math.log(L) - L * math.log(4.0)) / math.log(e)


def fractal_bound_alpha_free(sc: SqueezeConstants):
    """Limit form alpha -> M1: (ln L + L ln 4) / (-ln zeta(sc, M1))."""
    z = zeta(sc, sc.M1)
    if z >= 1.0:
        return None
    L = sc.Lambda
    return (math.log(L) + L * math.log(4.0)) / (-math.log(z))


@dataclass(frozen=True)
class BoundReport:
    eta: float
    zeta: float
    hausdorff: float | None
    fractal: float | None
    alpha_used: float
    feasible: dict
    variant: str

    def to_dict(self) -> dict:
        return {
            "eta": self.eta, "zeta": self.zeta,
            "hausdorff": self.hausdorff, "fractal": self.fractal,
            "alpha_used": self.alpha_used,
            "feasible": dict(self.feasible), "variant": self.variant,
        }


def bound_report(sc: SqueezeConstants, alpha: float,
                 variant: str = "autonomous") -> BoundReport:
    """Evaluate both bounds at one alpha with per-formula feasibility flags."""
    if variant not in ("autonomous", "nonautonomous"):
        raise ConfigError(f"unknown variant {variant!r}")
    e = eta(sc, alpha) if alpha > 0 else math.inf
    z = zeta(sc, alpha) if alpha > 0 else math.inf
    h = f = None
    feas = {
        "hausdorff_alpha_range": 0.0 < alpha <= 2.0,
        "hausdorff_eta_lt_1": e < 1.0,
        "fractal_alpha_range": 0.0 < alpha < sc.M1,
        "fractal_zeta_lt_1": z < 1.0,
        "gap_lambda1_lt_lambda0": sc.gap_ok,
    }
    if feas["hausdorff_alpha_range"] and feas["hausdorff_eta_lt_1"]:
        h = hausdorff_bound(sc, alpha)
    if feas["fractal_alpha_range"] and feas["fractal_zeta_lt_1"]:
        f = fractal_bound(sc, alpha)
    return BoundReport(eta=e, zeta=z, hausdorff=h, fractal=f,
                       alpha_used=alpha, feasible=feas, variant=variant)


def nonautonomous_bounds(sc: SqueezeConstants, alpha: float) -> BoundReport:
    """Pullback-attractor variant; the formulas coincide, t0 plays s0."""
    return bound_report(sc, alpha, variant="nonautonomous")


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

    Needs the table's root data (groups) and its b, r (params).  Memoised on
    the table per (m, L_f): the optimizer's golden-section refinement calls
    rde_constants hundreds of times with the same three.
    """
    key = ("rde_m1", m, L_f)
    if key in spectrum.derived:
        return spectrum.derived[key]
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
    spectrum.derived[key] = M1
    return M1


def rde_constants(spectrum: SpectrumTable, m: int, L_f: float, K: float,
                  t0: float, statement_m1: bool = False) -> SqueezeConstants:
    """Squeezing constants for the scalar retarded reaction-diffusion model
    at spectral cut m, given the dichotomy constant K and Lipschitz L_f.

    Default M1 is the certified bound of `rde_m1`, which dominates the
    operator norm of P in the sup-history norm at t = 0 and the P-leg at
    every t >= 0 under the growth assumption stated there.
    statement_m1=True restores the theorem statement's value 2; that value
    is not a valid P-leg constant in general: for a=1, b=0.3, r=1, m=1 the
    discrete ||P|| is 8.00 > 2.
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
    M1 = 2.0 if statement_m1 else rde_m1(spectrum, m, L_f)
    M3 = 0.0 if L_f == 0 else K * L_f / denom
    return SqueezeConstants(
        M1=M1, M2=K, M3=M3,
        lambda0=L_f + rho1, lambda1=rho_m,
        Lambda=spectrum.k(m), t0=t0)


def rfde_constants(K0: float, gamma: float, beta: float, K: float,
                   L_f: float, t0: float, Lambda: int,
                   statement_m1: bool = False) -> SqueezeConstants:
    """Squeezing constants for the abstract retarded functional equation
    given user-supplied dichotomy data (K0, gamma, beta, K).

    Default M1 is the derivation's value K0 + K; statement_m1=True restores
    the statement's value 2.  Precondition: beta < -gamma < 0.
    """
    if not (beta < -gamma < 0):
        raise DomainError(f"need beta < -gamma < 0, got beta={beta}, gamma={gamma}")
    if K0 <= 0 or K <= 0 or L_f < 0:
        raise ConfigError("need K0 > 0, K > 0, L_f >= 0")
    denom = -beta - gamma + L_f * K0
    if L_f > 0 and denom <= 0:
        raise DomainError(
            f"M3 denominator -beta - gamma + L_f*K0 = {denom} must be positive")
    M1 = 2.0 if statement_m1 else K0 + K
    M3 = 0.0 if L_f == 0 else K * L_f * K0 / denom
    return SqueezeConstants(
        M1=M1, M2=K, M3=M3,
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


def rde_absorbing_envelope(t: float, phi_norm: float, a: float, L_f: float,
                           delta: float, c1: float, r: float) -> float:
    """Decay envelope
    c1 e^{dr}/(a - L_f e^{dr}) + e^{dr}(|phi| - c1/(a - L_f e^{dr})) e^{(L_f e^{dr} - a) t}."""
    if not delta > a:
        raise DomainError(f"need delta > a, got delta={delta}, a={a}")
    edr = math.exp(delta * r)
    gap = a - L_f * edr
    if gap == 0.0:
        raise DomainError("degenerate envelope: a == L_f * e^{delta r}")
    return c1 * edr / gap + edr * (phi_norm - c1 / gap) * math.exp(-gap * t)


# ---------------------------------------------------------------------------
# (alpha, t0) optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizeResult:
    feasible: bool
    alpha: float | None
    t0: float | None
    bound: float | None
    target: str
    min_contraction: float  # smallest eta/zeta seen over the grid
    reasons: dict

    def to_dict(self) -> dict:
        return {"feasible": self.feasible, "alpha": self.alpha,
                "t0": self.t0, "bound": self.bound, "target": self.target,
                "min_contraction": self.min_contraction,
                "reasons": dict(self.reasons)}


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


def _scan_grid(sc_of_t0, alphas: np.ndarray, t0s: np.ndarray, target: str):
    """Contraction and bound over the (t0, alpha) grid, one row per t0.

    Returns (t0_rows, contraction, in_range, bound).  Rows are the t0s at
    which sc_of_t0 succeeds (the rows where it raises ConfigError or
    DomainError are dropped), as Python floats.  contraction is eta
    (target "hausdorff") or zeta (any other target) at every alpha of the
    row; in_range marks 0 < alpha < 2 (hausdorff) or 0 < alpha < M1
    (fractal); bound is hausdorff_bound or fractal_bound on the in-range
    cells with contraction < 1 and NaN elsewhere.

    Every value is bitwise equal to the scalar functions: sc_of_t0 is called
    once per row, e^{l0 t0} and e^{l1 t0} come from math.exp once per row,
    the contraction is one array expression in eta/zeta's operation order,
    and math.log is taken of the contraction on the feasible cells only
    (np.log may differ from math.log in the last ulp).  The alpha-only log
    terms are taken once per (Lambda, M1).
    """
    hausdorff = target == "hausdorff"
    t0_rows, rows = [], []
    for t0 in t0s.tolist():
        try:
            rows.append(sc_of_t0(t0))
        except (ConfigError, DomainError):
            continue
        t0_rows.append(t0)
    e0 = np.array([math.exp(sc.lambda0 * sc.t0) for sc in rows])[:, None]
    e1 = np.array([math.exp(sc.lambda1 * sc.t0) for sc in rows])[:, None]
    M1, M2, M3 = (np.array([getattr(sc, name) for sc in rows])[:, None]
                  for name in ("M1", "M2", "M3"))
    a = alphas[None, :]
    # eta/zeta's float arithmetic overflows to inf silently; so does this
    with np.errstate(over="ignore"):
        if hausdorff:
            contraction = a * M1 * e0 + 2.0 * M2 * e1 + 2.0 * M3 * e0
        else:
            contraction = a * e0 + M2 * e1 + M3 * e0
    upper = 2.0 if hausdorff else M1
    in_range = np.broadcast_to((a > 0.0) & (a < upper), contraction.shape)
    feasible = in_range & (contraction < 1.0)
    alpha_list = alphas.tolist()
    numerators = {}
    bound = []
    for sc, crow, rrow, frow in zip(rows, contraction.tolist(),
                                    in_range.tolist(), feasible.tolist()):
        L = sc.Lambda
        key = (L, None if hausdorff else sc.M1)
        num = numerators.get(key)
        if num is None:
            # the fractal numerator is negated so that both bounds are
            # num / ln(contraction); negation is exact in IEEE arithmetic
            num = numerators[key] = [
                (-math.log(L) - L * math.log(2.0 + 4.0 / x) if hausdorff
                 else -(math.log(L) + L * math.log(2.0 + 2.0 * sc.M1 / x)))
                if r else None for x, r in zip(alpha_list, rrow)]
        bound.append([n / math.log(c) if f else math.nan
                      for n, c, f in zip(num, crow, frow)])
    return (t0_rows, contraction, in_range,
            np.array(bound).reshape(contraction.shape))


def optimize_bound(sc_of_t0, alpha_range, t0_range, target: str = "hausdorff",
                   grid: int = 64) -> OptimizeResult:
    """Minimize the chosen bound over (alpha, t0).

    sc_of_t0: callable t0 -> SqueezeConstants (the application constants
    depend on t0); alpha_range/t0_range: (lo, hi) intervals.  A grid x grid
    array scan (`_scan_grid`), then coordinate-wise golden-section
    refinement to 1e-6 with the scalar bound.  Only cells with 0 < alpha < 2
    (hausdorff) or 0 < alpha < M1 (fractal) count toward the argmin and
    toward min_contraction, and only those with contraction < 1 toward the
    argmin; t0s where sc_of_t0 raises ConfigError or DomainError count
    toward neither.  Returns a structured infeasibility report (never an
    exception) when no grid cell is feasible.
    """
    if target not in ("hausdorff", "fractal"):
        raise ConfigError(f"target must be hausdorff or fractal, got {target}")
    a_lo, a_hi = map(float, alpha_range)
    t_lo, t_hi = map(float, t0_range)
    if not (a_hi > a_lo > 0 and t_hi > t_lo > 0):
        raise ConfigError("ranges must be positive nonempty intervals")

    def evaluate(alpha, t0):
        """Bound value, or inf when infeasible at (alpha, t0)."""
        try:
            sc = sc_of_t0(t0)
        except (ConfigError, DomainError):
            return math.inf
        if target == "hausdorff":
            val = hausdorff_bound(sc, alpha) if 0.0 < alpha < 2.0 else None
        else:
            val = fractal_bound(sc, alpha) if 0.0 < alpha < sc.M1 else None
        return math.inf if val is None else val

    alphas = np.linspace(a_lo, a_hi, grid)
    t0_rows, contraction, in_range, bound = _scan_grid(
        sc_of_t0, alphas, np.linspace(t_lo, t_hi, grid), target)
    min_contraction = float(np.min(contraction, where=in_range,
                                   initial=math.inf))
    vals = np.where(np.isnan(bound), math.inf, bound)
    best_val = float(np.min(vals, initial=math.inf))
    if not best_val < math.inf:
        return OptimizeResult(
            feasible=False, alpha=None, t0=None, bound=None, target=target,
            min_contraction=min_contraction,
            reasons={"constraint": f"{'eta' if target == 'hausdorff' else 'zeta'} >= 1 "
                                   "everywhere on the grid",
                     "min_contraction": min_contraction})
    i, j = divmod(int(np.argmin(vals)), len(alphas))
    best = (best_val, float(alphas[j]), t0_rows[i])
    _, alpha, t0 = best
    # coordinate-wise golden-section refinement
    for _ in range(3):
        alpha = _golden_min(lambda a: evaluate(a, t0), a_lo, a_hi)
        t0 = _golden_min(lambda t: evaluate(alpha, t), t_lo, t_hi)
    val = evaluate(alpha, t0)
    if val > best[0]:  # refinement should never lose to the grid
        val, alpha, t0 = best
    return OptimizeResult(
        feasible=True, alpha=float(alpha), t0=float(t0), bound=float(val),
        target=target, min_contraction=min_contraction, reasons={})


def bound_grid_csv(sc_of_t0, alpha_range, t0_range, path_or_buf,
                   target: str = "hausdorff", grid: int = 64) -> None:
    """CSV of (alpha, t0, contraction, bound-or-empty) over the scan grid.

    One pass over `_scan_grid`'s arrays.  A row is written for every
    alpha > 0, also at alpha >= 2 (hausdorff) or alpha >= M1 (any other
    target: fractal), where the bound is left empty, as it is where the
    contraction is >= 1.  No row is written for alpha <= 0 or for a t0
    where sc_of_t0 raises ConfigError or DomainError.
    """
    a_lo, a_hi = map(float, alpha_range)
    t_lo, t_hi = map(float, t0_range)
    alphas = np.linspace(a_lo, a_hi, grid)
    t0_rows, contraction, _, bound = _scan_grid(
        sc_of_t0, alphas, np.linspace(t_lo, t_hi, grid), target)
    cols = [(j, repr(x)) for j, x in enumerate(alphas.tolist()) if x > 0]
    with open_path_or_buf(path_or_buf, "w", newline="") as f:
        # the csv module's default dialect, written directly: float reprs
        # and empty cells need no quoting, and rows end in "\r\n"
        f.write("alpha,t0,contraction,bound\r\n")
        for t0, crow, brow in zip(t0_rows, contraction.tolist(),
                                  bound.tolist()):
            t0_text = repr(t0)
            f.write("".join(
                f"{a_text},{t0_text},{crow[j]!r},"
                f"{'' if math.isnan(brow[j]) else repr(brow[j])}\r\n"
                for j, a_text in cols))
