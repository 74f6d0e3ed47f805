"""Roots of the delay characteristic equation and ordered spectra.

The scalar characteristic function is

    D(lam) = lam + c + b * exp(-lam * r)

whose roots are exactly lam = -c + W_k(-b r e^{c r}) / r over all Lambert W
branches k.  For the retarded reaction-diffusion equation the mode-n offset
is c = a + n^2; the a - n^2 printed in the source material is a misprint.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .core import write_csv
from .errors import ConfigError, ContourError, TruncationError

RESIDUAL_TOL = 1e-10
DEDUP_TOL = 1e-8
PERTURB_ATTEMPTS = 5  # enlarged boxes tried when a contour passes near a root


# ---------------------------------------------------------------------------
# Lambert W (Corless, Gonnet, Hare, Jeffrey & Knuth, "On the Lambert W
# function", Adv. Comput. Math. 5, 1996)
# ---------------------------------------------------------------------------

W_STEP_TOL = 4e-16  # relative step below which an iteration has converged
W_MAX_STEPS = 64


def _w_halley(x: float, w: complex) -> complex:
    """Halley's iteration on w e^w = x from the start w."""
    for _ in range(W_MAX_STEPS):
        ew = cmath.exp(w)
        f = w * ew - x
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= W_STEP_TOL * abs(w):
            break
    return w


def _w_log_newton(t: complex) -> complex:
    """Newton's iteration on w + Log w = t, started from the asymptotic
    series t - Log t + Log t / t.  With t = Log x + 2 pi i k this is W_k(x)
    without forming x; it needs |t| of order 1 or more."""
    lt = cmath.log(t)
    w = t - lt + lt / t
    for _ in range(W_MAX_STEPS):
        step = (w + cmath.log(w) - t) * w / (w + 1.0)
        w -= step
        if abs(step) <= W_STEP_TOL * abs(w):
            break
    return w


def lambert_w(x: float, k: int = 0) -> complex:
    """Branch k of the Lambert W function at a real x, on the branches of
    scipy.special.lambertw: a negative x lies on the upper side of each
    cut, so W_0 is real on [-1/e, inf) and W_-1 on [-1/e, 0).

    Halley's iteration on w e^w = x runs near the branch point -1/e (from
    its series, on W_0 and W_-1), on W_0 up to x = e and on W_-1 where it is
    real.  Newton's iteration on w + Log w = Log x + 2 pi i k runs
    everywhere else.
    """
    if x == 0.0:
        return 0j if k == 0 else complex(-math.inf, 0.0)
    p = cmath.sqrt(2.0 * (math.e * x + 1.0))
    if k in (0, -1) and abs(p) < 1.0:
        if p == 0:  # Halley's step would divide by w + 1 = 0
            return complex(-1.0, 0.0)
        s = 1.0 if k == 0 else -1.0
        return _w_halley(x, -1.0 + s * p - p * p / 3.0
                         + s * 11.0 / 72.0 * p ** 3)
    if k == 0 and -1.0 / math.e < x <= math.e:
        return _w_halley(x, complex(math.log1p(x)))
    if k == -1 and -1.0 / math.e < x < 0.0:
        # W_-1 is real here, and a real w < 0 solves w + Log w = Log x, not
        # Log x - 2 pi i: the logarithmic form would miss it
        l1 = math.log(-x)
        l2 = math.log(-l1)
        return _w_halley(x, complex(l1 - l2 + l2 / l1))
    return _w_log_newton(cmath.log(x) + 2j * math.pi * k)


def _w0_scaled(b: float, c: float, r: float) -> float:
    """W0(|b| r e^{c r}); past log-argument 700, where e^{c r} would
    overflow, it solves w + ln w = ln(|b| r) + c r instead."""
    u_log = math.log(abs(b) * r) + c * r
    if u_log > 700.0:
        return _w_log_newton(complex(u_log)).real
    return lambert_w(abs(b) * r * math.exp(c * r)).real


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------

def char_value(lam, c: float, b: float, r: float):
    return lam + c + b * np.exp(-lam * r)


def char_deriv(lam, c: float, b: float, r: float):
    return 1.0 - b * r * np.exp(-lam * r)


def residual_ok(lam: complex, c: float, b: float, r: float) -> bool:
    return abs(char_value(lam, c, b, r)) < RESIDUAL_TOL * (1.0 + abs(lam))


@dataclass(frozen=True)
class CharRoot:
    """A characteristic root; complex roots are stored with Im >= 0."""

    value: complex
    mode: int
    multiplicity: int = 1

    @property
    def is_pair(self) -> bool:
        return abs(self.value.imag) > DEDUP_TOL

    @property
    def real_dimension(self) -> int:
        """Real dimension contributed (conjugate pairs count double)."""
        return self.multiplicity * (2 if self.is_pair else 1)


def _newton_polish(lam: complex, c: float, b: float, r: float) -> complex:
    z = complex(lam)
    for _ in range(60):
        f = char_value(z, c, b, r)
        df = char_deriv(z, c, b, r)
        if df == 0:
            break
        step = f / df
        z = z - step
        if abs(step) < 1e-15 * (1.0 + abs(z)):
            break
    return z


# ---------------------------------------------------------------------------
# Rightmost-real-part bound
# ---------------------------------------------------------------------------

def rightmost_real_part_bound(c: float, b: float, r: float) -> float:
    """Upper bound on Re(lam) over all roots: the solution of
    rho = -c + |b| e^{-rho r}, i.e. -c + W0(|b| r e^{c r}) / r."""
    if b == 0.0:
        return -c
    return -c + _w0_scaled(b, c, r) / r


# ---------------------------------------------------------------------------
# Argument-principle contour machinery
# ---------------------------------------------------------------------------

class _NearSingular(Exception):
    pass


def _phase_steps(c, b, r, box, samples_per_edge):
    """Principal phase steps of D between consecutive samples of the
    counter-clockwise box contour."""
    re0, re1, im0, im1 = box
    corners = np.array([complex(re0, im0), complex(re1, im0),
                        complex(re1, im1), complex(re0, im1)])
    t = np.linspace(0.0, 1.0, samples_per_edge, endpoint=False)
    lam = (corners[:, None]
           + (np.roll(corners, -1) - corners)[:, None] * t).ravel()
    lam = np.append(lam, lam[0])
    f = char_value(lam, c, b, r)
    if float((np.abs(f) / (1.0 + np.abs(lam))).min()) < 1e-9:
        raise _NearSingular
    return np.angle(f[1:] / f[:-1])


def winding_number(c: float, b: float, r: float, box,
                   samples_per_edge: int | None = None) -> int:
    """Number of roots inside the rectangle, by the argument principle.

    The winding is the sum of the principal phase steps of D around the
    sampled contour over 2 pi.  The sampling doubles until every step is
    below pi/2; a coarser step may have wrapped past pi.
    """
    re0, re1, im0, im1 = box
    if not (re1 > re0 and im1 > im0):
        raise ConfigError(f"degenerate box {box}")
    if samples_per_edge is None:
        extent = max(re1 - re0, im1 - im0)
        samples_per_edge = max(128, int(12.0 * extent * max(r, 1.0)) + 16)
    n = samples_per_edge
    for _ in range(8):
        steps = _phase_steps(c, b, r, box, n)
        if np.abs(steps).max() < math.pi / 2.0:
            return round(float(steps.sum()) / (2.0 * math.pi))
        n *= 2
    raise ContourError(
        f"winding phase steps did not resolve on box {box}")


def _winding_with_perturbation(c, b, r, box):
    """Winding number with automatic box perturbation near singular contours."""
    re0, re1, im0, im1 = box
    w = max(re1 - re0, im1 - im0)
    for attempt in range(PERTURB_ATTEMPTS + 1):
        d = 1.3e-3 * w * attempt * (1.0 + 0.37 * attempt)
        cur = (re0 - d, re1 + d * 1.11, im0 - d * 0.93, im1 + d * 1.07)
        try:
            return winding_number(c, b, r, cur)
        except _NearSingular:
            continue
    raise ContourError(f"contour near root after {PERTURB_ATTEMPTS} "
                       f"perturbations of box {box}")


def _canonicalize(roots: list[complex], mode: int) -> list[CharRoot]:
    """Merge duplicates and conjugates; store Im >= 0 with multiplicity."""
    out: list[list] = []  # [value, count]
    for z in roots:
        if abs(z.imag) < DEDUP_TOL:
            z = complex(z.real, 0.0)
        elif z.imag < 0:
            z = z.conjugate()
        for entry in out:
            if abs(entry[0] - z) < 10 * DEDUP_TOL * (1.0 + abs(z)):
                entry[1] += 1
                break
        else:
            out.append([z, 1])
    result = []
    for z, cnt in sorted(out, key=lambda e: (-e[0].real, e[0].imag)):
        if abs(z.imag) > DEDUP_TOL and cnt % 2 == 0:
            # both conjugates were found
            result.append(CharRoot(z, mode, cnt // 2))
        else:
            result.append(CharRoot(z, mode, cnt))
    return result


# ---------------------------------------------------------------------------
# Per-mode roots by Lambert-branch enumeration
# ---------------------------------------------------------------------------

def _branch_roots(c: float, b: float, r: float, floor: float) -> list[complex]:
    """All roots with Re >= floor via lam = -c + W_k(-b r e^{cr}) / r.

    Re W_k decreases monotonically in |k|, so enumeration can stop at the
    first branch pair falling below the floor.  Raises OverflowError when
    the Lambert argument -b r e^{cr} is not a finite float.
    """
    arg = -b * r * math.exp(c * r)
    if math.isinf(arg):
        raise OverflowError("Lambert argument overflows")
    roots: list[complex] = []
    k = 0
    while True:
        done = True
        for kk in ({0} if k == 0 else {k, -k}):
            w = lambert_w(arg, kk)
            lam = (-c + w / r)
            lam = _newton_polish(lam, c, b, r)
            if lam.real >= floor:
                done = False
                if residual_ok(lam, c, b, r):
                    roots.append(lam)
        if done and k >= 1:
            break
        k += 1
        if k > 100000:
            raise ContourError("branch enumeration did not terminate")
    return roots


def mode_roots(a: float, b: float, r: float, n: int,
               floor: float) -> list[CharRoot]:
    """All characteristic roots of mode n (offset c = a + n^2) with
    Re >= floor."""
    if not r > 0:
        raise ConfigError("delay r must be positive")
    c = a + n * n
    if b == 0.0:
        return [CharRoot(complex(-c, 0.0), n, 1)] if -c >= floor else []
    re_up = rightmost_real_part_bound(c, b, r)
    if re_up < floor:
        # no root reaches the floor: this covers every mode whose Lambert
        # argument overflows at a desk-scale floor
        return []
    try:
        roots = _branch_roots(c, b, r, floor)
    except OverflowError:
        raise ConfigError(
            f"mode {n}: characteristic argument overflow") from None
    out = _canonicalize(roots, n)
    if out:
        total = sum(cr.real_dimension for cr in out)
        im_max = max(abs(cr.value.imag) for cr in out)
        box = (floor, re_up + 0.5, -(im_max + 2.0 + math.pi / r),
               im_max + 2.0 + math.pi / r)
        w = _winding_with_perturbation(c, b, r, box)
        if w != total:
            raise ContourError(
                f"mode {n}: winding count {w} != enumerated {total}")
    return out


# ---------------------------------------------------------------------------
# Ordered spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumTable:
    """Distinct real parts rho_1 > rho_2 > ... with real multiplicities."""

    rhos: tuple
    multiplicities: tuple
    cumulative: tuple
    truncation: tuple  # (max_mode, floor)
    groups: tuple = field(default=(), repr=False)  # tuple of CharRoot tuples
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # stored as Python floats: numpy scalars would leak into every
        # constant derived from the table and into its repr
        rhos = tuple(float(x) for x in self.rhos)
        if any(r2 >= r1 for r1, r2 in zip(rhos, rhos[1:])):
            raise ConfigError("rhos must be strictly decreasing")
        object.__setattr__(self, "rhos", rhos)
        if any(m < 1 for m in self.multiplicities):
            raise ConfigError("multiplicities must be >= 1")
        if tuple(np.cumsum(self.multiplicities)) != tuple(self.cumulative):
            raise ConfigError("cumulative must be the running multiplicity sum")

    def k(self, m: int) -> int:
        """Cumulative real dimension k_m."""
        return self.cumulative[m - 1]

    def to_dict(self) -> dict:
        return {
            "rhos": list(self.rhos),
            "multiplicities": list(self.multiplicities),
            "cumulative": list(self.cumulative),
            "truncation": {"max_mode": self.truncation[0],
                           "floor": self.truncation[1]},
            "params": dict(self.params),
            "roots": [
                [{"re": cr.value.real, "im": cr.value.imag, "mode": cr.mode,
                  "multiplicity": cr.multiplicity} for cr in grp]
                for grp in self.groups
            ],
        }


def ordered_spectrum(a: float, b: float, r: float, max_mode: int,
                     floor: float) -> SpectrumTable:
    """Merged descending spectrum over modes 1..max_mode above the floor.

    Coverage precondition: every mode beyond max_mode must have all of its
    roots below the floor, certified by the rightmost-real-part bound
    -c + W0(|b| r e^{c r}) / r (decreasing in the mode offset c).
    """
    if not r > 0:
        raise ConfigError("delay r must be positive")
    if max_mode < 1:
        raise ConfigError("max_mode must be >= 1")
    bound_next = rightmost_real_part_bound(a + (max_mode + 1) ** 2, b, r)
    if bound_next >= floor:
        raise TruncationError(
            f"floor {floor} does not cover mode {max_mode + 1} "
            f"(rightmost bound {bound_next:.6g})", mode=max_mode + 1)
    all_roots: list[CharRoot] = []
    for n in range(1, max_mode + 1):
        all_roots.extend(mode_roots(a, b, r, n, floor))
    if not all_roots:
        raise TruncationError("no roots above the floor", mode=None)
    groups: list[list[CharRoot]] = []
    for cr in sorted(all_roots, key=lambda t: -t.value.real):
        if groups and abs(groups[-1][0].value.real - cr.value.real) < DEDUP_TOL:
            groups[-1].append(cr)
        else:
            groups.append([cr])
    rhos = tuple(g[0].value.real for g in groups)
    mults = tuple(sum(cr.real_dimension for cr in g) for g in groups)
    cum = tuple(int(x) for x in np.cumsum(mults))
    return SpectrumTable(
        rhos=rhos, multiplicities=mults, cumulative=cum,
        truncation=(max_mode, floor),
        groups=tuple(tuple(g) for g in groups),
        params={"a": a, "b": b, "r": r},
    )


def spectrum_to_csv(table: SpectrumTable, path_or_buf) -> None:
    """One row per distinct real part: rho, multiplicity, k_cumulative."""
    write_csv(path_or_buf, ["rho", "multiplicity", "k_cumulative"],
              [table.rhos, table.multiplicities, table.cumulative])
