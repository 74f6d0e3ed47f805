"""Roots of the delay characteristic equation and ordered spectra.

The scalar characteristic function is

    D(lam) = lam + c + b * exp(-lam * r)

whose roots are exactly lam = -c + W_k(-b r e^{c r}) / r over all Lambert W
branches k.  For the retarded reaction-diffusion equation the mode-n offset
is c = a + n^2 (default sign convention); the literal form printed in the
source material flips the n^2 sign, which `paper_sign=True` restores.
"""
from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special

from .core import open_path_or_buf
from .errors import ConfigError, ContourError, DomainError, TruncationError

RESIDUAL_TOL = 1e-10
DEDUP_TOL = 1e-8


# ---------------------------------------------------------------------------
# Lambert W, principal branch, by Halley iteration
# ---------------------------------------------------------------------------

def lambert_w0(x: float) -> float:
    """Principal real branch W0(x) for x >= -1/e, to ~1e-14 relative accuracy.

    Halley iteration; initial guess from the branch-point series for small
    arguments and the log asymptotic for large ones.
    """
    x = float(x)
    branch_point = -1.0 / math.e
    if x < branch_point - 1e-15:
        raise DomainError(f"lambert_w0 argument {x} below -1/e")
    if x < branch_point:
        x = branch_point
    if x == 0.0:
        return 0.0
    # initial guess
    if x < -0.25:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p ** 3
    elif x < 1.0:
        w = x * (1.0 - x + 1.5 * x * x)  # series around 0
    else:
        l1 = math.log(x)
        l2 = math.log(l1) if l1 > 1.0 else 0.0
        w = l1 - l2
    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - x
        if f == 0.0:
            break
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        dw = f / denom
        w_new = w - dw
        if abs(w_new - w) <= 1e-15 * (abs(w_new) + 1e-300):
            w = w_new
            break
        w = w_new
    return w


def _solve_w_plus_log(u: float) -> float:
    """Solve w + ln(w) = u for w > 0 (i.e. W0(e^u) without forming e^u)."""
    w = max(u - math.log(max(u, 2.0)), 1e-8) if u > 2.0 else 1.0
    for _ in range(80):
        f = w + math.log(w) - u
        df = 1.0 + 1.0 / w
        step = f / df
        w -= step
        if abs(step) < 1e-14 * max(1.0, abs(w)):
            break
    return w


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------

def char_value(lam, c: float, b: float, r: float):
    return lam + c + b * np.exp(-lam * r)


def char_deriv(lam, c: float, b: float, r: float):
    return 1.0 - b * r * np.exp(-lam * r)


def residual_ok(lam: complex, c: float, b: float, r: float,
                tol: float = RESIDUAL_TOL) -> bool:
    return abs(char_value(lam, c, b, r)) < tol * (1.0 + abs(lam))


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


def _newton_polish(lam: complex, c: float, b: float, r: float,
                   maxiter: int = 60) -> complex:
    z = complex(lam)
    for _ in range(maxiter):
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
# Real rightmost root and rightmost-real-part bound
# ---------------------------------------------------------------------------

def real_rightmost_root(c: float, b: float, r: float):
    """Largest real root of D, or None if no real root exists.

    All real roots are lam = -c + W_{0,-1}(-b r e^{c r}) / r; the largest
    comes from the principal branch, defined iff the argument is >= -1/e.
    """
    if not r > 0:
        raise ConfigError("delay r must be positive")
    if b == 0.0:
        return -c
    u_log = math.log(abs(b) * r) + c * r  # log |argument|
    if b < 0.0:
        # positive argument: W0 always defined
        if u_log > 700.0:
            w = _solve_w_plus_log(u_log)
        else:
            w = lambert_w0(abs(b) * r * math.exp(c * r))
        return -c + w / r
    # negative argument: exists iff -b r e^{cr} >= -1/e
    if u_log > -1.0 + 1e-14:
        if u_log > -1.0 + 1e-12:
            return None
        # hairline branch point: double real root
        return -c - 1.0 / r
    arg = -b * r * math.exp(c * r)
    return -c + lambert_w0(arg) / r


def rightmost_real_part_bound(c: float, b: float, r: float) -> float:
    """Upper bound on Re(lam) over all roots: the solution of
    rho = -c + |b| e^{-rho r}, i.e. -c + W0(|b| r e^{c r}) / r."""
    if b == 0.0:
        return -c
    u_log = math.log(abs(b) * r) + c * r
    if u_log > 700.0:
        w = _solve_w_plus_log(u_log)
    else:
        w = lambert_w0(abs(b) * r * math.exp(c * r))
    return -c + w / r


# ---------------------------------------------------------------------------
# Argument-principle contour machinery
# ---------------------------------------------------------------------------

class _NearSingular(Exception):
    pass


def _winding_integral(c, b, r, box, samples_per_edge):
    re0, re1, im0, im1 = box
    corners = [complex(re0, im0), complex(re1, im0),
               complex(re1, im1), complex(re0, im1), complex(re0, im0)]
    total = 0.0 + 0.0j
    min_scaled = math.inf
    for a0, a1 in zip(corners[:-1], corners[1:]):
        t = np.linspace(0.0, 1.0, samples_per_edge + 1)
        lam = a0 + (a1 - a0) * t
        f = char_value(lam, c, b, r)
        scaled = np.abs(f) / (1.0 + np.abs(lam))
        min_scaled = min(min_scaled, float(scaled.min()))
        if min_scaled < 1e-9:
            raise _NearSingular
        g = char_deriv(lam, c, b, r) / f
        total += np.trapezoid(g, lam)
    return total / (2.0j * math.pi), min_scaled


def winding_number(c: float, b: float, r: float, box,
                   samples_per_edge: int | None = None) -> int:
    """Number of roots inside the rectangle, by the argument principle."""
    re0, re1, im0, im1 = box
    if not (re1 > re0 and im1 > im0):
        raise ConfigError(f"degenerate box {box}")
    if samples_per_edge is None:
        extent = max(re1 - re0, im1 - im0)
        samples_per_edge = max(128, int(12.0 * extent * max(r, 1.0)) + 16)
    n = samples_per_edge
    for _ in range(8):
        val, _ = _winding_integral(c, b, r, box, n)
        k = round(val.real)
        if abs(val - k) < 0.2 and abs(val.imag) < 0.2:
            return int(k)
        n *= 2
    raise ContourError(
        f"winding integral did not converge to an integer on box {box}")


def _winding_with_perturbation(c, b, r, box, max_attempts=5):
    """Winding number with automatic box perturbation near singular contours."""
    re0, re1, im0, im1 = box
    w = max(re1 - re0, im1 - im0)
    for attempt in range(max_attempts + 1):
        d = 1.3e-3 * w * attempt * (1.0 + 0.37 * attempt)
        cur = (re0 - d, re1 + d * 1.11, im0 - d * 0.93, im1 + d * 1.07)
        try:
            return winding_number(c, b, r, cur), cur
        except _NearSingular:
            continue
    raise ContourError(f"contour near root after {max_attempts} perturbations "
                       f"of box {box}")


def roots_in_box(c: float, b: float, r: float, box, mode: int = 0,
                 min_box: float = 1e-7) -> list[CharRoot]:
    """All roots inside the rectangle box = (re_min, re_max, im_min, im_max).

    The count from the argument-principle winding number drives a recursive
    bisection; isolated roots are Newton-polished.  Conjugate values are
    canonicalized to Im >= 0; the total real count (a pair found at +/-Im
    counts twice) equals the winding number of the initial contour.
    """
    if not r > 0:
        raise ConfigError("delay r must be positive")
    count, box = _winding_with_perturbation(c, b, r, box)
    found: list[complex] = []

    def recurse(bx, n_roots):
        if n_roots == 0:
            return
        re0, re1, im0, im1 = bx
        diag = math.hypot(re1 - re0, im1 - im0)
        if n_roots == 1 or diag < min_box:
            z0 = complex((re0 + re1) / 2.0, (im0 + im1) / 2.0)
            z = _newton_polish(z0, c, b, r)
            inside = (re0 - 1e-9 <= z.real <= re1 + 1e-9
                      and im0 - 1e-9 <= z.imag <= im1 + 1e-9)
            if residual_ok(z, c, b, r) and (inside or diag < min_box):
                found.extend([z] * n_roots)
                return
            if diag < min_box:
                raise ContourError(f"failed to isolate root in box {bx}")
        # split the longer side, nudging the cut off any root
        if (re1 - re0) >= (im1 - im0):
            for frac in (0.5, 0.46, 0.54, 0.42, 0.58):
                cut = re0 + frac * (re1 - re0)
                try:
                    n_lo, b_lo = _winding_with_perturbation(
                        c, b, r, (re0, cut, im0, im1), max_attempts=2)
                except ContourError:
                    continue
                n_hi = n_roots - n_lo
                recurse(b_lo, n_lo)
                recurse((cut, re1, im0, im1), n_hi)
                return
        else:
            for frac in (0.5, 0.46, 0.54, 0.42, 0.58):
                cut = im0 + frac * (im1 - im0)
                try:
                    n_lo, b_lo = _winding_with_perturbation(
                        c, b, r, (re0, re1, im0, cut), max_attempts=2)
                except ContourError:
                    continue
                n_hi = n_roots - n_lo
                recurse(b_lo, n_lo)
                recurse((re0, re1, cut, im1), n_hi)
                return
        raise ContourError(f"could not split box {bx} cleanly")

    recurse(box, count)
    return _canonicalize(found, mode)


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
            # both conjugates were inside the box
            result.append(CharRoot(z, mode, cnt // 2))
        else:
            result.append(CharRoot(z, mode, cnt))
    return result


# ---------------------------------------------------------------------------
# Per-mode roots by Lambert-branch enumeration
# ---------------------------------------------------------------------------

def _mode_offset(a: float, n: int, paper_sign: bool) -> float:
    return a - n * n if paper_sign else a + n * n


def _branch_roots(c: float, b: float, r: float, floor: float) -> list[complex]:
    """All roots with Re >= floor via lam = -c + W_k(-b r e^{cr}) / r.

    Re W_k decreases monotonically in |k|, so enumeration can stop at the
    first branch pair falling below the floor.
    """
    arg = -b * r * math.exp(c * r)
    roots: list[complex] = []
    k = 0
    while True:
        done = True
        for kk in ({0} if k == 0 else {k, -k}):
            w = complex(scipy.special.lambertw(arg, kk))
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


def mode_roots(a: float, b: float, r: float, n: int, floor: float,
               paper_sign: bool = False, verify: bool = True) -> list[CharRoot]:
    """All characteristic roots of mode n with Re >= floor."""
    if not r > 0:
        raise ConfigError("delay r must be positive")
    c = _mode_offset(a, n, paper_sign)
    if b == 0.0:
        return [CharRoot(complex(-c, 0.0), n, 1)] if -c >= floor else []
    if math.log(abs(b) * r) + c * r > 700.0:
        # argument overflows; every root lies far below any desk-scale floor
        if rightmost_real_part_bound(c, b, r) < floor:
            return []
        raise ConfigError(f"mode {n}: characteristic argument overflow")
    roots = _branch_roots(c, b, r, floor)
    out = _canonicalize(roots, n)
    if verify and out:
        total = sum(cr.real_dimension for cr in out)
        im_max = max(abs(cr.value.imag) for cr in out)
        re_up = rightmost_real_part_bound(c, b, r) + 0.5
        box = (floor, re_up, -(im_max + 2.0 + math.pi / r),
               im_max + 2.0 + math.pi / r)
        w, _ = _winding_with_perturbation(c, b, r, box)
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
    # values derived from this table, memoised by the functions that derive
    # them (e.g. the certified M1 of bounds.rde_constants per (m, L_f))
    derived: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

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

    def to_rows(self):
        return [(rho, mult, cum) for rho, mult, cum in
                zip(self.rhos, self.multiplicities, self.cumulative)]

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
                     floor: float, paper_sign: bool = False,
                     verify: bool = True) -> SpectrumTable:
    """Merged descending spectrum over modes 1..max_mode above the floor.

    Coverage precondition: every mode beyond max_mode must have all of its
    roots below the floor, certified by the rightmost-real-part bound
    -c + W0(|b| r e^{c r}) / r (decreasing in the mode offset c).
    """
    if max_mode < 1:
        raise ConfigError("max_mode must be >= 1")
    c_next = _mode_offset(a, max_mode + 1, paper_sign)
    if not paper_sign:
        bound_next = rightmost_real_part_bound(c_next, b, r)
        if bound_next >= floor:
            raise TruncationError(
                f"floor {floor} does not cover mode {max_mode + 1} "
                f"(rightmost bound {bound_next:.6g})", mode=max_mode + 1)
    all_roots: list[CharRoot] = []
    for n in range(1, max_mode + 1):
        all_roots.extend(mode_roots(a, b, r, n, floor,
                                    paper_sign=paper_sign, verify=verify))
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
        params={"a": a, "b": b, "r": r, "paper_sign": paper_sign},
    )


def spectrum_to_csv(table: SpectrumTable, path_or_buf) -> None:
    with open_path_or_buf(path_or_buf, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["rho", "multiplicity", "k_cumulative"])
        for rho, mult, cum in table.to_rows():
            w.writerow([repr(float(rho)), mult, cum])
