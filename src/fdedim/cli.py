"""Command-line interface: configuration, orchestration, report emission.

Verbs: roots, bounds, optimize, simulate, squeeze-check, absorbing-check,
boxdim, cover-check, pipeline.  Each verb reads flags, optionally merged
over a JSON config file (--config; flags override file values, unknown keys
rejected).  Exit codes: 0 success, 2 usage/config error, 3 infeasible
bounds, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys

import numpy as np

from . import bounds as bd
from . import boxdim as bx
from . import covering as cv
from .charroots import ordered_spectrum, spectrum_to_csv
from .core import random_smooth_segment, sup_norm, write_json
from .errors import (ConfigError, ContourError, FdedimError,
                     IntegrationError, NetConstructionError, TruncationError)
from .sim import (NonlinearitySpec, RDEParams, check_absorbing, check_squeeze,
                  rde_grid, simulate_rde)
from .spectral import (K_SAFETY, build_decomposition,
                       estimate_projection_norm, fit_dichotomy_K, with_K)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

log = logging.getLogger(__name__)


class _CliError(Exception):
    def __init__(self, msg, code=EXIT_USAGE):
        super().__init__(msg)
        self.code = code


def _merge_config(args):
    """Overlay: defaults < config file < explicit flags.  args already has
    flag values; config fills only entries the user did not pass (tracked
    via the sentinel defaults).  Each config value passes its flag's type
    and choices, as str(value) would on the command line: a nonempty list
    of them for a flag that takes several values."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except json.JSONDecodeError as exc:
        raise _CliError(f"malformed JSON config {args.config}: {exc}")
    except OSError as exc:
        raise _CliError(f"cannot read config: {exc}")
    if not isinstance(cfg, dict):
        raise _CliError("config root must be a JSON object")
    unknown = set(cfg) - set(args.flags)
    if unknown:
        raise _CliError(f"unknown config keys: {sorted(unknown)}")
    for key, val in cfg.items():
        if getattr(args, key, None) is not None:
            continue
        action = args.flags[key]
        many = action.nargs == "+"
        if many != isinstance(val, list) or val == []:
            raise ConfigError(f"config key {key!r} takes "
                              f"{'a nonempty list' if many else 'one value'}"
                              f", got {val!r}")
        try:
            items = [(action.type or str)(str(v))
                     for v in (val if many else [val])]
        except ValueError:
            raise ConfigError(f"config key {key!r}: invalid value {val!r}")
        if action.choices and not set(items) <= set(action.choices):
            raise ConfigError(f"config key {key!r} must be one of "
                              f"{list(action.choices)}, got {val!r}")
        setattr(args, key, items if many else items[0])


def _require(args, *names):
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise _CliError("missing required parameters: "
                        + ", ".join(n.replace('_', '-') for n in missing))


def _or(value, default):
    """value, or default when the flag was not given: an explicit 0 is a
    value, not a missing flag."""
    return default if value is None else value


def _outdir(args):
    d = args.output_dir or "."
    os.makedirs(d, exist_ok=True)
    return d


def _nonlinearity(args) -> NonlinearitySpec:
    """The flags' nonlinearity; kappa and offset, whenever given, go to
    NonlinearitySpec, which rejects them for a kind without them."""
    kw = {name: float(getattr(args, name)) for name in ("kappa", "offset")
          if getattr(args, name, None) is not None}
    return NonlinearitySpec(kind=getattr(args, "nonlinearity", None) or "zero",
                            **kw)


def _rde_params(args) -> RDEParams:
    _require(args, "a", "b", "r", "num_modes")
    return RDEParams(a=float(args.a), b=float(args.b), r=float(args.r),
                     num_modes=int(args.num_modes),
                     nonlinearity=_nonlinearity(args))


def _ic_scale(args) -> float:
    scale = float(_or(args.ic_scale, 1.0))
    if not scale > 0:
        raise _CliError(f"ic-scale must be positive, got {scale!r}")
    return scale


def _initial_segment(grid, seed, scale):
    rng = np.random.default_rng(int(seed))
    return random_smooth_segment(grid, rng, scale=float(scale))


def _spectrum(args, max_mode):
    """The ordered spectrum of the flags' a, b, r and floor, over modes
    1..max_mode."""
    _require(args, "a", "b", "r", "floor")
    return ordered_spectrum(float(args.a), float(args.b), float(args.r),
                            int(max_mode), float(args.floor))


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def cmd_roots(args):
    _require(args, "a", "b", "r", "max_mode", "floor")
    table = _spectrum(args, args.max_mode)
    out = _outdir(args)
    spectrum_to_csv(table, os.path.join(out, "spectrum.csv"))
    write_json(table.to_dict(), os.path.join(out, "spectrum.json"))
    print(f"spectrum: {len(table.rhos)} levels, rho1={table.rhos[0]!r}, "
          f"k_max={table.cumulative[-1]}")
    return EXIT_OK


def _constants_from_args(args, t0):
    names = ("M1", "M2", "M3", "lambda0", "lambda1", "Lambda")
    _require(args, *names)
    return bd.SqueezeConstants(
        M1=float(args.M1), M2=float(args.M2), M3=float(args.M3),
        lambda0=float(args.lambda0), lambda1=float(args.lambda1),
        Lambda=int(args.Lambda), t0=float(t0))


def cmd_bounds(args):
    _require(args, "alpha", "t0")
    sc = _constants_from_args(args, args.t0)
    report = bd.bound_report(sc, float(args.alpha))
    out = _outdir(args)
    write_json(report.to_dict(), os.path.join(out, "bound_report.json"))
    print(f"eta={report.eta!r} zeta={report.zeta!r} "
          f"hausdorff={report.hausdorff!r} fractal={report.fractal!r}")
    if report.hausdorff is None and report.fractal is None:
        print("infeasible: no bound available at this alpha")
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_optimize(args):
    _require(args, "alpha_min", "alpha_max", "t0_min", "t0_max")
    target = args.target or "hausdorff"
    alpha_range = (float(args.alpha_min), float(args.alpha_max))
    t0_range = (float(args.t0_min), float(args.t0_max))
    # the optimizer varies t0; the constants carry the range's lower end
    sc = _constants_from_args(args, t0_range[0])
    res = bd.optimize_bound(sc, alpha_range, t0_range, target=target)
    out = _outdir(args)
    write_json(res.to_dict(), os.path.join(out, "optimize.json"))
    bd.bound_grid_csv(res, os.path.join(out, "bound_grid.csv"))
    if not res.feasible:
        print(f"infeasible: {res.reasons}")
        return EXIT_INFEASIBLE
    print(f"optimum {target}: {res.bound!r} at alpha={res.alpha!r} "
          f"t0={res.t0!r}")
    return EXIT_OK


def cmd_simulate(args):
    params = _rde_params(args)
    _require(args, "T", "dt")
    grid = rde_grid(params, int(_or(args.num_nodes, 33)))
    phi = _initial_segment(grid, args.seed or 0, _ic_scale(args))
    traj = simulate_rde(params, phi, float(args.T), float(args.dt))
    out = _outdir(args)
    traj.to_csv(os.path.join(out, "trajectory.csv"))
    print(f"simulated to T={args.T}; final sup-norm "
          f"{traj.norms()[-1]!r}")
    return EXIT_OK


# provenance of the M1 that bd.rde_constants returns
M1_PROVENANCE = "certified (P-leg bound from the characteristic roots)"


def _decomposition_pipeline(args, params):
    """spectrum -> decomposition -> fitted K, shared by several verbs."""
    table = _spectrum(args, _or(args.max_mode, params.num_modes))
    m = int(_or(args.m, 1))
    grid = rde_grid(params, int(_or(args.num_nodes, 33)))
    decomp = build_decomposition(table, m, params, grid)
    K_fit, K_margin = fit_dichotomy_K(
        decomp, trials=30 if args.k_trials is None else int(args.k_trials),
        seed=int(args.seed or 0))
    return table, with_K(decomp, K_fit, K_margin), grid


def _pair(args, params, grid):
    """Two smooth histories drawn from seed + 1, integrated to T as one
    batch: the trajectory pair of squeeze-check and pipeline."""
    rng = np.random.default_rng(int(args.seed or 0) + 1)
    scale = _ic_scale(args)
    phis = [random_smooth_segment(grid, rng, scale=scale) for _ in range(2)]
    return simulate_rde(params, phis, float(args.T), float(args.dt))


def cmd_squeeze_check(args):
    params = _rde_params(args)
    _require(args, "T", "dt", "t0")
    table, decomp, grid = _decomposition_pipeline(args, params)
    sc = bd.rde_constants(table, decomp.m, params.L_f, decomp.K_fit,
                          float(args.t0))
    tr1, tr2 = _pair(args, params, grid)
    report = check_squeeze(tr1, tr2, decomp, sc)
    report = {k: v for k, v in report.items() if k != "rows"}
    report["constants"] = dataclasses.asdict(sc)
    report["M1_provenance"] = M1_PROVENANCE
    report["projection_norm"] = estimate_projection_norm(decomp)
    out = _outdir(args)
    write_json(report, os.path.join(out, "squeeze_report.json"))
    print(f"squeeze check: passed={report['passed']} "
          f"min_slack_P={report['min_slack_P']!r} "
          f"min_slack_Q={report['min_slack_Q']!r} "
          f"M1={sc.M1!r} ({report['M1_provenance']})")
    return EXIT_OK


def cmd_absorbing_check(args):
    """Window sup-norms against bd.rde_absorbing_envelope, 4 ulp of relative
    slack allowed: at t <= r, R + (|phi| - R) can round 1 ulp below |phi|."""
    params = _rde_params(args)
    _require(args, "T", "dt")
    grid = rde_grid(params, int(_or(args.num_nodes, 33)))
    phi = _initial_segment(grid, args.seed or 0, _ic_scale(args))
    traj = simulate_rde(params, phi, float(args.T), float(args.dt))
    c1, phin, norms = params.c1(), sup_norm(phi), traj.norms()
    ok = params.b + params.L_f < 1.0 + params.a
    report = {"envelope_applicable": ok, "envelope_violations": 0,
              "num_samples": len(norms), "c1": c1, "phi_norm": phin}
    if ok:
        hal = (params.a, params.b, params.L_f, c1, params.r)
        report["rate"], report["radius"] = bd.rde_halanay(*hal)
        env = bd.rde_absorbing_envelope(traj.sample_times(), phin, *hal)
        report["envelope_violations"] = int(np.sum(
            norms > env * (1.0 + 4.0 * np.finfo(float).eps)))
        report["absorbing"] = check_absorbing(traj, report["radius"] + 1e-9)
    out = _outdir(args)
    write_json(report, os.path.join(out, "absorbing_report.json"))
    print(f"absorbing check: envelope_ok={ok} "
          f"violations={report['envelope_violations']}")
    return EXIT_OK


def cmd_boxdim(args):
    params = _rde_params(args)
    _require(args, "T", "dt", "transient")
    grid = rde_grid(params, int(_or(args.num_nodes, 33)))
    n_ic = int(_or(args.num_ic, 3))
    scale = _ic_scale(args)
    ics = [_initial_segment(grid, (int(args.seed or 0)) * 7919 + i, scale)
           for i in range(n_ic)]
    sample = bx.sample_attractor(
        simulate_rde(params, ics, float(args.T), float(args.dt)),
        transient=float(args.transient),
        stride=grid.spacing * int(_or(args.stride_nodes, 1)),
        source={"a": params.a, "b": params.b, "r": params.r})
    diam = bx.diameter(sample)
    eps_max = float(_or(args.eps_max, max(diam, 1e-6)))
    eps = bx.dyadic_eps(eps_max, int(_or(args.eps_levels, 6)))
    result = bx.box_counting_dim(sample, eps)
    result["diameter"] = diam
    out = _outdir(args)
    write_json(result, os.path.join(out, "boxdim.json"))
    bx.counts_to_csv(result, os.path.join(out, "box_counts.csv"))
    print(f"boxdim: estimate={result['estimate']!r} "
          f"points={result['num_points']} diameter={result['diameter']!r}")
    return EXIT_OK


def cmd_cover_check(args):
    _require(args, "dim", "r1", "r2")
    weights = (tuple(args.weights) if getattr(args, "weights", None)
               else ())
    norm = cv.NormSpec(dim=int(args.dim), kind=args.norm or "sup",
                       weights=weights)
    net = cv.build_net(norm, float(args.r1), float(args.r2))
    report = cv.verify_covering(net, norm, float(args.r1), float(args.r2))
    report["bound"] = cv.covering_bound(norm.dim, float(args.r1),
                                        float(args.r2))
    report["within_bound"] = report["num_centers"] <= report["bound"]
    out = _outdir(args)
    cv.net_to_csv(net, os.path.join(out, "net.csv"))
    write_json(report, os.path.join(out, "cover_report.json"))
    print(f"covering: {report['num_centers']} centers "
          f"(bound {report['bound']!r}), passed={report['passed']}")
    return EXIT_OK


def cmd_pipeline(args):
    """Full chain for the reaction-diffusion application: spectrum ->
    decomposition -> fitted K -> constants -> optimized bounds ->
    trajectory pair -> squeeze check -> attractor sample -> box dimension,
    with one consolidated provenance-tagged report."""
    params = _rde_params(args)
    _require(args, "T", "dt")
    table, decomp, grid = _decomposition_pipeline(args, params)
    out = _outdir(args)
    spectrum_to_csv(table, os.path.join(out, "spectrum.csv"))

    alpha_range = (float(_or(args.alpha_min, 0.01)),
                   float(_or(args.alpha_max, 1.99)))
    t0_range = (float(_or(args.t0_min, 0.1 * params.r)),
                float(_or(args.t0_max, 20.0 * params.r)))
    # the optimizers vary t0; the constants carry the range's lower end
    sc = bd.rde_constants(table, decomp.m, params.L_f, decomp.K_fit,
                          t0_range[0])
    opt_h = bd.optimize_bound(sc, alpha_range, t0_range, "hausdorff")
    frac_alpha_hi = min(alpha_range[1], 0.999 * sc.M1)
    opt_f = (bd.optimize_bound(sc, (alpha_range[0], frac_alpha_hi),
                               t0_range, "fractal")
             if frac_alpha_hi > alpha_range[0] else None)
    bd.bound_grid_csv(opt_h, os.path.join(out, "bound_grid.csv"))

    tr1, tr2 = _pair(args, params, grid)
    tr1.to_csv(os.path.join(out, "trajectory.csv"))
    squeeze = None
    if opt_h.feasible:
        squeeze = check_squeeze(tr1, tr2, decomp,
                                dataclasses.replace(sc, t0=opt_h.t0))
        squeeze = {k: v for k, v in squeeze.items() if k != "rows"}

    transient = float(_or(args.transient, float(args.T) / 2.0))
    # the sample pools the pair already integrated above
    sample = bx.sample_attractor(
        [tr1, tr2], transient=transient, stride=grid.spacing,
        source={"a": params.a, "b": params.b, "r": params.r})
    diam = bx.diameter(sample)
    box = bx.box_counting_dim(sample, bx.dyadic_eps(max(diam, 1e-6), 6))
    if opt_h.feasible and box["estimate"] > opt_h.bound:
        # at the demo config this fires at seeds 0-99 with a transient of 2
        # or 3.5: a longer transient does not remove it
        log.warning("empirical box dimension %r exceeds the Hausdorff bound "
                    "%r (transient %r): the sample is two trajectories still "
                    "converging, which trace curves at the box sizes probed "
                    "(scaled to the sample's own diameter), so the estimate "
                    "measures their approach, not the attractor",
                    box["estimate"], opt_h.bound, transient)

    report = {
        "params": {"a": params.a, "b": params.b, "r": params.r,
                   "num_modes": params.num_modes,
                   "L_f": params.L_f,
                   "provenance": "user-supplied"},
        "spectrum": {"rhos": list(table.rhos),
                     "multiplicities": list(table.multiplicities),
                     "k": list(table.cumulative),
                     "provenance": "derived (characteristic roots)"},
        "dichotomy": {"K_fit": decomp.K_fit, "K_margin": decomp.K_margin,
                      "provenance": "fitted (linear simulation, safety "
                                    f"factor {K_SAFETY})"},
        "constants_m1": {"value": sc.M1, "provenance": M1_PROVENANCE},
        "hausdorff": opt_h.to_dict(),
        "fractal": opt_f.to_dict() if opt_f is not None else None,
        "squeeze": squeeze,
        "attractor": {"num_points": len(sample), "diameter": diam,
                      "box_dimension": box},
    }
    write_json(report, os.path.join(out, "pipeline_report.json"))
    feasible = opt_h.feasible or (opt_f is not None and opt_f.feasible)
    print(f"pipeline: hausdorff={'%r' % opt_h.bound if opt_h.feasible else 'infeasible'} "
          f"fractal={'%r' % opt_f.bound if opt_f and opt_f.feasible else 'infeasible'} "
          f"box={box['estimate']!r}")
    return EXIT_OK if feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--config", help="JSON config file; flags override")
    sp.add_argument("--output-dir", dest="output_dir")
    sp.add_argument("--seed", type=int)


def _add_rde(sp):
    sp.add_argument("--a", type=float)
    sp.add_argument("--b", type=float)
    sp.add_argument("--r", type=float)
    sp.add_argument("--num-modes", dest="num_modes", type=int)
    sp.add_argument("--nonlinearity",
                    choices=["zero", "tanh", "affine_tanh"])
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--offset", type=float)
    sp.add_argument("--num-nodes", dest="num_nodes", type=int)
    sp.add_argument("--T", type=float)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--ic-scale", dest="ic_scale", type=float)


def _add_decomp(sp):
    sp.add_argument("--m", type=int)
    sp.add_argument("--max-mode", dest="max_mode", type=int)
    sp.add_argument("--floor", type=float)
    sp.add_argument("--k-trials", dest="k_trials", type=int)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fdedim argument parser, built once per process: parse_args does
    not mutate it."""
    p = argparse.ArgumentParser(
        prog="fdedim",
        description="Attractor dimension bounds for delay equations")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roots", help="ordered characteristic spectrum")
    _add_common(sp)
    for flag in ("--a", "--b", "--r", "--floor"):
        sp.add_argument(flag, type=float)
    sp.add_argument("--max-mode", dest="max_mode", type=int)
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("bounds", help="evaluate dimension-bound formulas")
    _add_common(sp)
    for flag in ("--M1", "--M2", "--M3", "--lambda0", "--lambda1",
                 "--t0", "--alpha"):
        sp.add_argument(flag, type=float)
    sp.add_argument("--Lambda", type=int)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("optimize", help="tune (alpha, t0)")
    _add_common(sp)
    for flag in ("--M1", "--M2", "--M3", "--lambda0", "--lambda1",
                 "--alpha-min", "--alpha-max", "--t0-min", "--t0-max"):
        sp.add_argument(flag, type=float)
    sp.add_argument("--Lambda", type=int)
    sp.add_argument("--target", choices=["hausdorff", "fractal"])
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("simulate", help="integrate the modal system")
    _add_common(sp)
    _add_rde(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("squeeze-check",
                        help="verify squeezing along a trajectory pair")
    _add_common(sp)
    _add_rde(sp)
    _add_decomp(sp)
    sp.add_argument("--t0", type=float)
    sp.set_defaults(func=cmd_squeeze_check)

    sp = sub.add_parser("absorbing-check",
                        help="verify decay envelope / absorbing entry")
    _add_common(sp)
    _add_rde(sp)
    sp.set_defaults(func=cmd_absorbing_check)

    sp = sub.add_parser("boxdim", help="empirical box-counting dimension")
    _add_common(sp)
    _add_rde(sp)
    sp.add_argument("--transient", type=float)
    sp.add_argument("--num-ic", dest="num_ic", type=int)
    sp.add_argument("--stride-nodes", dest="stride_nodes", type=int)
    sp.add_argument("--eps-max", dest="eps_max", type=float)
    sp.add_argument("--eps-levels", dest="eps_levels", type=int)
    sp.set_defaults(func=cmd_boxdim)

    sp = sub.add_parser("cover-check", help="build and verify a ball net")
    _add_common(sp)
    sp.add_argument("--dim", type=int)
    sp.add_argument("--norm", choices=["sup", "euclidean", "weighted-sup"])
    sp.add_argument("--r1", type=float)
    sp.add_argument("--r2", type=float)
    sp.add_argument("--weights", type=float, nargs="+")
    sp.set_defaults(func=cmd_cover_check)

    sp = sub.add_parser("pipeline", help="full chain with one report")
    _add_common(sp)
    _add_rde(sp)
    _add_decomp(sp)
    sp.add_argument("--transient", type=float)
    for flag in ("--alpha-min", "--alpha-max", "--t0-min", "--t0-max"):
        sp.add_argument(flag, type=float)
    sp.set_defaults(func=cmd_pipeline)
    for sp in sub.choices.values():
        # each config key's flag, whose type and choices its value passes
        sp.set_defaults(flags={a.dest: a for a in sp._actions
                               if a.dest != "help"})
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (TruncationError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IntegrationError, ContourError, NetConstructionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FdedimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
