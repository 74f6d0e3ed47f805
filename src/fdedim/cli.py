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
import math
import os
import sys

import numpy as np

from . import bounds as bd
from . import boxdim as bx
from . import covering as cv
from .charroots import ordered_spectrum, spectrum_to_csv
from .core import HistorySegment, random_smooth_segment, sup_norm, write_json
from .errors import (ConfigError, ContourError, FdedimError,
                     IntegrationError, NetConstructionError, TruncationError)
from .sim import (NonlinearitySpec, RDEParams, check_absorbing, check_squeeze,
                  rde_grid, simulate_rde)
from .spectral import (build_decomposition, estimate_projection_norm,
                       fit_dichotomy_K, project, with_K)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

log = logging.getLogger(__name__)


class _CliError(Exception):
    def __init__(self, msg, code=EXIT_USAGE):
        super().__init__(msg)
        self.code = code


def _merge_config(args, parser_dests):
    """Overlay: defaults < config file < explicit flags.  args already has
    flag values; config fills only entries the user did not pass (tracked
    via the sentinel defaults)."""
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
    unknown = set(cfg) - set(parser_dests)
    if unknown:
        raise _CliError(f"unknown config keys: {sorted(unknown)}")
    for key, val in cfg.items():
        if getattr(args, key, None) is None:
            setattr(args, key, val)


def _require(args, *names):
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise _CliError("missing required parameters: "
                        + ", ".join(n.replace('_', '-') for n in missing))


def _outdir(args):
    d = args.output_dir or "."
    os.makedirs(d, exist_ok=True)
    return d


def _nonlinearity(args) -> NonlinearitySpec:
    kind = getattr(args, "nonlinearity", None) or "zero"
    kw = {}
    if kind in ("tanh", "affine_tanh"):
        kw["kappa"] = float(getattr(args, "kappa", None) or 0.0)
    if kind == "affine_tanh":
        kw["offset"] = float(getattr(args, "offset", None) or 0.0)
    return NonlinearitySpec(kind=kind, **kw)


def _rde_params(args) -> RDEParams:
    _require(args, "a", "b", "r", "num_modes")
    return RDEParams(a=float(args.a), b=float(args.b), r=float(args.r),
                     num_modes=int(args.num_modes),
                     nonlinearity=_nonlinearity(args))


def _initial_segment(grid, seed, scale):
    rng = np.random.default_rng(int(seed))
    return random_smooth_segment(grid, rng, scale=float(scale))


def _spectrum(args):
    _require(args, "a", "b", "r", "max_mode", "floor")
    return ordered_spectrum(float(args.a), float(args.b), float(args.r),
                            int(args.max_mode), float(args.floor),
                            paper_sign=bool(args.paper_sign))


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def cmd_roots(args):
    table = _spectrum(args)
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
    report = bd.bound_report(sc, float(args.alpha),
                             variant=args.variant or "autonomous")
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

    def sc_of_t0(t0):
        return _constants_from_args(args, t0)

    res = bd.optimize_bound(sc_of_t0,
                            (float(args.alpha_min), float(args.alpha_max)),
                            (float(args.t0_min), float(args.t0_max)),
                            target=target)
    out = _outdir(args)
    write_json(res.to_dict(), os.path.join(out, "optimize.json"))
    bd.bound_grid_csv(sc_of_t0,
                      (float(args.alpha_min), float(args.alpha_max)),
                      (float(args.t0_min), float(args.t0_max)),
                      os.path.join(out, "bound_grid.csv"), target=target)
    if not res.feasible:
        print(f"infeasible: {res.reasons}")
        return EXIT_INFEASIBLE
    print(f"optimum {target}: {res.bound!r} at alpha={res.alpha!r} "
          f"t0={res.t0!r}")
    return EXIT_OK


def cmd_simulate(args):
    params = _rde_params(args)
    _require(args, "T", "dt")
    grid = rde_grid(params, int(args.num_nodes or 33))
    phi = _initial_segment(grid, args.seed or 0, args.ic_scale or 1.0)
    traj = simulate_rde(params, phi, float(args.T), float(args.dt))
    out = _outdir(args)
    traj.to_csv(os.path.join(out, "trajectory.csv"))
    print(f"simulated to T={args.T}; final sup-norm "
          f"{traj.norms()[-1]!r}")
    return EXIT_OK


def _m1_provenance(args):
    """Provenance of the M1 that bd.rde_constants returns for these flags."""
    return ("statement value 2" if args.statement_m1
            else "certified (P-leg bound from the characteristic roots)")


def _decomposition_pipeline(args, params):
    """spectrum -> decomposition -> fitted K, shared by several verbs."""
    spec_args = argparse.Namespace(
        a=params.a, b=params.b, r=params.r,
        max_mode=args.max_mode or params.num_modes,
        floor=args.floor, paper_sign=bool(args.paper_sign))
    _require(spec_args, "floor")
    table = ordered_spectrum(params.a, params.b, params.r,
                             int(spec_args.max_mode), float(spec_args.floor),
                             paper_sign=spec_args.paper_sign)
    m = int(args.m or 1)
    grid = rde_grid(params, int(args.num_nodes or 33))
    decomp = build_decomposition(table, m, params, grid)
    K_fit, K_margin = fit_dichotomy_K(
        decomp, trials=int(args.k_trials or 30),
        horizon=float(args.k_horizon or 5.0 * params.r),
        seed=int(args.seed or 0))
    return table, with_K(decomp, K_fit, K_margin), grid


def cmd_squeeze_check(args):
    params = _rde_params(args)
    _require(args, "T", "dt", "t0")
    table, decomp, grid = _decomposition_pipeline(args, params)
    sc = bd.rde_constants(table, decomp.m, params.L_f, decomp.K_fit,
                          float(args.t0),
                          statement_m1=bool(args.statement_m1))
    rng = np.random.default_rng(int(args.seed or 0) + 1)
    phi1 = random_smooth_segment(grid, rng, scale=float(args.ic_scale or 1.0))
    phi2 = random_smooth_segment(grid, rng, scale=float(args.ic_scale or 1.0))
    tr1 = simulate_rde(params, phi1, float(args.T), float(args.dt))
    tr2 = simulate_rde(params, phi2, float(args.T), float(args.dt))
    report = check_squeeze(tr1, tr2, decomp, sc)
    report = {k: v for k, v in report.items() if k != "rows"}
    report["constants"] = dataclasses.asdict(sc)
    report["M1_provenance"] = _m1_provenance(args)
    report["projection_norm"] = estimate_projection_norm(decomp)
    out = _outdir(args)
    write_json(report, os.path.join(out, "squeeze_report.json"))
    print(f"squeeze check: passed={report['passed']} "
          f"min_slack_P={report['min_slack_P']!r} "
          f"min_slack_Q={report['min_slack_Q']!r} "
          f"M1={sc.M1!r} ({report['M1_provenance']})")
    return EXIT_OK


def cmd_absorbing_check(args):
    params = _rde_params(args)
    _require(args, "T", "dt", "delta")
    grid = rde_grid(params, int(args.num_nodes or 33))
    phi = _initial_segment(grid, args.seed or 0, args.ic_scale or 1.0)
    traj = simulate_rde(params, phi, float(args.T), float(args.dt))
    delta = float(args.delta)
    c1 = params.c1()
    phin = sup_norm(phi)
    edr = math.exp(delta * params.r)
    env_ok = params.a > params.L_f * edr
    violations = 0
    if env_ok:
        for t, nn in zip(traj.sample_times(), traj.norms()):
            env = bd.rde_absorbing_envelope(t, phin, params.a, params.L_f,
                                            delta, c1, params.r)
            if nn > env:
                violations += 1
    radius = (float(args.radius) if args.radius is not None
              else (c1 * edr / (params.a - params.L_f * edr) + 1e-9
                    if env_ok else None))
    report = {
        "envelope_applicable": env_ok,
        "envelope_violations": violations,
        "num_samples": int(len(traj.sample_times())),
        "delta": delta, "c1": c1, "phi_norm": phin,
    }
    if radius is not None:
        report["absorbing"] = check_absorbing(traj, radius)
    out = _outdir(args)
    write_json(report, os.path.join(out, "absorbing_report.json"))
    print(f"absorbing check: envelope_ok={env_ok} violations={violations}")
    return EXIT_OK


def cmd_boxdim(args):
    params = _rde_params(args)
    _require(args, "T", "dt", "transient")
    grid = rde_grid(params, int(args.num_nodes or 33))
    n_ic = int(args.num_ic or 3)
    ics = [_initial_segment(grid, (int(args.seed or 0)) * 7919 + i,
                            args.ic_scale or 1.0) for i in range(n_ic)]
    stride = grid.spacing * int(args.stride_nodes or 1)
    sample = bx.sample_attractor(
        lambda phi: simulate_rde(params, phi, float(args.T), float(args.dt)),
        ics, transient=float(args.transient),
        horizon=float(args.T) - float(args.transient), stride=stride,
        source={"a": params.a, "b": params.b, "r": params.r})
    diam = bx.diameter(sample)
    eps_max = float(args.eps_max or max(diam, 1e-6))
    eps = bx.dyadic_eps(eps_max, int(args.eps_levels or 6))
    try:
        result = bx.box_counting_dim(sample, eps)
    except bx.DegenerateSampleError as exc:
        result = {"estimate": None, "degenerate": str(exc),
                  "num_points": len(sample)}
    result["diameter"] = diam
    out = _outdir(args)
    write_json(result, os.path.join(out, "boxdim.json"))
    if result.get("counts"):
        bx.counts_to_csv(result, os.path.join(out, "box_counts.csv"))
    print(f"boxdim: estimate={result.get('estimate')!r} "
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

    def sc_of_t0(t0):
        return bd.rde_constants(table, decomp.m, params.L_f, decomp.K_fit,
                                t0, statement_m1=bool(args.statement_m1))

    alpha_range = (float(args.alpha_min or 0.01),
                   float(args.alpha_max or 1.99))
    t0_range = (float(args.t0_min or 0.1 * params.r),
                float(args.t0_max or 20.0 * params.r))
    opt_h = bd.optimize_bound(sc_of_t0, alpha_range, t0_range, "hausdorff")
    frac_alpha_hi = min(alpha_range[1],
                        0.999 * sc_of_t0(t0_range[0]).M1)
    opt_f = (bd.optimize_bound(sc_of_t0, (alpha_range[0], frac_alpha_hi),
                               t0_range, "fractal")
             if frac_alpha_hi > alpha_range[0] else None)
    bd.bound_grid_csv(sc_of_t0, alpha_range, t0_range,
                      os.path.join(out, "bound_grid.csv"))

    rng = np.random.default_rng(int(args.seed or 0) + 1)
    scale = float(args.ic_scale or 1.0)
    phi1 = random_smooth_segment(grid, rng, scale=scale)
    phi2 = random_smooth_segment(grid, rng, scale=scale)
    tr1 = simulate_rde(params, phi1, float(args.T), float(args.dt))
    tr2 = simulate_rde(params, phi2, float(args.T), float(args.dt))
    tr1.to_csv(os.path.join(out, "trajectory.csv"))
    squeeze = None
    if opt_h.feasible:
        sc = sc_of_t0(opt_h.t0)
        squeeze = check_squeeze(tr1, tr2, decomp, sc)
        squeeze = {k: v for k, v in squeeze.items() if k != "rows"}

    transient = float(args.transient or float(args.T) / 2.0)
    # the sample pools the pair already integrated above
    sample = bx.sample_attractor(
        lambda tr: tr, [tr1, tr2], transient=transient,
        horizon=float(args.T) - transient, stride=grid.spacing,
        source={"a": params.a, "b": params.b, "r": params.r})
    diam = bx.diameter(sample)
    try:
        box = bx.box_counting_dim(sample,
                                  bx.dyadic_eps(max(diam, 1e-6), 6))
    except bx.DegenerateSampleError as exc:
        box = {"estimate": None, "degenerate": str(exc)}
    if (opt_h.feasible and box["estimate"] is not None
            and box["estimate"] > opt_h.bound):
        log.warning("empirical box dimension %r exceeds the Hausdorff bound "
                    "%r; the sample may still hold the transient tail "
                    "(transient %r)", box["estimate"], opt_h.bound,
                    transient)

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
                      "provenance": "fitted (linear simulation, "
                                    "safety factor 1.1)"},
        "constants_m1": {"value": sc_of_t0(t0_range[0]).M1,
                         "provenance": _m1_provenance(args)},
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
          f"box={box.get('estimate')!r}")
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
    sp.add_argument("--paper-sign", dest="paper_sign", action="store_const",
                    const=True)
    sp.add_argument("--k-trials", dest="k_trials", type=int)
    sp.add_argument("--k-horizon", dest="k_horizon", type=float)
    sp.add_argument("--statement-m1", dest="statement_m1",
                    action="store_const", const=True)


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
    sp.add_argument("--paper-sign", dest="paper_sign", action="store_const",
                    const=True)
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("bounds", help="evaluate dimension-bound formulas")
    _add_common(sp)
    for flag in ("--M1", "--M2", "--M3", "--lambda0", "--lambda1",
                 "--t0", "--alpha"):
        sp.add_argument(flag, type=float)
    sp.add_argument("--Lambda", type=int)
    sp.add_argument("--variant", choices=["autonomous", "nonautonomous"])
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
    sp.add_argument("--delta", type=float)
    sp.add_argument("--radius", type=float)
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
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    dests = {a.dest for a in parser._subparsers._group_actions[0]
             .choices[args.command]._actions if a.dest != "help"}
    try:
        _merge_config(args, dests)
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
