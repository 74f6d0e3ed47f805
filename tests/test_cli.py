import csv
import json
import logging
import math
import os
import pathlib
import re
import runpy
import shlex
import subprocess
import sys

import numpy as np
import pytest

from fdedim.bounds import rde_halanay
from fdedim.cli import _initial_segment, build_parser, main
from fdedim.core import sup_norm
from fdedim.sim import RDEParams, rde_grid, simulate_rde

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
SRC = ROOT / "src"


def run(argv, tmp_path, sub=""):
    out = tmp_path / (sub or "out")
    code = main(argv + ["--output-dir", str(out)])
    return code, out


def count_calls(monkeypatch, module, name):
    """Patch module.name to record the positional args of each call in the
    returned list."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestRoots:
    def test_undelayed_golden_csv(self, tmp_path):
        code, out = run(["roots", "--a", "1", "--b", "0", "--r", "1",
                         "--max-mode", "3", "--floor", "-15"], tmp_path)
        assert code == 0
        lines = (out / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "rho,multiplicity,k_cumulative"
        assert lines[1:] == ["-2.0,1,1", "-5.0,1,2", "-10.0,1,3"]

    def test_root_near_winding_box_edge(self, tmp_path):
        # a mode-2 root lies 0.010 inside the left edge of its winding
        # check box, closer than the initial contour sample step
        code, out = run(["roots", "--a", "1", "--b", "0.3", "--r", "1",
                         "--max-mode", "6", "--floor", "-4.5"], tmp_path)
        assert code == 0
        data = json.loads((out / "spectrum.json").read_text())
        assert len(data["rhos"]) == 21

    def test_missing_flag_exit_2(self, tmp_path):
        code, _ = run(["roots", "--a", "1", "--b", "0", "--r", "1"],
                      tmp_path)
        assert code == 2

    def test_bad_floor_exit_2(self, tmp_path):
        # floor fails the mode-coverage precheck -> usage error
        code, _ = run(["roots", "--a", "1", "--b", "0.1", "--r", "1",
                       "--max-mode", "3", "--floor", "-12"], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_nonpositive_delay_exit_2(self, tmp_path, r, capsys):
        # r is checked before the rightmost-real-part bound takes log(|b| r)
        code, out = run(["roots", "--a", "1", "--b", "0.3", "--r", r,
                         "--max-mode", "3", "--floor", "-15"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not (out / "spectrum.csv").exists()


class TestBounds:
    FEASIBLE = ["bounds", "--M1", "0.05", "--M2", "0.05", "--M3", "0.025",
                "--lambda0", "0", "--lambda1", "0", "--Lambda", "1",
                "--t0", "1", "--alpha", "2"]

    def test_unit_hausdorff_case(self, tmp_path):
        code, out = run(self.FEASIBLE, tmp_path)
        assert code == 0
        rep = json.loads((out / "bound_report.json").read_text())
        assert rep["hausdorff"] == pytest.approx(1.0)
        assert rep["eta"] == pytest.approx(0.25)

    def test_no_variant(self, tmp_path):
        # the pullback bounds are the same formulas: no variant flag or label
        with pytest.raises(SystemExit) as exc:
            run(self.FEASIBLE + ["--variant", "nonautonomous"], tmp_path)
        assert exc.value.code == 2
        code, out = run(self.FEASIBLE, tmp_path)
        assert code == 0
        rep = json.loads((out / "bound_report.json").read_text())
        assert "variant" not in rep

    def test_infeasible_exit_3(self, tmp_path):
        code, _ = run(["bounds", "--M1", "1", "--M2", "1", "--M3", "1",
                       "--lambda0", "0", "--lambda1", "0", "--Lambda", "1",
                       "--t0", "1", "--alpha", "1.5"], tmp_path)
        assert code == 3

    def test_infinite_t0_exit_2(self, tmp_path, capsys):
        argv = list(self.FEASIBLE)
        argv[argv.index("--t0") + 1] = "inf"
        code, out = run(argv, tmp_path)
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "bound_report.json").exists()

    def test_config_file_fills_missing(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "M1": 0.05, "M2": 0.05, "M3": 0.025, "lambda0": 0.0,
            "lambda1": 0.0, "Lambda": 1, "t0": 1.0, "alpha": 2.0}))
        code, out = run(["bounds", "--config", str(cfg)], tmp_path)
        assert code == 0
        rep = json.loads((out / "bound_report.json").read_text())
        assert rep["hausdorff"] == pytest.approx(1.0)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "M1": 1.0, "M2": 1.0, "M3": 1.0, "lambda0": 0.0,
            "lambda1": 0.0, "Lambda": 1, "t0": 1.0, "alpha": 2.0}))
        code, out = run(["bounds", "--config", str(cfg),
                         "--M1", "0.05", "--M2", "0.05", "--M3", "0.025"],
                        tmp_path)
        assert code == 0

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"M1": 0.1, "mystery_knob": 5}))
        code, _ = run(["bounds", "--config", str(cfg)], tmp_path)
        assert code == 2

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        code, _ = run(["bounds", "--config", str(cfg)], tmp_path)
        assert code == 2

    SIMULATE = ["simulate", "--b", "0.3", "--r", "1", "--num-nodes", "9",
                "--T", "0.5", "--dt", "0.03125"]

    @pytest.mark.parametrize("argv,value", [
        # a string for a float flag: not a ValueError traceback
        (SIMULATE + ["--num-modes", "2"], {"a": "abc"}),
        # one number for a list flag: not a TypeError traceback
        (["cover-check", "--dim", "2", "--r1", "2", "--r2", "1"],
         {"weights": 3}),
        # a fraction for an int flag, as --num-modes 2.5 is: not 2 modes
        (SIMULATE + ["--a", "1"], {"num_modes": 2.5})])
    def test_config_value_takes_flag_type(self, tmp_path, capsys, argv,
                                          value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(value))
        code, _ = run(argv + ["--config", str(cfg)], tmp_path)
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestOptimize:
    def test_feasible_grid_and_optimum(self, tmp_path):
        code, out = run(["optimize", "--M1", "0.1", "--M2", "0.05",
                         "--M3", "0.02", "--lambda0", "-0.5",
                         "--lambda1", "-1", "--Lambda", "1",
                         "--alpha-min", "0.1", "--alpha-max", "1.9",
                         "--t0-min", "0.5", "--t0-max", "2.0"], tmp_path)
        assert code == 0
        res = json.loads((out / "optimize.json").read_text())
        assert res["feasible"]
        assert res["bound"] > 0
        assert (out / "bound_grid.csv").exists()

    def test_infeasible_exit_3(self, tmp_path):
        code, out = run(["optimize", "--M1", "2", "--M2", "2",
                         "--M3", "2", "--lambda0", "0", "--lambda1", "0",
                         "--Lambda", "1",
                         "--alpha-min", "0.1", "--alpha-max", "1.9",
                         "--t0-min", "0.5", "--t0-max", "2.0"], tmp_path)
        assert code == 3
        res = json.loads((out / "optimize.json").read_text())
        assert not res["feasible"]
        assert res["reasons"]

    @pytest.mark.parametrize("constants,expected", [
        (["--M1", "0.1", "--M2", "0.05", "--M3", "0.02",
          "--lambda0", "-0.5", "--lambda1", "-1"], 0),
        (["--M1", "2", "--M2", "2", "--M3", "2",
          "--lambda0", "0", "--lambda1", "0"], 3)],
        ids=["feasible", "infeasible"])
    def test_scans_grid_once(self, tmp_path, monkeypatch, constants,
                             expected):
        # the CSV is the optimizer's own scan, written also before exit 3:
        # the one 2-D call of the bound evaluator
        from fdedim import bounds
        calls = count_calls(monkeypatch, bounds, "_evaluate")
        code, out = run(["optimize"] + constants
                        + ["--Lambda", "1", "--alpha-min", "0.1",
                           "--alpha-max", "1.9", "--t0-min", "0.5",
                           "--t0-max", "2.0"], tmp_path)
        assert code == expected
        assert [alphas.ndim for _, alphas, *_ in calls].count(2) == 1
        with open(out / "bound_grid.csv", newline="") as f:
            assert len(list(csv.reader(f))) == 1 + 64 * 64

    # lambda0 t0 below -745 at the long transit times: eta and zeta
    # underflow to 0.0, where math.log(0.0) used to end the run with a
    # ValueError traceback (exit 1)
    UNDERFLOW = ["--M1", "2", "--M2", "1", "--M3", "0.5", "--lambda0", "-41",
                 "--lambda1", "-45", "--Lambda", "1"]

    def test_contraction_underflow_optimize(self, tmp_path):
        code, out = run(["optimize"] + self.UNDERFLOW
                        + ["--alpha-min", "0.01", "--alpha-max", "1.99",
                           "--t0-min", "0.1", "--t0-max", "20"], tmp_path)
        assert code == 0
        res = json.loads((out / "optimize.json").read_text())
        assert res["feasible"] and res["min_contraction"] == 0.0
        assert math.isfinite(res["bound"]) and res["bound"] > 0

    def test_contraction_underflow_bounds(self, tmp_path):
        code, out = run(["bounds"] + self.UNDERFLOW
                        + ["--t0", "20", "--alpha", "1"], tmp_path)
        assert code == 0
        rep = json.loads((out / "bound_report.json").read_text())
        assert rep["eta"] == 0.0 and rep["zeta"] == 0.0
        for key in ("hausdorff", "fractal"):
            assert math.isfinite(rep[key]) and rep[key] > 0

    @pytest.mark.parametrize("flag", ["--M1", "--Lambda"])
    def test_invalid_constant_exit_2(self, tmp_path, flag, capsys):
        # invalid constants are a config error, as in `bounds`, not an
        # infeasible grid
        argv = ["optimize", "--M1", "0.1", "--M2", "0.05", "--M3", "0.02",
                "--lambda0", "-0.5", "--lambda1", "-1", "--Lambda", "1",
                "--alpha-min", "0.1", "--alpha-max", "1.9",
                "--t0-min", "0.5", "--t0-max", "2.0"]
        argv[argv.index(flag) + 1] = "0"
        code, out = run(argv, tmp_path)
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "optimize.json").exists()

    @pytest.mark.parametrize("flag", ["--alpha-max", "--t0-max"])
    def test_infinite_range_end_exit_2(self, tmp_path, flag, capsys):
        # with --alpha-max 1.9 and --t0-max 2 these constants are feasible;
        # an infinite end used to read as "eta >= 1 everywhere" (exit 3)
        argv = ["optimize", "--M1", "1", "--M2", "1", "--M3", "0",
                "--lambda0", "-1", "--lambda1", "-2", "--Lambda", "1",
                "--alpha-min", "0.1", "--alpha-max", "1.9",
                "--t0-min", "0.5", "--t0-max", "2"]
        argv[argv.index(flag) + 1] = "inf"
        code, out = run(argv, tmp_path)
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "optimize.json").exists()


class TestSimulate:
    ARGS = ["simulate", "--a", "1", "--b", "0.3", "--r", "1",
            "--num-modes", "2", "--num-nodes", "33",
            "--T", "2", "--dt", "0.015625", "--seed", "7"]

    def test_writes_trajectory(self, tmp_path):
        code, out = run(self.ARGS, tmp_path)
        assert code == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0].startswith("time,sup_norm")
        assert len(lines) > 32

    def test_determinism_byte_identical(self, tmp_path):
        _, out1 = run(self.ARGS, tmp_path, sub="run1")
        _, out2 = run(self.ARGS, tmp_path, sub="run2")
        assert (out1 / "trajectory.csv").read_bytes() == (
            out2 / "trajectory.csv").read_bytes()

    def test_bad_dt_exit_2(self, tmp_path):
        code, _ = run(["simulate", "--a", "1", "--b", "0.3", "--r", "1",
                       "--num-modes", "2", "--T", "2", "--dt", "0.013"],
                      tmp_path)
        assert code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--dt", "0"), ("--dt", "nan"), ("--T", "nan"), ("--T", "inf")])
    def test_invalid_step_or_horizon_exit_2(self, tmp_path, flag, value,
                                            capsys):
        # checked before the integrator divides by dt or rounds T / dt
        argv = list(self.ARGS)
        argv[argv.index(flag) + 1] = value
        code, out = run(argv, tmp_path)
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--kappa", "0.5"],
        ["--nonlinearity", "tanh", "--offset", "2"]],
        ids=["kappa-without-nonlinearity", "tanh-with-offset"])
    def test_unused_nonlinearity_flag_exit_2(self, flags, tmp_path, capsys):
        code, out = run(self.ARGS + flags, tmp_path)
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()


class TestChecksAndPipeline:
    RDE = ["--a", "1", "--b", "0.3", "--r", "1", "--num-modes", "3",
           "--num-nodes", "33", "--dt", "0.015625", "--floor", "-3.7",
           "--seed", "3"]

    def test_squeeze_check_runs(self, tmp_path):
        code, out = run(["squeeze-check"] + self.RDE
                        + ["--T", "3", "--t0", "1", "--m", "1",
                           "--k-trials", "8"], tmp_path)
        assert code == 0
        rep = json.loads((out / "squeeze_report.json").read_text())
        assert "min_slack_P" in rep and "min_slack_Q" in rep
        assert rep["constants"]["M2"] > 0
        # the certified M1 dominates the exact ||P|| it is reported next to
        assert rep["constants"]["M1"] >= rep["projection_norm"] >= 1.0

    def test_absorbing_check_runs(self, tmp_path):
        code, out = run(["absorbing-check", "--a", "3", "--b", "0.3",
                         "--r", "0.2", "--num-modes", "2",
                         "--num-nodes", "17", "--T", "3",
                         "--dt", "0.00625",
                         "--nonlinearity", "affine_tanh", "--kappa", "0.5",
                         "--offset", "0.1", "--seed", "5"], tmp_path)
        assert code == 0
        rep = json.loads((out / "absorbing_report.json").read_text())
        assert rep["envelope_applicable"]
        assert rep["envelope_violations"] == 0

    def test_boxdim_runs(self, tmp_path):
        code, out = run(["boxdim", "--a", "3", "--b", "0.3", "--r", "0.2",
                         "--num-modes", "2", "--num-nodes", "17",
                         "--T", "4", "--dt", "0.00625",
                         "--transient", "2", "--seed", "9"], tmp_path)
        assert code == 0
        assert (out / "boxdim.json").exists()

    def test_cover_check_runs(self, tmp_path):
        code, out = run(["cover-check", "--dim", "2", "--norm", "sup",
                         "--r1", "2", "--r2", "1"], tmp_path)
        assert code == 0
        rep = json.loads((out / "cover_report.json").read_text())
        assert rep["passed"] and rep["within_bound"]

    def test_pipeline_consolidated_report(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="fdedim.cli"):
            code, out = run(["pipeline"] + self.RDE
                            + ["--T", "4", "--m", "1", "--k-trials", "8",
                               "--nonlinearity", "tanh", "--kappa", "0.05",
                               "--transient", "2"], tmp_path)
        assert code == 0
        rep = json.loads((out / "pipeline_report.json").read_text())
        assert rep["hausdorff"]["feasible"]
        assert rep["hausdorff"]["bound"] > 0
        # an estimate above the certified bound is flagged, not hidden
        estimate = rep["attractor"]["box_dimension"]["estimate"]
        above = estimate > rep["hausdorff"]["bound"]
        flagged = [r.getMessage() for r in caplog.records
                   if "Hausdorff bound" in r.getMessage()]
        assert len(flagged) == int(above)
        if above:
            assert repr(estimate) in flagged[0]
            assert "transient 2.0" in flagged[0]
        assert rep["dichotomy"]["provenance"].startswith("fitted")
        assert rep["spectrum"]["provenance"].startswith("derived")
        assert rep["params"]["provenance"] == "user-supplied"
        for name in ("spectrum.csv", "bound_grid.csv", "trajectory.csv"):
            assert (out / name).exists()
        # plain CSV: every cell is a float literal or empty (no numpy reprs)
        with open(out / "bound_grid.csv", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == ["alpha", "t0", "contraction", "bound"]
        assert len(rows) == 64 * 64
        for row in rows:
            for cell in row:
                assert cell == "" or isinstance(float(cell), float)

    def test_pipeline_warning_names_converging_pair(self, tmp_path, caplog):
        # the demo's estimate exceeds its bound; the warning blames the
        # converging pair at the probed scales, not a short transient
        with caplog.at_level(logging.WARNING, logger="fdedim.cli"):
            code, out = run(["pipeline"] + self.RDE
                            + ["--T", "4", "--m", "1", "--k-trials", "8",
                               "--nonlinearity", "tanh", "--kappa", "0.05",
                               "--transient", "2"], tmp_path)
        assert code == 0
        rep = json.loads((out / "pipeline_report.json").read_text())
        assert (rep["attractor"]["box_dimension"]["estimate"]
                > rep["hausdorff"]["bound"])
        (message,) = [r.getMessage() for r in caplog.records
                      if "Hausdorff bound" in r.getMessage()]
        assert "two trajectories still converging" in message
        assert "trace curves at the box sizes probed" in message
        assert "transient tail" not in message

    @pytest.mark.parametrize("verb", [["pipeline"],
                                      ["squeeze-check", "--t0", "1"]])
    def test_zero_k_trials_exit_2(self, tmp_path, verb, capsys):
        # zero trials is a usage error, not the default of 30
        code, _ = run(verb + self.RDE + ["--T", "3", "--m", "1",
                                         "--k-trials", "0"], tmp_path)
        assert code == 2
        assert "at least one K trial" in capsys.readouterr().err

    def test_pipeline_builds_constants_once(self, tmp_path, monkeypatch):
        # the optimizers and the bound grid vary t0 on one set of constants
        from fdedim import bounds
        calls = count_calls(monkeypatch, bounds, "rde_constants")
        code, _ = run(["pipeline"] + self.RDE
                      + ["--T", "3", "--m", "1", "--k-trials", "4",
                         "--transient", "1.5"], tmp_path)
        assert code == 0
        assert len(calls) == 1

    def test_pipeline_scans_grids_twice(self, tmp_path, monkeypatch):
        # one grid scan (the evaluator's one 2-D call) per optimized
        # target; the CSV reuses the Hausdorff one
        from fdedim import bounds
        calls = count_calls(monkeypatch, bounds, "_evaluate")
        code, _ = run(["pipeline"] + self.RDE
                      + ["--T", "3", "--m", "1", "--k-trials", "4",
                         "--transient", "1.5"], tmp_path)
        assert code == 0
        assert [hausdorff for _, alphas, _, hausdorff in calls
                if alphas.ndim == 2] == [True, False]

    def test_pipeline_deterministic(self, tmp_path):
        argv = (["pipeline"] + self.RDE
                + ["--T", "3", "--m", "1", "--k-trials", "4",
                   "--transient", "1.5"])
        _, out1 = run(argv, tmp_path, sub="p1")
        _, out2 = run(argv, tmp_path, sub="p2")
        for name in ("pipeline_report.json", "spectrum.csv",
                     "trajectory.csv", "bound_grid.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestAbsorbingCheck:
    """The Halanay envelope needs no knob: --delta and --radius are gone."""

    # b - a = 0.9 < 1 is valid; the old delta envelope claimed to apply here
    STRONG_DELAY = ["absorbing-check", "--a", "1", "--b", "1.9",
                    "--r", "2", "--num-modes", "2", "--num-nodes", "17",
                    "--T", "6", "--dt", "0.03125", "--seed", "4"]

    @staticmethod
    def _old_envelope(t, phi_norm, a, L_f, delta, c1, r):
        # the removed delta envelope, verbatim, which left out b
        edr = math.exp(delta * r)
        gap = a - L_f * edr
        return c1 * edr / gap + edr * (phi_norm - c1 / gap) * math.exp(-gap * t)

    def test_strong_delay_holds(self, tmp_path):
        code, out = run(self.STRONG_DELAY, tmp_path)
        assert code == 0
        rep = json.loads((out / "absorbing_report.json").read_text())
        assert rep["envelope_applicable"]
        assert rep["envelope_violations"] == 0
        # the same trajectory broke the old envelope at delta = 1.01
        params = RDEParams(a=1.0, b=1.9, r=2.0, num_modes=2)
        phi = _initial_segment(rde_grid(params, 17), 4, 1.0)
        traj = simulate_rde(params, phi, 6.0, 0.03125)
        assert len(traj.norms()) == rep["num_samples"]
        old = [self._old_envelope(t, sup_norm(phi), 1.0, 0.0, 1.01, 0.0, 2.0)
               for t in traj.sample_times()]
        assert np.sum(traj.norms() > np.array(old)) > 0

    def test_report_has_rate_and_radius(self, tmp_path):
        code, out = run(self.STRONG_DELAY + ["--b", "0.3", "--nonlinearity",
                                      "affine_tanh", "--kappa", "0.5",
                                      "--offset", "0.1"], tmp_path)
        assert code == 0
        rep = json.loads((out / "absorbing_report.json").read_text())
        assert "delta" not in rep
        gamma, R = rde_halanay(1.0, 0.3, 0.5, rep["c1"], 2.0)
        assert (rep["rate"], rep["radius"]) == (gamma, R)
        assert rep["absorbing"]["radius"] == R + 1e-9
        assert rep["envelope_violations"] == 0

    def test_not_applicable_without_dissipation(self, tmp_path):
        # b + L_f = 2.1 >= 1 + a = 2
        code, out = run(self.STRONG_DELAY + ["--nonlinearity", "tanh",
                                      "--kappa", "0.2"], tmp_path)
        assert code == 0
        rep = json.loads((out / "absorbing_report.json").read_text())
        assert not rep["envelope_applicable"]
        assert "rate" not in rep and "absorbing" not in rep

    @pytest.mark.parametrize("flag", ["--delta", "--radius"])
    def test_removed_flags_exit_2(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            run(self.STRONG_DELAY + [flag, "3.1"], tmp_path)
        assert exc.value.code == 2

    def test_removed_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 3.1}))
        code, _ = run(self.STRONG_DELAY + ["--config", str(cfg)], tmp_path)
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err


class TestRemovedOptions:
    """Options that swapped a certified input for an uncertified one, and
    the K-fit horizon knob, are gone: as flags and as config keys."""

    VERBS = {
        "roots": (["roots", "--a", "1", "--b", "0", "--r", "1",
                   "--max-mode", "3", "--floor", "-15"], "spectrum.json"),
        "squeeze-check": (["squeeze-check"] + TestChecksAndPipeline.RDE
                          + ["--T", "3", "--t0", "1", "--m", "1",
                             "--k-trials", "4"], "squeeze_report.json"),
        "pipeline": (["pipeline"] + TestChecksAndPipeline.RDE
                     + ["--T", "3", "--m", "1", "--k-trials", "4",
                        "--transient", "1.5"], "pipeline_report.json"),
    }
    REMOVED = [("roots", ["--paper-sign"])] + [
        (verb, flag) for verb in ("squeeze-check", "pipeline")
        for flag in (["--paper-sign"], ["--statement-m1"],
                     ["--k-horizon", "5"])]
    IDS = [f"{verb}{flag[0]}" for verb, flag in REMOVED]

    @pytest.mark.parametrize("verb,flag", REMOVED, ids=IDS)
    def test_removed_flags_exit_2(self, tmp_path, verb, flag):
        argv, report = self.VERBS[verb]
        with pytest.raises(SystemExit) as exc:
            run(argv + flag, tmp_path)
        assert exc.value.code == 2
        assert not (tmp_path / "out" / report).exists()

    @pytest.mark.parametrize("verb,flag", REMOVED, ids=IDS)
    def test_removed_config_key_exit_2(self, tmp_path, capsys, verb, flag):
        # "false" is a true string: a switch read by truthiness takes it as on
        argv, report = self.VERBS[verb]
        key = flag[0][2:].replace("-", "_")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: flag[1] if flag[1:] else "false"}))
        code, out = run(argv + ["--config", str(cfg)], tmp_path)
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err
        assert not (out / report).exists()


def test_readme_examples_parse():
    """Every `fdedim ...` command of the README's sh blocks parses: no
    document names a flag the CLI does not have."""
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("fdedim "):
                commands.append(shlex.split(line, comments=True)[1:])
    assert len(commands) >= 9
    for argv in commands:
        args = build_parser().parse_args(argv)
        assert callable(args.func)


class TestWithoutScipy:
    """The runtime needs numpy alone; each test runs a fresh interpreter."""

    @staticmethod
    def python(code):
        path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_import_loads_no_scipy(self):
        done = self.python(
            "import sys, fdedim.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_pipeline_runs_with_scipy_blocked(self, tmp_path):
        argv = (["pipeline"] + TestChecksAndPipeline.RDE
                + ["--T", "4", "--m", "1", "--k-trials", "8",
                   "--nonlinearity", "tanh", "--kappa", "0.05",
                   "--transient", "2", "--output-dir", str(tmp_path)])
        done = self.python(
            "import sys; sys.modules['scipy'] = None; "
            f"from fdedim.cli import main; sys.exit(main({argv!r}))")
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "pipeline_report.json").exists()


def test_run_rde_pipeline_script_runs(tmp_path):
    script = runpy.run_path(str(SCRIPTS / "run_rde_pipeline.py"))
    assert script["main"](["--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "pipeline_report.json").exists()


class TestExplicitZeroFlags:
    """A flag given as 0 is that value, never the flag's default."""

    PIPELINE = (["pipeline"] + TestChecksAndPipeline.RDE
                + ["--T", "4", "--m", "1", "--k-trials", "4",
                   "--nonlinearity", "tanh", "--kappa", "0.05"])
    BOXDIM = ["boxdim", "--a", "3", "--b", "0.3", "--r", "0.2",
              "--num-modes", "2", "--num-nodes", "17", "--T", "4",
              "--dt", "0.00625", "--seed", "9"]

    def test_pipeline_transient_zero_samples_from_start(self, tmp_path):
        points = {}
        for transient in ("0", "2"):
            code, out = run(self.PIPELINE + ["--transient", transient],
                            tmp_path, sub=f"t{transient}")
            assert code == 0
            rep = json.loads((out / "pipeline_report.json").read_text())
            points[transient] = rep["attractor"]["num_points"]
        # one sample per history node on [0, 4] against [2, 4], two histories
        assert points == {"0": 2 * 129, "2": 2 * 65}

    @pytest.mark.parametrize("flag", [
        "--m", "--max-mode", "--num-nodes", "--alpha-min", "--alpha-max",
        "--t0-min", "--t0-max", "--ic-scale"])
    def test_pipeline_zero_rejected(self, tmp_path, flag, capsys):
        argv = self.PIPELINE + ["--transient", "2"]
        if flag in argv:
            argv[argv.index(flag) + 1] = "0"
        else:
            argv += [flag, "0"]
        code, out = run(argv, tmp_path)
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert not (out / "pipeline_report.json").exists()

    @pytest.mark.parametrize("flag", [
        "--num-ic", "--stride-nodes", "--eps-levels", "--eps-max",
        "--ic-scale", "--num-nodes"])
    def test_boxdim_zero_rejected(self, tmp_path, flag):
        argv = self.BOXDIM + ["--transient", "2"]
        if flag in argv:
            argv[argv.index(flag) + 1] = "0"
        else:
            argv += [flag, "0"]
        code, out = run(argv, tmp_path)
        assert code == 2
        assert not (out / "boxdim.json").exists()

    @pytest.mark.parametrize("flag", ["--num-nodes", "--ic-scale"])
    def test_simulate_zero_rejected(self, tmp_path, flag):
        code, out = run(TestSimulate.ARGS + [flag, "0"], tmp_path)
        assert code == 2
        assert not (out / "trajectory.csv").exists()
