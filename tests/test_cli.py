import csv
import json
import logging
import os

import pytest

from fdedim.cli import main


def run(argv, tmp_path, sub=""):
    out = tmp_path / (sub or "out")
    code = main(argv + ["--output-dir", str(out)])
    return code, out


class TestRoots:
    def test_undelayed_golden_csv(self, tmp_path):
        code, out = run(["roots", "--a", "1", "--b", "0", "--r", "1",
                         "--max-mode", "3", "--floor", "-15"], tmp_path)
        assert code == 0
        lines = (out / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "rho,multiplicity,k_cumulative"
        assert lines[1:] == ["-2.0,1,1", "-5.0,1,2", "-10.0,1,3"]

    def test_missing_flag_exit_2(self, tmp_path):
        code, _ = run(["roots", "--a", "1", "--b", "0", "--r", "1"],
                      tmp_path)
        assert code == 2

    def test_bad_floor_exit_2(self, tmp_path):
        # floor fails the mode-coverage precheck -> usage error
        code, _ = run(["roots", "--a", "1", "--b", "0.1", "--r", "1",
                       "--max-mode", "3", "--floor", "-12"], tmp_path)
        assert code == 2

    def test_paper_sign_flag(self, tmp_path):
        code, out = run(["roots", "--a", "5", "--b", "0", "--r", "1",
                         "--max-mode", "2", "--floor", "-30",
                         "--paper-sign"], tmp_path)
        assert code == 0
        data = json.loads((out / "spectrum.json").read_text())
        # paper sign: mode offsets a - n^2 -> roots -(5-1), -(5-4)
        assert data["rhos"] == [-1.0, -4.0]


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

    def test_infeasible_exit_3(self, tmp_path):
        code, _ = run(["bounds", "--M1", "1", "--M2", "1", "--M3", "1",
                       "--lambda0", "0", "--lambda1", "0", "--Lambda", "1",
                       "--t0", "1", "--alpha", "1.5"], tmp_path)
        assert code == 3

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
                         "--dt", "0.00625", "--delta", "3.1",
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
        above = estimate is not None and estimate > rep["hausdorff"]["bound"]
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

    def test_pipeline_deterministic(self, tmp_path):
        argv = (["pipeline"] + self.RDE
                + ["--T", "3", "--m", "1", "--k-trials", "4",
                   "--transient", "1.5"])
        _, out1 = run(argv, tmp_path, sub="p1")
        _, out2 = run(argv, tmp_path, sub="p2")
        for name in ("pipeline_report.json", "spectrum.csv",
                     "trajectory.csv", "bound_grid.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
