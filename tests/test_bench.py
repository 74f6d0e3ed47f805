import importlib.util
import json
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
METRICS = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb")


def test_bench_script_summarises_runs(tmp_path):
    script = runpy.run_path(str(SCRIPTS / "bench.py"))
    out = tmp_path / "bench.json"
    assert script["main"](["--workload", "boxcount", "--runs", "1",
                           "--seconds", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["seconds"] == 1.0 and report["runs"] == 1
    (result,) = report["results"]
    assert (result["seed"], result["workload"]) == (0, "boxcount")
    assert set(result) == {"seed", "workload", "change"}
    box = result["change"]
    assert (box["runs"], box["correct"], box["failed"]) == (1, 1, 0)
    assert box["attempted"] > 0
    for name in METRICS:
        assert 0 < box[name]["q1"] <= box[name]["median"] <= box[name]["q3"]


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench",
                                                  SCRIPTS / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_baseline_pairs_alternate(tmp_path, monkeypatch):
    # a fake run: this checkout does 2 ops/s and 1 MiB more than the
    # baseline's 1 op/s, except in the third pair, where the ops tie, and
    # its op tail is 3 s against 2 s; the baseline's median op takes 1 s
    # and 2 s in turn, against the change's 1 s at seed 0 and 0.9 s at 7
    bench = _load_bench()
    baseline = tmp_path / "parent"
    (baseline / "perfbench").mkdir(parents=True)
    (baseline / "perfbench" / "run.py").write_text("")
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        mine = checkout == bench.ROOT
        calls.append((mine, workload, seed))
        tie = mine and sum(c[0] for c in calls) == 3
        noisy = 1.0 + sum(not c[0] for c in calls) % 2
        values = {"setup_s": 0.5, "ops_per_s": 1.0 if tie else 1.0 + mine,
                  "op_p50_s": (0.9 if seed == 7 else 1.0) if mine else noisy,
                  "op_tail_s": 2.0 + mine,
                  "peak_rss_mb": 40.0 + mine}
        return {"correct": True, "failed": 0, "attempted": 10,
                "metrics": {k: {"value": v, "unit": "u"}
                            for k, v in values.items()}}

    monkeypatch.setattr(bench, "run_once", fake_run)
    out = tmp_path / "bench.json"
    assert bench.main(["--workload", "boxcount", "--runs", "4", "--seed",
                       "0", "--seed", "7", "--seconds", "1", "--baseline",
                       str(baseline), "--out", str(out)]) == 0
    # the side that runs first alternates from pair to pair
    assert [c[0] for c in calls[:8]] == [False, True, True, False] * 2
    assert [c[2] for c in calls] == [0] * 8 + [7] * 8
    report = json.loads(out.read_text())
    first, second = report["results"]
    assert (first["seed"], second["seed"]) == (0, 7)
    assert first["baseline"]["ops_per_s"]["median"] == 1.0
    assert first["change"]["ops_per_s"]["median"] == 2.0
    ops = first["pairs"]["ops_per_s"]
    assert ops["ratios"] == [2.0, 2.0, 1.0, 2.0]
    assert (ops["wins"], ops["pairs"], ops["better"]) == (3, 4, "higher")
    rss = first["pairs"]["peak_rss_mb"]
    assert (rss["wins"], rss["better"]) == (0, "lower")
    assert first["pairs"]["setup_s"]["wins"] == 0
    # +50 % op tail is past its 25 % bound; +2.5 % memory is inside its 5 %
    assert first["pairs"]["op_tail_s"]["worse_than_bound"] is True
    assert rss["worse_than_bound"] is False
    assert not any(first["pairs"][name]["worse_than_bound"]
                   for name in ("setup_s", "ops_per_s", "op_p50_s"))
    assert second["pairs"]["ops_per_s"]["wins"] == 4
    # the baseline's op p50 spreads by 1 s about its 1.5 s median, past the
    # 25 % bound: unresolved, unless every change run beats every baseline
    # run; no other metric spreads
    assert first["pairs"]["op_p50_s"]["unresolved"] is True
    assert second["pairs"]["op_p50_s"]["unresolved"] is False
    assert first["baseline"]["op_p50_s"]["median"] == 1.5
    assert not any(first["pairs"][name]["unresolved"]
                   for name in first["pairs"] if name != "op_p50_s")


def test_baseline_without_runner_rejected(tmp_path, capsys):
    bench = _load_bench()
    with pytest.raises(SystemExit) as exc:
        bench.main(["--workload", "boxcount", "--baseline", str(tmp_path)])
    assert exc.value.code == 2
    assert "has no perfbench/run.py" in capsys.readouterr().err
