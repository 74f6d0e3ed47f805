import json
import pathlib
import runpy

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
METRICS = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb")


def test_bench_script_summarises_runs(tmp_path):
    script = runpy.run_path(str(SCRIPTS / "bench.py"))
    out = tmp_path / "bench.json"
    assert script["main"](["--workload", "boxcount", "--runs", "1",
                           "--seconds", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 0 and report["seconds"] == 1.0
    box = report["workloads"]["boxcount"]
    assert (box["runs"], box["correct"], box["failed"]) == (1, 1, 0)
    assert box["attempted"] > 0
    for name in METRICS:
        assert 0 < box[name]["q1"] <= box[name]["median"] <= box[name]["q3"]
