import importlib.util
import json
import subprocess
from pathlib import Path

import pytest


def load_bench_pairs():
    path = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


verdict = load_bench_pairs().verdict
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # median 1.0, IQR 0.035


def test_faster_in_every_pair_by_more_than_the_iqr():
    got = verdict(PARENT, [p - 0.1 for p in PARENT], lower=True, bound=0.25)
    assert got["change_better_pairs"] == "10/10"
    assert got["parent_iqr"] == pytest.approx(0.035)
    assert got["median_gap"] == pytest.approx(0.1)
    assert got["gain_rule_met"] and got["within_bound"]


def test_nine_of_ten_pairs_suffice_and_eight_do_not():
    change = [p - 0.1 for p in PARENT]
    change[0] = PARENT[0] + 0.01
    assert verdict(PARENT, change, lower=True, bound=0.25)["gain_rule_met"]
    change[1] = PARENT[1]  # a tie is not better
    got = verdict(PARENT, change, lower=True, bound=0.25)
    assert got["change_better_pairs"] == "8/10"
    assert not got["gain_rule_met"]


def test_a_gap_inside_the_parent_iqr_is_no_gain():
    got = verdict(PARENT, [p - 0.02 for p in PARENT], lower=True, bound=0.25)
    assert got["change_better_pairs"] == "10/10"
    assert got["median_gap"] < got["parent_iqr"]
    assert not got["gain_rule_met"]


def test_higher_is_better_metrics():
    acc = [0.6] * 10
    same = verdict(acc, acc, lower=False, bound=0.25)
    assert same["median_gap"] == 0.0 and same["change_better_pairs"] == "0/10"
    assert not same["gain_rule_met"] and same["within_bound"]
    assert verdict(acc, [0.7] * 10, lower=False, bound=0.25)["median_gap"] == pytest.approx(0.1)
    assert verdict(acc, [0.46] * 10, lower=False, bound=0.25)["within_bound"]
    assert not verdict(acc, [0.44] * 10, lower=False, bound=0.25)["within_bound"]


def test_bound_is_relative_to_the_parent_median():
    assert verdict(PARENT, [p * 1.2 for p in PARENT], lower=True, bound=0.25)["within_bound"]
    assert not verdict(PARENT, [p * 1.3 for p in PARENT], lower=True, bound=0.25)["within_bound"]


def test_a_run_that_writes_no_result_reads_no_stale_one(tmp_path, monkeypatch):
    bench_pairs = load_bench_pairs()
    results = tmp_path / ".perfbench_work" / "results"
    results.mkdir(parents=True)
    stale = {"environment": {"host": "earlier"}, "samples": {"plain": [{"digest": "old"}]}}
    (results / "loso-c8-full-seed1-trace0.json").write_text(json.dumps(stale))

    def exits_before_writing(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 1, stdout="# loso-c8-full seed=1 trace=0\n",
                                           stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", exits_before_writing)
    run = bench_pairs.run_once(tmp_path, "loso-c8-full", None, 1.0)
    assert run["code"] == 1 and run["seed"] == 1
    assert run["env"] == {} and run["digests"] == set()


def test_a_row_carries_the_counts_of_one_traced_run_per_side(tmp_path, monkeypatch):
    bench_pairs = load_bench_pairs()
    trees = {"parent": tmp_path / "parent", "change": bench_pairs.ROOT}
    calls = []

    def stub_run(tree, workload, seed, seconds, trace=0):
        side = "parent" if tree == trees["parent"] else "change"
        calls.append((side, trace))
        if trace:
            matrices = {"parent": 15456, "change": 14832}[side]
            metrics = {"spd.eig.matrices": {"value": matrices, "unit": "count"},
                       "spd.eig.calls": {"value": 900, "unit": "count"},
                       "trace.wall_s": {"value": 0.5, "unit": "s"}}
        else:
            metrics = {m: {"value": 1.0} for m in ("wall_s", "cpu_s", "setup_s",
                                                    "peak_rss_mb", "acc_mean", "acc_la_mean")}
        return {"code": 0, "seed": 7, "env": {}, "digests": {"d"},
                "result": {"attempted": 5, "failed": 0, "metrics": metrics}}

    monkeypatch.setattr(bench_pairs, "export_parent", lambda rev: trees["parent"])
    monkeypatch.setattr(bench_pairs, "run_once", stub_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--workload", "loso-disk-jobs2", "--pairs", "2",
                             "--out", str(out)]) == 0
    assert calls[-2:] == [("parent", 1), ("change", 1)]
    assert [trace for _, trace in calls[:-2]] == [0] * 4
    row = json.loads(out.read_text())["pairs"]["loso-disk-jobs2 --seed 7"]
    assert row["traced"] == {
        "parent": {"spd.eig.matrices": 15456, "spd.eig.calls": 900},
        "change": {"spd.eig.matrices": 14832, "spd.eig.calls": 900},
    }
    assert row["digests_equal"] and row["metrics"]["wall_s"]["change_better_pairs"] == "0/2"


def test_a_traced_run_reads_its_own_result_file(tmp_path, monkeypatch):
    bench_pairs = load_bench_pairs()
    results = tmp_path / ".perfbench_work" / "results"
    results.mkdir(parents=True)
    record = {"environment": {}, "samples": {"plain": [{"digest": "d"}]}}
    (results / "loso-c8-full-seed1-trace0.json").write_text(json.dumps(record))
    seen = []

    def traced_run(cmd, **kwargs):
        seen.append(cmd)
        (results / "loso-c8-full-seed1-trace1.json").write_text(json.dumps(record))
        return subprocess.CompletedProcess(cmd, 0, stdout="# loso-c8-full seed=1 trace=1\n{}",
                                           stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", traced_run)
    run = bench_pairs.run_once(tmp_path, "loso-c8-full", None, 1.0, trace=1)
    assert seen[0][seen[0].index("--trace") + 1] == "1"
    assert run["digests"] == {"d"}
    assert (results / "loso-c8-full-seed1-trace0.json").exists()  # the untraced result stays
