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
