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


def stub_pairs(monkeypatch, tmp_path, change_absent=(), no_result=None):
    """``bench_pairs`` with ``run_once`` stubbed: both sides pass, and the
    change's traced result lacks the metrics ``change_absent``, which it
    reports absent. The call ``no_result`` (side, trace, n-th call of that
    kind) exits 0 with no result. Returns the module and the list of (side,
    trace) calls."""
    bench_pairs = load_bench_pairs()
    trees = {"parent": tmp_path / "parent", "change": bench_pairs.ROOT}
    calls = []

    def stub_run(tree, workload, seed, seconds, trace=0):
        side = "parent" if tree == trees["parent"] else "change"
        calls.append((side, trace))
        if (side, trace, calls.count((side, trace))) == no_result:
            return {"code": 0, "seed": 7, "env": {}, "digests": set(), "absent": [],
                    "result": {}, "problem": "no output"}
        absent = list(change_absent) if trace and side == "change" else []
        if trace:
            matrices = {"parent": 15456, "change": 14832}[side]
            metrics = {"spd.eig.matrices": {"value": matrices, "unit": "count"},
                       "spd.eig.calls": {"value": 900, "unit": "count"},
                       "spd.log_euclidean_mean.s": {"value": 0.1, "unit": "s"},
                       "trace.wall_s": {"value": 0.5, "unit": "s"}}
            for name in absent:
                del metrics[name]
        else:
            metrics = {m: {"value": 1.0} for m in ("wall_s", "cpu_s", "setup_s",
                                                    "peak_rss_mb", "acc_mean", "acc_la_mean")}
        return {"code": 0, "seed": 7, "env": {}, "digests": {"d"}, "absent": absent,
                "result": {"attempted": 5, "failed": 0, "metrics": metrics},
                "problem": None}

    monkeypatch.setattr(bench_pairs, "export_parent", lambda rev: trees["parent"])
    monkeypatch.setattr(bench_pairs, "run_once", stub_run)
    return bench_pairs, calls


def test_a_row_carries_the_counts_of_one_traced_run_per_side(tmp_path, monkeypatch):
    bench_pairs, calls = stub_pairs(monkeypatch, tmp_path)
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
    assert row["traced_absent"] == {"parent": [], "change": []}
    assert row["traced_dropped"] == [] and row["bad_results"] == []


def test_a_metric_missing_from_the_change_traced_run_fails(tmp_path, monkeypatch, capsys):
    bench_pairs, _ = stub_pairs(monkeypatch, tmp_path,
                                change_absent=["spd.log_euclidean_mean.s"])
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--workload", "loso-c8-full", "--pairs", "2",
                             "--out", str(out)]) == 1
    row = json.loads(out.read_text())["pairs"]["loso-c8-full --seed 7"]
    assert row["failed"] == {"parent": 0, "change": 0}  # every repetition passed
    assert row["traced_absent"] == {"parent": [], "change": ["spd.log_euclidean_mean.s"]}
    assert "spd.log_euclidean_mean.s" in row["traced_metrics"]["parent"]
    assert "spd.log_euclidean_mean.s" not in row["traced_metrics"]["change"]
    assert row["traced_dropped"] == ["spd.log_euclidean_mean.s"]
    assert "spd.log_euclidean_mean.s: in the parent's result" in capsys.readouterr().err


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


RESULT = '{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": %s}}}'


@pytest.mark.parametrize("last_line", [
    pytest.param("", id="no-result"),
    pytest.param(RESULT % "NaN", id="nan"),
    pytest.param(RESULT % "-Infinity", id="infinity"),
    pytest.param("{}", id="not-a-result-object"),
    pytest.param("[1, 2]", id="not-an-object"),
    pytest.param("wrote report.csv", id="not-json"),
])
def test_a_last_line_that_is_not_a_strict_result_is_a_problem(tmp_path, monkeypatch,
                                                              last_line):
    bench_pairs = load_bench_pairs()

    def exits_0(cmd, **kwargs):
        return subprocess.CompletedProcess(
            cmd, 0, stdout=f"# loso-c8-full seed=1 trace=0\n{last_line}\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", exits_0)
    run = bench_pairs.run_once(tmp_path, "loso-c8-full", None, 1.0)
    assert run["code"] == 0 and run["result"] == {} and run["problem"]
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda cmd, **kwargs: (
        subprocess.CompletedProcess(cmd, 0, stdout=RESULT % "0.5", stderr="")))
    run = bench_pairs.run_once(tmp_path, "loso-c8-full", None, 1.0)
    assert run["problem"] is None and run["result"]["metrics"]["wall_s"]["value"] == 0.5


@pytest.mark.parametrize("no_result, named", [
    (("change", 0, 2), "change, pair 2/2, --trace 0: no output"),
    (("parent", 1, 1), "parent, traced run, --trace 1: no output"),
])
def test_a_run_without_a_result_fails_and_is_named(tmp_path, monkeypatch, capsys,
                                                   no_result, named):
    bench_pairs, _ = stub_pairs(monkeypatch, tmp_path, no_result=no_result)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--workload", "loso-c8-full", "--pairs", "2",
                             "--out", str(out)]) == 1
    row = json.loads(out.read_text())["pairs"]["loso-c8-full --seed 7"]
    assert row["exit_codes"] == {"parent": [0], "change": [0]}
    assert row["bad_results"] == [named]
    assert f"no result: {named}" in capsys.readouterr().err
