"""Alternating parent/change runs of the benchmark, summarised as ``BENCH_<n>.json``.

    python3 tools/bench_pairs.py --parent REV --workload W [--seed S] \\
        [--pairs 10] [--seconds 25] --out BENCH_7.json

The parent revision is exported with ``git archive`` into
``.perfbench_work/parent-<sha>/``; the change is this checkout's working
tree. Each pair runs ``perfbench/run.py --workload W [--seed S] --seconds T``
once in each tree, the parent first in odd pairs and the change first in
even ones, so that drifting machine load falls on both sides alike.

For every end-to-end metric of ``BENCHMARK.json`` the row records, per side,
the median and quartiles of the per-run values and their count, and in how
many pairs the change was better (``change_better_pairs``). It also applies
the acceptance rule (:func:`verdict`): the parent's interquartile range, the
gap between the medians in the metric's better direction, ``gain_rule_met``
(better in at least 9/10 of the pairs, by a median gap wider than the
parent's IQR) and ``within_bound`` (the change median no worse than the
parent's by more than the metric's relative ``bound``); one line per metric
goes to stderr at the end. The row also records the repetitions attempted
and failed per side, the exit codes, and whether the accuracy/AUC/t-test
digests of the two trees agree. After the pairs, one ``--trace 1`` run per
side records the count metrics of the traced run (``spd.eig.calls``,
``spd.eig.matrices``, ...) in the row as ``traced``, so the row carries the
work counts a change claims to remove, with the names of all its per-layer
metrics (``traced_metrics``) and those it reports absent (``traced_absent``).
A per-layer metric that the parent's traced result has and the change's
lacks is listed as ``traced_dropped`` and fails the run. Rows are keyed
``"W --seed S"`` and merged into ``--out``, so one file collects several
workloads and keys written by hand survive.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
TRACE_SECONDS = 1.0  # the counts are the same in every traced repetition


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_parent(rev: str) -> Path:
    """The tree of ``rev`` under .perfbench_work, exported once per commit."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest = WORK / f"parent-{sha[:12]}"
    if not (dest / "perfbench" / "run.py").exists():
        dest.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_once(tree: Path, workload: str, seed: int | None, seconds: float,
             trace: int = 0) -> dict:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    # A result file left by an earlier run must not stand in for this one's.
    results = tree / ".perfbench_work" / "results"
    for stale in results.glob(f"{workload}-seed*-trace{trace}.json"):
        stale.unlink()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    header = next((l for l in lines if l.startswith(f"# {workload} seed=")), "")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    used_seed = int(header.split("seed=")[1].split()[0]) if header else seed
    path = results / f"{workload}-seed{used_seed}-trace{trace}.json"
    record = json.loads(path.read_text()) if path.exists() else {"samples": {"plain": []}}
    digests = {s["digest"] for s in record["samples"]["plain"] if not s.get("errors")}
    return {"code": proc.returncode, "seed": used_seed, "result": result,
            "env": record.get("environment", {}), "digests": digests,
            "absent": record.get("absent", [])}


def counts(run: dict) -> dict:
    """The count metrics of a traced run, by name."""
    return {name: m["value"] for name, m in run["result"].get("metrics", {}).items()
            if m.get("unit") == "count"}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "n": len(values)}


def verdict(parent: list[float], change: list[float], lower: bool, bound: float) -> dict:
    """The acceptance rule on paired per-run values of one metric.

    ``parent[i]`` and ``change[i]`` are pair i; ``lower`` says lower is
    better; ``bound`` is the largest relative worsening of the median allowed.
    """
    def gain(before: float, after: float) -> float:
        return before - after if lower else after - before

    p, c = summary(parent), summary(change)
    better = sum(gain(a, b) > 0.0 for a, b in zip(parent, change))
    iqr = p["q3"] - p["q1"]
    gap = gain(p["median"], c["median"])
    return {"change_better_pairs": f"{better}/{len(parent)}",
            "parent_iqr": round(iqr, 6), "median_gap": round(gap, 6),
            "gain_rule_met": 10 * better >= 9 * len(parent) and gap > iqr,
            "within_bound": gap >= -bound * abs(p["median"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to create or extend")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    trees = {"parent": export_parent(args.parent), "change": ROOT}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(trees[side], args.workload, args.seed, args.seconds)
            runs[side].append(run)
            wall = run["result"].get("metrics", {}).get("wall_s", {}).get("value")
            print(f"pair {i + 1}/{args.pairs} {side}: exit {run['code']}, wall_s {wall}",
                  file=sys.stderr)

    traced_runs = {side: run_once(trees[side], args.workload, args.seed, TRACE_SECONDS, 1)
                   for side in runs}
    traced = {side: counts(run) for side, run in traced_runs.items()}
    names = {side: sorted(run["result"].get("metrics", {})) for side, run in traced_runs.items()}
    row = {
        "attempted": {s: sum(r["result"].get("attempted", 0) for r in runs[s]) for s in runs},
        "failed": {s: sum(r["result"].get("failed", 0) for r in runs[s]) for s in runs},
        "exit_codes": {s: sorted({r["code"] for r in runs[s]}) for s in runs},
        "digests_equal": len(set().union(*(r["digests"] for s in runs for r in runs[s]))) == 1,
        "metrics": {},
        "traced": traced,
        "traced_metrics": names,
        "traced_absent": {side: run["absent"] for side, run in traced_runs.items()},
        "traced_dropped": sorted(set(names["parent"]) - set(names["change"])),
    }
    for m in metrics:
        name = m["name"]
        values = {s: [r["result"].get("metrics", {}).get(name, {}).get("value")
                      for r in runs[s]] for s in runs}
        if any(v is None for side in values.values() for v in side):
            row["metrics"][name] = "absent in some run"
            continue
        row["metrics"][name] = {**{s: summary(values[s]) for s in runs},
                                **verdict(values["parent"], values["change"],
                                          m["better"] == "lower", m["bound"])}

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("command", "python3 perfbench/run.py --workload W --seed S "
                   f"(--seconds {args.seconds:g}, --trace 0)")
    doc["method"] = (f"{args.pairs} alternating parent/change pairs per row (parent first "
                     "in odd pairs, change first in even ones); median and quartiles over "
                     "the per-run medians; times at the reference speed of "
                     "perfbench/calib.py; 'traced' holds the count metrics of one "
                     f"--trace 1 run per side (--seconds {TRACE_SECONDS:g}); written by "
                     "tools/bench_pairs.py")
    doc["environment"] = runs["change"][-1]["env"]
    doc.setdefault("pairs", {})[f"{args.workload} --seed {runs['change'][0]['seed']}"] = row
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(row))
    for name, m in row["metrics"].items():
        if isinstance(m, dict):
            print(f"{name}: {m['parent']['median']:g} -> {m['change']['median']:g}, "
                  f"better in {m['change_better_pairs']}, gap {m['median_gap']:g} vs "
                  f"parent IQR {m['parent_iqr']:g}: gain rule "
                  f"{'met' if m['gain_rule_met'] else 'not met'}, "
                  f"{'within' if m['within_bound'] else 'OUTSIDE'} bound", file=sys.stderr)
        else:
            print(f"{name}: {m}", file=sys.stderr)
    for name in sorted(set(traced["parent"]) | set(traced["change"])):
        print(f"traced {name}: {traced['parent'].get(name)} -> {traced['change'].get(name)}",
              file=sys.stderr)
    for name in row["traced_dropped"]:
        print(f"traced {name}: in the parent's result, missing from the change's",
              file=sys.stderr)
    failed = row["failed"]["parent"] + row["failed"]["change"]
    exits_ok = row["exit_codes"] == {"parent": [0], "change": [0]}
    return 1 if failed or not exits_ok or row["traced_dropped"] else 0


if __name__ == "__main__":
    sys.exit(main())
