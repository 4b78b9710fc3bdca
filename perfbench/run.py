"""End-to-end leave-one-subject-out benchmark of labelalign.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, both modes

Set-up builds the workload's synthetic dataset from the seed and writes it
to disk through ``labelalign.dataio``. The measurement then repeats
``run_scenario`` on the manifest in a separate process (``measure.py``)
until ``--seconds`` have passed, and checks every report (``gate.py``).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced repetitions at jobs 1 and prints the
per-layer metrics of the traced ones (``spans.py``). A workload that runs
on the process pool is also run once at its own job count, and that
report must match the jobs-1 reports.

Every metric is the median over the run's repetitions; ``setup_s`` is the
median over several set-ups, one before the measurement and the rest
after it. Times (``wall_s``, ``cpu_s``, ``setup_s``) are reported at the
reference machine speed of ``calib.py``: each repetition's time is scaled
by how slow a fixed calibration kernel ran right around it (wall times by
the kernel's wall time, CPU times by its CPU time). On a shared virtual
machine that cancels most of the host's load, which otherwise moves a
run's median by about 20%. The times as measured are printed beside
them and kept in the result file. Per-layer times are as measured.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every run also
writes a result file with the machine description under
``.perfbench_work/results/``. The exit code is 0 only when
every repetition passed the correctness gate.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported, here and in every
# repetition process, so jobs = 2 uses exactly two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402
from workloads import CONFIRM_SEED, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5
RUN_BUDGET_S = 160.0  # a single-workload run must end well within 180 s


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_desc,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def build_dataset(workload, seed: int, dest: Path) -> dict:
    """Generate the workload's dataset and write it under ``dest``.

    Returns the set-up's wall time and the calibration kernel's time around it.
    """
    from labelalign.dataio import write_labels, write_manifest, write_trials
    from labelalign.synth import SynthConfig, generate_synthetic

    if dest.exists():
        shutil.rmtree(dest)
    kernel_before = calib.kernel_seconds()
    start = time.perf_counter()
    dest.mkdir(parents=True)
    cfg = SynthConfig(**workload.synth_fields(seed))
    data = generate_synthetic(cfg)
    entries = []
    for i, trials in enumerate(data.subjects):
        name = f"s{i}"
        write_trials(dest / f"{name}.trials", trials)
        write_labels(dest / f"{name}.labels", [t.label for t in trials])
        entries.append((name, f"{name}.trials", f"{name}.labels"))
    write_manifest(dest / "manifest.json", 100.0, range(cfg.classes), entries)
    wall = time.perf_counter() - start
    return {"setup_s": wall, "kernel_s": (kernel_before[0] + calib.kernel_seconds()[0]) / 2}


def measure(workload, manifest: Path, seed: int, seconds: float, trace: int,
            deadline: float) -> dict:
    """Run ``measure.py`` in its own process group; kill it with its workers at the deadline."""
    budget = deadline - time.monotonic()
    cmd = [
        sys.executable, str(HERE / "measure.py"), "--manifest", str(manifest),
        "--workload", workload.name, "--seed", str(seed), "--seconds", str(seconds),
        "--budget", f"{budget - 5.0:.1f}", "--trace", str(trace),
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    failure = None
    try:
        out, err = proc.communicate(timeout=max(1.0, budget))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        failure = "measurement killed at the run deadline"
    if err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if failure is None and (proc.returncode != 0 or not lines):
        failure = f"measurement exited with code {proc.returncode}"
    if failure is not None:
        return {"plain": [{"errors": [failure]}], "traced": [], "schedule": []}
    return json.loads(lines[-1])


def fingerprint(workload) -> str:
    """Hash of the package sources and the workload definition."""
    h = hashlib.sha256(repr(workload).encode())
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def gate(samples: dict, key: str) -> tuple[int, int, list[str]]:
    """Count attempted and failed repetitions; digests must agree everywhere.

    The digest of each (workload, seed, source tree) is also kept in
    ``.perfbench_work/digests.json``, so repeated runs of one commit are
    held to the same report.
    """
    reps = [s for role in ("plain", "traced", "schedule") for s in samples[role]]
    problems = []
    failed = 0
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    reference = known.get(key)
    for s in reps:
        if s.get("errors"):
            failed += 1
            problems.extend(s["errors"])
            continue
        if reference is None:
            reference = s["digest"]
        if s["digest"] != reference:
            failed += 1
            problems.append(f"report digest {s['digest'][:12]} != {reference[:12]}")
    if reference is not None and key not in known:
        known[key] = reference
        store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return len(reps), failed, problems


def _median(samples: list[dict], field: str) -> float:
    return statistics.median(s[field] for s in samples)


def _scaled_median(samples: list[dict], field: str) -> float:
    kernel = "kernel_cpu_s" if field == "cpu_s" else "kernel_s"
    return statistics.median(calib.scaled(s[field], s[kernel]) for s in samples)


def end_to_end_metrics(samples: dict, setup: list[dict]) -> dict:
    ok = [s for s in samples["plain"] if not s.get("errors")]
    if not ok:
        return {}
    values = {name: _median(ok, name) for name in ("peak_rss_mb", "acc_mean", "acc_la_mean")}
    values.update({name: _scaled_median(ok, name) for name in ("wall_s", "cpu_s")})
    values["setup_s"] = _scaled_median(setup, "setup_s")
    return {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}


def layer_metrics(samples: dict) -> tuple[dict, list[str]]:
    traced = [s for s in samples["traced"] if not s.get("errors")]
    plain = [s for s in samples["plain"] if not s.get("errors")]
    if not traced or not plain:
        return {}, []
    absent = sorted(set().union(*(s["absent"] for s in traced)))
    values = {}
    for name in PER_LAYER:
        if name in absent:
            continue
        if name == "alignment.la_fallback_ratio":
            values[name] = _median(traced, "la_fallback_ratio")
        elif name == "trace.wall_s":
            values[name] = _median(traced, "wall_s")
        elif name == "trace.overhead":
            values[name] = (
                _scaled_median(traced, "wall_s") / _scaled_median(plain, "wall_s") - 1.0
            )
        elif all(name in s["layers"] for s in traced):
            values[name] = statistics.median(s["layers"][name] for s in traced)
        else:
            absent.append(name)
    metrics = {}
    for name, value in values.items():
        unit = PER_LAYER[name][0]
        metrics[name] = {"value": round(value) if unit in ("count", "bytes") else value,
                         "unit": unit}
    return metrics, absent


def run_workload(workload, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    data_dir = WORK / "data" / f"{workload.name}-seed{seed}"
    setup = [build_dataset(workload, seed, data_dir)]
    samples = measure(workload, data_dir / "manifest.json", seed, seconds, trace, deadline)
    if not trace:
        # The other set-ups come after the measurement, so that their median
        # spans the same stretch of the machine's load as the repetitions.
        setup += [build_dataset(workload, seed, data_dir) for _ in range(SETUP_REPS - 1)]
    shutil.rmtree(data_dir)
    key = f"{workload.name}:seed{seed}:{fingerprint(workload)}"
    attempted, failed, problems = gate(samples, key)
    if trace:
        metrics, absent = layer_metrics(samples)
    else:
        metrics, absent = end_to_end_metrics(samples, setup), []
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    env = environment()
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "result": result, "problems": problems, "absent": absent,
        "setup_samples": setup, "samples": samples,
        "targets": {name: {"moves": t[1], "on": t[2]} for name, t in PER_LAYER.items()},
    }
    path = WORK / "results" / f"{workload.name}-seed{seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    _print_human(workload, seed, trace, env, result, problems, absent, samples, setup)
    return result


def _print_human(workload, seed, trace, env, result, problems, absent, samples, setup) -> None:
    print(f"# {workload.name} seed={seed} trace={trace} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed'] / max(result['attempted'], 1):.3f}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in problems:
        print(f"# FAILED {problem}")
    for name in absent:
        print(f"# absent {name}")
        print(f"warning: {name} is absent: the function it traces no longer exists",
              file=sys.stderr)
    wall = result["metrics"].get("trace.wall_s", {}).get("value")
    ok = [s for s in samples["plain"] if not s.get("errors")]
    for name, m in result["metrics"].items():
        line = f"{workload.name:16s} {name:36s} {m['value']:>14.6g} {m['unit']}"
        if trace:
            _, moves, on = PER_LAYER[name]
            share = f"{100 * m['value'] / wall:5.1f}%" if m["unit"] == "s" and wall else ""
            line += f"  {share:>6s}  moves {moves} on {on}"
        elif name in ("wall_s", "cpu_s", "setup_s"):
            reps = setup if name == "setup_s" else ok
            raw = [s[name] for s in reps]
            kernel = "kernel_cpu_s" if name == "cpu_s" else "kernel_s"
            slowdown = _median(reps, kernel) / calib.REFERENCE_S
            line += (f"  median of {len(raw)} at reference speed; as measured: median "
                     f"{statistics.median(raw):.6g}, fastest {min(raw):.6g}, slowest "
                     f"{max(raw):.6g}, machine {slowdown:.2f}x slower than reference")
        else:
            line += f"  median of {len(ok)}"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="dataset seed (default: the workload's own; "
                             f"{CONFIRM_SEED} confirms a claimed gain)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "labelalign" / "__init__.py").is_file():
        print(f"error: no labelalign sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")

    def seed_of(w) -> int:
        return w.seed if args.seed is None else args.seed

    if args.workload != "all":
        w = WORKLOADS[args.workload]
        result = run_workload(w, seed_of(w), args.seconds, args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS.values():
        for trace in (0, 1):
            result = run_workload(w, seed_of(w), args.seconds, trace)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{w.name}/{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
