"""Timed ``run_scenario`` repetitions in a process of their own.

    python3 perfbench/measure.py --manifest M --workload W --seed N \
        --seconds S --budget B --trace 0|1

Repeats ``run_scenario`` on the manifest until ``--seconds`` have passed
(and at least a few times), starting no repetition that would not end
within ``--budget`` seconds. With ``--trace 1`` it alternates untraced
and traced repetitions at jobs 1, after one untraced repetition at the
workload's own job count when that is above 1. Prints one JSON line that
holds every repetition: wall and CPU time, the calibration kernel's time
around it (``calib.py``), the report digest, the correctness-gate errors
and, with tracing, the per-layer metrics. The process is separate from
set-up so that its peak memory is the run's.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported; pool workers
# inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from labelalign.experiment import ScenarioSpec, run_scenario  # noqa: E402

import calib  # noqa: E402
from gate import check_report, report_digest  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import SOURCE_LABELS, TARGET_LABELS, WORKLOADS  # noqa: E402

MIN_REPS = 5  # untraced repetitions of a --trace 0 run
MIN_PAIRS = 2  # untraced + traced pairs of a --trace 1 run


def _cpu_seconds() -> float:
    """User plus system time of this process and its reaped pool workers."""
    return sum(
        r.ru_utime + r.ru_stime
        for r in (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest worker."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0


def _summary(report, workload, subjects) -> dict:
    accs = list(report.accuracies.values())
    la = [a for (_, _, s, _), a in report.accuracies.items() if s == "la"]
    la_cells = len(subjects) * len(workload.k_grid) if "la" in workload.strategies else 0
    return {
        "digest": report_digest(report),
        "errors": check_report(report, subjects, workload),
        "acc_mean": sum(accs) / len(accs) if accs else float("nan"),
        "acc_la_mean": sum(la) / len(la) if la else float("nan"),
        "la_fallback_ratio": (
            len(report.metadata.get("ea_fallbacks", [])) / la_cells if la_cells else 0.0
        ),
    }


def repetition(spec, workload, subjects, jobs: int, traced: bool) -> dict:
    """Time one ``run_scenario`` call between two calibration kernels; check its report."""
    kernel_before = calib.kernel_seconds()
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        before = _cpu_seconds()
        start = time.perf_counter()
        report = run_scenario(spec, jobs=jobs)
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - before
    except Exception as exc:  # a failed repetition is counted, not fatal
        return {"errors": [f"run_scenario raised {type(exc).__name__}: {exc}"]}
    finally:
        if tracer is not None:
            tracer.uninstall()
    kernel_after = calib.kernel_seconds()
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "kernel_s": (kernel_before[0] + kernel_after[0]) / 2,
        "kernel_cpu_s": (kernel_before[1] + kernel_after[1]) / 2,
        "peak_rss_mb": _peak_rss_mb(),
    }
    out.update(_summary(report, workload, subjects))
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(wall)
        out["absent"] = sorted(tracer.absent())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    manifest = Path(args.manifest).resolve()
    subjects = [s["name"] for s in json.loads(manifest.read_text())["subjects"]]
    spec = ScenarioSpec(
        source_labels=SOURCE_LABELS,
        target_labels=TARGET_LABELS,
        strategies=workload.strategies,
        pipelines=workload.pipelines,
        k_grid=workload.k_grid,
        seed=args.seed,
        manifest=str(manifest),
    )
    samples = {"plain": [], "traced": [], "schedule": []}
    longest = 0.0

    def run(role: str, jobs: int, traced: bool) -> None:
        nonlocal longest
        t0 = time.monotonic()
        samples[role].append(repetition(spec, workload, subjects, jobs, traced))
        longest = max(longest, time.monotonic() - t0)

    def more(count: int, minimum: int, reps_per_round: int) -> bool:
        elapsed = time.monotonic() - started
        fits = elapsed + 1.5 * reps_per_round * longest < args.budget
        return count == 0 or (fits and (count < minimum or elapsed < args.seconds))

    if not args.trace:
        while more(len(samples["plain"]), MIN_REPS, 1):
            run("plain", workload.jobs, False)
    else:
        if workload.jobs > 1:
            run("schedule", workload.jobs, False)
        while more(len(samples["traced"]), MIN_PAIRS, 2):
            run("plain", 1, False)
            run("traced", 1, True)
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
