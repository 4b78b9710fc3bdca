"""Correctness gate over one ``ExperimentReport``.

The digest covers the accuracy, AUC and t-test tables only. The metadata
table is left out because its ``config_hash`` embeds the manifest's
absolute path, so the same data in two directories hashes differently.
"""

from __future__ import annotations

import hashlib
import itertools
import math


def report_digest(report) -> str:
    lines = [
        f"acc,{','.join(map(str, key))},{float(value).hex()}"
        for key, value in sorted(report.accuracies.items())
    ]
    lines += [
        f"auc,{','.join(map(str, key))},{float(value).hex()}"
        for key, value in sorted(report.aucs.items())
    ]
    lines += [
        f"ttest,{','.join(key)},{float(t).hex()},{float(p).hex()}"
        for key, (t, p) in sorted(report.ttests.items())
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_report(report, subjects, workload) -> list[str]:
    """Return a description of every violated invariant (empty when correct)."""
    errors = []
    algorithms = [(s, p) for s in workload.strategies for p in workload.pipelines]
    expected = {
        (name, k, s, p) for name in subjects for k in workload.k_grid for s, p in algorithms
    }
    got = set(report.accuracies)
    if got != expected:
        errors.append(
            f"accuracy rows: {len(expected - got)} missing, {len(got - expected)} unexpected"
        )
    bad_acc = [key for key, a in report.accuracies.items() if not 0.0 <= a <= 1.0]
    if bad_acc:
        errors.append(f"{len(bad_acc)} accuracies outside [0, 1], first {bad_acc[0]}")

    expected_auc = {(name, s, p) for name in subjects for s, p in algorithms}
    if set(report.aucs) != expected_auc:
        errors.append(f"AUC rows: expected {len(expected_auc)}, got {len(report.aucs)}")
    span = workload.k_grid[-1] - workload.k_grid[0]
    bad_auc = [
        key for key, v in report.aucs.items() if not (math.isfinite(v) and 0.0 <= v <= span)
    ]
    if bad_auc:
        errors.append(f"{len(bad_auc)} AUC values not finite or outside [0, {span}]")

    expected_tt = {(*a, *b) for a, b in itertools.combinations(algorithms, 2)}
    if set(report.ttests) != expected_tt:
        errors.append(f"t-test rows: expected {len(expected_tt)}, got {len(report.ttests)}")
    bad_tt = [key for key, tp in report.ttests.items() if not all(map(math.isfinite, tp))]
    if bad_tt:
        errors.append(f"{len(bad_tt)} t-test values not finite, first {bad_tt[0]}")
    return errors
