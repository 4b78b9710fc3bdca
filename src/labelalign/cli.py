"""Command-line interface.

Exit codes: 0 on success, 2 on configuration errors, 3 on data errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .alignment import (
    class_inv_roots,
    ea_reference,
    la_fit,
    la_per_trial,
    match_labels,
    target_roots,
)
from .dataio import (
    load_manifest,
    read_labels,
    read_trial_blocks,
    write_labels,
    write_manifest,
    write_trials,
)
from .errors import ConfigError, DataError, EmptyInputError, located
from .experiment import (
    PIPELINES,
    STRATEGIES,
    fit_predict,
    iter_subject_stacks,
    label_view,
    load_scenario,
    run_scenario,
    source_view,
)
from .features import DEFAULT_CSP_PAIRS, CovStack, covariance_stack
from .report import emit_report
from .rng import derive_key
from .selection import k_medoids, pairwise_distances
from .spd import chunks
from .synth import SynthConfig, subject_shift, synthetic_parameters, synthetic_subjects


def _cmd_synth(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
        cfg = SynthConfig(**doc)
    except (OSError, json.JSONDecodeError, TypeError) as exc:
        raise ConfigError(f"cannot load synth config {args.config}: {exc}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prototypes, shifts = synthetic_parameters(cfg)
    subjects = synthetic_subjects(cfg, prototypes, shifts)  # written one at a time, as generated
    entries = [_write_subject(out, f"s{i}", *next(subjects)) for i in range(cfg.subjects)]
    write_manifest(out / "manifest.json", 100.0, range(cfg.classes), entries)
    parameters = {
        "prototypes": [p.tolist() for p in prototypes],
        "shifts": [subject_shift(cfg, s).tolist() for s in range(cfg.subjects)],  # redrawn, not held
    }
    (out / "generator.json").write_text(json.dumps(parameters, sort_keys=True) + "\n")
    print(f"wrote {cfg.subjects} subjects to {out}")
    return 0


def _write_subject(out: Path, name: str, data, labels) -> tuple[str, str, str]:
    """Write one subject's trial and label files; returns its manifest entry."""
    write_trials(out / f"{name}.trials", data)
    write_labels(out / f"{name}.labels", labels)
    return name, f"{name}.trials", f"{name}.labels"


def _cmd_experiment(args) -> int:
    spec = load_scenario(args.spec, seed_override=args.seed)
    report = run_scenario(spec, jobs=args.jobs)
    emit_report(report, args.out)
    print(f"wrote {args.out} ({len(report.accuracies)} accuracy rows)")
    return 0


def _cmd_align(args) -> int:
    source_set, target_set, mapping = args.source_labels, args.target_labels, None
    if args.strategy == "la":  # the arguments are checked before any file is read
        if args.target_subject is None or not source_set or not target_set:
            raise ConfigError(
                "la alignment needs --target-subject, --source-labels and --target-labels"
            )
        if args.k < 1:
            raise ConfigError(f"-k must be >= 1, got {args.k}")
        mapping = match_labels(source_set, target_set, derive_key(args.seed, "mapping"))
    manifest = load_manifest(args.manifest)
    fits = _fit_subjects(args, manifest, mapping)
    # Second pass: re-read, align and write one subject at a time.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries, label_set = [], set()
    for entry, fit in zip(manifest.subjects, fits):
        data, labels = _aligned(manifest.load_subject(entry), *fit, source_set)
        entries.append(_write_subject(out, entry.name, data, labels))
        label_set.update(labels.tolist())
        del data  # the next subject is read without this one
    write_manifest(out / "manifest.json", manifest.sample_rate, sorted(label_set), entries)
    print(f"wrote aligned dataset to {out}")
    return 0


def _fit_subjects(args, manifest, mapping) -> list:
    """``align``'s first pass: check every subject and fit its alignment (A, an LA
    source's target labels), keeping none of its trials or stacks; nothing is written
    unless every subject passes."""
    names = [e.name for e in manifest.subjects]
    if args.strategy == "la" and args.target_subject not in names:
        raise ConfigError(f"unknown target subject {args.target_subject!r}")
    fits = [(None, None)] * len(names)  # raw, and the LA target, pass through
    subjects = manifest.iter_subject_blocks()
    if args.strategy == "raw":  # computes no covariances: rank-deficient trials pass
        for name, (trials, _) in zip(names, subjects):
            if not len(trials):
                raise EmptyInputError(f"subject {name}, no trials")
            for _ in trials.blocks:  # each block is checked as it is read
                pass
        return fits
    stacks = list(iter_subject_stacks(names, subjects))
    if args.strategy == "ea":
        return [(ea_reference(stack.covs), None) for stack in stacks]
    target_set = args.target_labels  # la, as in a harness unit
    target = names.index(args.target_subject)
    pool = label_view(args.target_subject, stacks[target], "target", target_set)
    medoids = k_medoids(pairwise_distances(pool.covs), args.k)
    roots = target_roots(pool.take(medoids), len(target_set))
    if roots is None:
        raise DataError(
            f"the {args.k} medoids cover fewer than {len(target_set)} classes; "
            "label more trials or use --strategy ea"
        )
    for i, (name, stack) in enumerate(zip(names, stacks)):
        if i != target:
            source = source_view(name, stack, mapping)
            fits[i] = la_fit(class_inv_roots(source), roots), source.labels
    return fits


def _aligned(subject, a, labels, source_set):
    """A subject's ``(data, labels)`` aligned as ``A X``: unchanged (``a`` None), by one
    matrix ``a`` in one batched product, or by a source's :func:`la_fit` class matrices
    ``a``, its source view relabeled to ``labels``, written a chunk of its kept rows at
    a time into the output, so that no copy of the kept rows is made whole."""
    data, own = subject
    if a is None:
        return subject
    if labels is None:
        return a @ data, own
    kept = np.flatnonzero(np.isin(own, source_set))
    out = np.empty((len(kept), *data.shape[1:]))
    for rows in chunks(len(kept), data.shape[1] * data.shape[2]):
        np.matmul(la_per_trial(a, labels[rows]), data[kept[rows]], out=out[rows])
    return out, labels


def _file_stack(path, labels, shrinkage: float, scatter: bool = False) -> CovStack:
    """:func:`covariance_stack` of the trial file ``path``, read in blocks; a
    :class:`DataError` of its read or its estimate is prefixed with the path."""
    with located(path):
        return covariance_stack(read_trial_blocks(path), labels, shrinkage, scatter)


def _cmd_kmedoids(args) -> int:
    covs = _file_stack(args.trials, None, args.shrinkage).covs
    medoids = k_medoids(pairwise_distances(covs), args.k)
    for idx in medoids:
        print(idx)
    return 0


def _cmd_classify(args) -> int:
    csp = args.pipeline == "csp-lda"
    train = _file_stack(args.train_trials, read_labels(args.train_labels), args.shrinkage, csp)
    test = _file_stack(args.test_trials, None, args.shrinkage, csp)
    preds = fit_predict(args.pipeline, train, test, csp_pairs=args.csp_pairs)
    if args.test_labels is not None:
        truth = read_labels(args.test_labels)
        if len(truth) != len(preds):
            raise DataError(f"{len(preds)} test trials but {len(truth)} labels")
        correct = sum(p == t for p, t in zip(preds, truth))
        print(f"accuracy {correct / len(truth)!r} ({correct}/{len(truth)})")
    else:
        for p in preds:
            print(p)
    return 0


def label_list(text: str) -> list[int]:
    return [int(l) for l in text.split(",")]  # argparse reports a ValueError as exit 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelalign",
        description="SPD-manifold alignment pipelines and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True, help="JSON generator config")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("experiment", help="run a scenario and write the report")
    p.add_argument("--spec", required=True, help="JSON scenario spec")
    p.add_argument("--out", required=True, help="report path (JSON if .json, else CSV)")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (at most one per subject)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("align", help="align a dataset and write the result")
    p.add_argument("--strategy", required=True, choices=STRATEGIES)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--target-subject", default=None)
    p.add_argument("--source-labels", type=label_list, help="comma-separated ints")
    p.add_argument("--target-labels", type=label_list, help="comma-separated ints")
    p.add_argument("-k", type=int, default=2, help="target trials to label (la)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("kmedoids", help="print the medoid indices of a trial file")
    p.add_argument("--trials", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--shrinkage", type=float, default=0.0)
    p.set_defaults(func=_cmd_kmedoids)

    p = sub.add_parser("classify", help="train a pipeline and score or predict")
    p.add_argument("--pipeline", required=True, choices=PIPELINES)
    p.add_argument("--train-trials", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--test-trials", required=True)
    p.add_argument("--test-labels", default=None)
    p.add_argument("--csp-pairs", type=int, default=DEFAULT_CSP_PAIRS)
    p.add_argument("--shrinkage", type=float, default=0.0)
    p.set_defaults(func=_cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
