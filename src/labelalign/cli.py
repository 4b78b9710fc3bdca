"""Command-line interface.

Exit codes: 0 on success, 2 on configuration errors, 3 on data errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
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
    TrialBlocks,
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
from .synth import SynthConfig, subject_shift, synthetic_parameters, synthetic_subjects


def _cmd_synth(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
        cfg = SynthConfig(**doc)
    except (OSError, ValueError, TypeError) as exc:  # ValueError: undecodable text or JSON
        raise ConfigError(f"cannot load synth config {args.config}: {exc}") from exc
    out = Path(args.out)
    prototypes, shifts = synthetic_parameters(cfg)
    subjects = synthetic_subjects(cfg, prototypes, shifts)  # written one at a time, as generated
    with _writing_into(out):
        entries = [_write_subject(out, f"s{i}", *next(subjects)) for i in range(cfg.subjects)]
        write_manifest(out / "manifest.json", 100.0, range(cfg.classes), entries)
        parameters = {
            "prototypes": [p.tolist() for p in prototypes],
            "shifts": [subject_shift(cfg, s).tolist() for s in range(cfg.subjects)],  # redrawn
        }
        (out / "generator.json").write_text(json.dumps(parameters, sort_keys=True) + "\n")
    print(f"wrote {cfg.subjects} subjects to {out}")
    return 0


@contextmanager
def _writing_into(out: Path):
    """Make the directory ``out`` for the block to write into. An
    :class:`OSError` while making it or writing (a file in the way, no
    permission, a full disk) is a :class:`ConfigError` that names ``out``, as
    :func:`emit_report` names a report path."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


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
            raise ConfigError("la alignment needs --target-subject, --source-labels and "
                              "--target-labels")
        if args.k < 1:
            raise ConfigError(f"-k must be >= 1, got {args.k}")
        mapping = match_labels(source_set, target_set, derive_key(args.seed, "mapping"))
    manifest = load_manifest(args.manifest)
    out = Path(args.out)
    inputs = [Path(args.manifest), *(p for e in manifest.subjects
                                      for p in (e.trials_path, e.labels_path))]
    if out.resolve() in {d.resolve() for p in inputs for d in (p.parent, p.resolve().parent)}:
        raise ConfigError(f"--out {out} holds files of the dataset that it would align")
    fits = _fit_subjects(args, manifest, mapping)
    # Second pass: re-read, align and write one block of one subject at a time.
    entries, label_set = [], set()
    with _writing_into(out):
        subjects = zip(manifest.subjects, manifest.iter_subject_blocks(), fits)
        for entry, (trials, labels), fit in subjects:
            trials, labels = _aligned(trials, labels, *fit, source_set)
            entries.append(_write_subject(out, entry.name, trials, labels))
            label_set.update(labels.tolist())
        write_manifest(out / "manifest.json", manifest.sample_rate, sorted(label_set), entries)
    print(f"wrote aligned dataset to {out}")
    return 0


def _fit_subjects(args, manifest, mapping) -> list:
    """``align``'s first pass: check every subject and fit its alignment (A, an LA
    source's target labels), keeping of each stack only what the fit needs (an LA
    source's class inverse roots and labels); nothing is written unless all pass."""
    names = [e.name for e in manifest.subjects]
    if args.strategy == "la" and args.target_subject not in names:
        raise ConfigError(f"unknown target subject {args.target_subject!r}")
    subjects = manifest.iter_subject_blocks()
    if args.strategy == "raw":  # computes no covariances: rank-deficient trials pass
        for name, (trials, _) in zip(names, subjects):
            if not len(trials):
                raise EmptyInputError(f"subject {name}, no trials")
            for _ in trials.blocks:  # each block is checked as it is read
                pass
        return [(None, None)] * len(names)
    stacks = zip(names, iter_subject_stacks(names, subjects))
    if args.strategy == "ea":
        return [(ea_reference(stack.covs), None) for _, stack in stacks]
    fits, target_set = [], args.target_labels  # la, as in a harness unit
    for name, stack in stacks:
        if name == args.target_subject:  # passes through
            pool = label_view(name, stack, "target", target_set)
            fits.append((None, None))
        else:
            source = source_view(name, stack, mapping)
            fits.append((class_inv_roots(source), source.labels))
    medoids = k_medoids(pairwise_distances(pool.covs), args.k)
    roots = target_roots(pool.take(medoids), len(target_set))
    if roots is None:
        raise DataError(f"the {args.k} medoids cover fewer than {len(target_set)} classes; "
                        "label more trials or use --strategy ea")
    return [(inv if inv is None else la_fit(inv, roots), labels) for inv, labels in fits]


def _aligned(trials, labels, a, new_labels, source_set):
    """A subject's :class:`TrialBlocks` and labels aligned as ``A X``, a block at a time:
    unchanged (``a`` None), by one matrix ``a``, or by a source's :func:`la_fit` class
    matrices ``a``, only its rows in ``source_set``, relabeled to ``new_labels``."""
    if a is None:
        return trials, labels
    if new_labels is None:
        return replace(trials, blocks=((rows, a @ block) for rows, block in trials.blocks)), labels
    kept, per_trial = np.isin(labels, source_set), la_per_trial(a, new_labels)

    def blocks():
        start = 0
        for rows, block in trials.blocks:
            stop = start + np.count_nonzero(kept[rows])
            yield slice(start, stop), per_trial[start:stop] @ block[kept[rows]]
            start = stop

    return TrialBlocks((len(new_labels), *trials.shape[1:]), blocks()), new_labels


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
