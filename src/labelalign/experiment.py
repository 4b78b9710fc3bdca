"""Scenario runner: leave-one-subject-out transfer experiments with a
label budget, and the metrics of their report (accuracy, AUC over k, paired
t-tests); :mod:`labelalign.report` writes and reads the report.

The protocol is covariance first. Each subject's trials, one ``(n, C, T)``
array with its labels, are turned into a covariance stack (n, C, C) once,
with the time-centred scatter when CSP runs, and split into a source view
(source labels) and a target pool (target labels). The subjects are read
(or generated) one at a time and each one's raw trials are dropped once its
stack is built, so at most one subject's raw trials are in memory; the stack
is estimated from the trial array in bounded chunks, so no copy of it is
made whole. Each source view is relabeled to the target labels as it is
built, the one place the label mapping is applied. What depends on neither
the target nor the budget is computed with them, once per scenario: each
view's EA-whitened stack, the inverse roots of the source class means and,
when ts-svm, ts-lda or mdm runs, the matrix logs of the source views that
some strategy trains on (the raw ones under ``raw``, the whitened ones under
``ea`` or ``la``, which falls back to EA). A target pool carries no logs: only its labeled trials
are ever logged, once they are picked. One unit per target subject then
aligns only those stacks, never raw trials. The process pool is imported
only when ``jobs`` > 1; then each pool worker receives the scenario's
domains once, at start-up (inherited, not pickled, under the ``fork`` start
method), and each unit is dispatched as the index of its target subject.

Protocol per target subject and per budget ``k``: the k medoid trials of
the target pool are labeled and join the training set, every remaining
target trial forms the test set, and the same train/test split is reused
for every alignment strategy so that accuracy differences isolate the
alignment step. Labeled target trials never appear in the test set. Per k
the raw medoids are logged once and the whitened medoids once, for the
training sets only (the LA target means are arithmetic and take no logs);
the test trials never are.

A unit allocates one training buffer of ``n_source + max(k_grid)`` rows
(covariances and labels, with scatter and logs when a pipeline reads them),
and every (k, strategy) cell rewrites it: first the aligned source rows,
in source order, then the k labeled target rows. The raw and whitened
source rows are copied from the domains with their logs; the LA-aligned
rows are logged into the buffer one source subject at a time. A cell's
training stack is a view of the buffer's first ``n_source + k`` rows, valid
only during its cell. :func:`fit_predict_cell` computes once what its
pipelines share: the tangent reference and MDM class means (both from the
training logs) and the train and test tangent vectors.

A configuration error is raised before any unit starts (the CSP filter
count as soon as the first subject's stack gives the channels), and a data
error raised in a unit names its cell: the subject for the pool's pairwise
distances, the subject and k for the labeled medoids, and subject, k,
strategy and, from one pipeline's fit or predict, the pipeline.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import classifiers
from .alignment import Domain, LabelMapping, align, domain, match_labels, relabel, target_means
from .dataio import load_manifest
from .errors import (
    ConfigError,
    DataError,
    DimMismatchError,
    EmptyInputError,
    NonFiniteError,
    NotPositiveDefiniteError,
    TooFewPointsError,
    ZeroVarianceError,
    located,
    reworded,
)
from .features import (
    DEFAULT_CSP_PAIRS,
    CovStack,
    covariance_stack,
    csp_features,
    csp_fit,
    ts_features,
)
from .report import ExperimentReport
from .rng import derive_key
from .selection import k_medoids, pairwise_distances
from .spd import log_euclidean_mean
from .stats import student_t_two_sided_p
from .synth import SynthConfig, synthetic_parameters, synthetic_subjects

STRATEGIES = ("raw", "ea", "la")
PIPELINES = ("csp-lda", "ts-svm", "ts-lda", "mdm")
LOG_PIPELINES = {"ts-svm", "ts-lda", "mdm"}  # they work on the logs of the training stack


@dataclass(frozen=True)
class ScenarioSpec:
    source_labels: tuple[int, ...]
    target_labels: tuple[int, ...]
    strategies: tuple[str, ...]
    pipelines: tuple[str, ...]
    k_grid: tuple[int, ...]
    seed: int = 0
    synth: SynthConfig | None = None
    manifest: str | None = None
    csp_pairs: int = DEFAULT_CSP_PAIRS
    shrinkage: float = 0.0

    def __post_init__(self):
        match_labels(self.source_labels, self.target_labels)  # rejects duplicates, unequal sizes
        if len(self.source_labels) < 2:
            raise ConfigError(
                f"every pipeline needs at least two classes, got source labels "
                f"{self.source_labels} and target labels {self.target_labels}"
            )
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ConfigError(f"unknown strategy {s!r}, expected one of {STRATEGIES}")
        for p in self.pipelines:
            if p not in PIPELINES:
                raise ConfigError(f"unknown pipeline {p!r}, expected one of {PIPELINES}")
        if not self.strategies or not self.pipelines:
            raise ConfigError("need at least one strategy and one pipeline")
        if not self.k_grid or any(k < 1 for k in self.k_grid) or any(
            a >= b for a, b in zip(self.k_grid, self.k_grid[1:])
        ):
            raise ConfigError(f"k grid must be ascending and positive: {self.k_grid}")
        if (self.synth is None) == (self.manifest is None):
            raise ConfigError("exactly one of synth/manifest must be given")
        if self.csp_pairs < 1:
            raise ConfigError(f"csp_pairs must be at least 1, got {self.csp_pairs}")
        if not 0.0 <= self.shrinkage < 1.0:
            raise ConfigError(f"shrinkage must be in [0, 1), got {self.shrinkage}")

    @property
    def algorithms(self) -> list[tuple[str, str]]:
        return [(s, p) for s in self.strategies for p in self.pipelines]

    def canonical_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def scenario_from_dict(doc: dict, seed_override: int | None = None) -> ScenarioSpec:
    """Build a spec from a parsed JSON document (the CLI's --spec file); a
    missing field or a value of the wrong type raises :class:`ConfigError`."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario spec must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(ScenarioSpec)}
    if unknown:
        raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
    try:
        seed = int(seed_override if seed_override is not None else doc.get("seed", 0))
        synth = None
        if doc.get("synth") is not None:
            block = dict(doc["synth"])
            # The generator seed flows from the experiment seed unless pinned.
            block.setdefault("seed", derive_key(seed, "synth"))
            synth = SynthConfig(**block)
        return ScenarioSpec(
            source_labels=tuple(int(l) for l in doc["source_labels"]),
            target_labels=tuple(int(l) for l in doc["target_labels"]),
            strategies=tuple(doc.get("strategies", ["raw", "ea", "la"])),
            pipelines=tuple(doc.get("pipelines", ["ts-lda"])),
            k_grid=tuple(int(k) for k in doc["k_grid"]),
            seed=seed,
            synth=synth,
            manifest=doc.get("manifest"),
            csp_pairs=int(doc.get("csp_pairs", DEFAULT_CSP_PAIRS)),
            shrinkage=float(doc.get("shrinkage", 0.0)),
        )
    except KeyError as exc:
        raise ConfigError(f"scenario spec is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scenario spec: {exc}") from exc


def load_scenario(path, seed_override: int | None = None) -> ScenarioSpec:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read scenario spec {path}: {exc}") from exc
    return scenario_from_dict(doc, seed_override)


def auc_over_k(curve: Sequence[tuple[float, float]]) -> float:
    """Trapezoidal area under an accuracy-versus-k curve."""
    if len(curve) < 2:
        raise TooFewPointsError(f"need >= 2 points, got {len(curve)}")
    ks = [k for k, _ in curve]
    if any(a >= b for a, b in zip(ks, ks[1:])):
        raise ConfigError(f"k values must be strictly increasing: {ks}")
    area = 0.0
    for (k0, a0), (k1, a1) in zip(curve, curve[1:]):
        area += (k1 - k0) * (a0 + a1) / 2.0
    return area


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided paired t-test; returns (t, p) with n-1 degrees of freedom."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] < 2:
        raise ConfigError(f"need two equal-length samples of size >= 2, got {a.shape} and {b.shape}")
    d = a - b
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        raise ZeroVarianceError("all paired differences are equal; t is undefined")
    n = d.shape[0]
    t = float(np.mean(d)) / (sd / math.sqrt(n))
    return t, student_t_two_sided_p(t, n - 1)


def fit_predict_cell(
    pipelines: Sequence[str],
    train: CovStack,
    test: CovStack,
    *,
    csp_pairs: int,
    cell: str | None = None,
) -> dict:
    """``{pipeline: predictions}`` of each pipeline trained on a labeled stack;
    the training logs (taken here unless ``train`` carries them), the tangent
    reference and the tangent vectors are computed once for all of them.
    With ``cell`` given, a :class:`DataError` is re-raised as the same type,
    prefixed with ``cell``, or with ``cell/pipeline`` when it came from one
    pipeline's fit or predict."""
    labels = train.labels
    with located(cell):
        if LOG_PIPELINES.intersection(pipelines):
            train = train.with_logs()
        if "ts-svm" in pipelines or "ts-lda" in pipelines:
            ref = log_euclidean_mean(train.logs)
            feats, test_feats = ts_features(ref, train.covs), ts_features(ref, test.covs)
    preds = {}
    for pipeline in pipelines:
        with located(cell and f"{cell}/{pipeline}"):
            if pipeline == "csp-lda":
                if train.scatter is None or test.scatter is None:
                    raise ConfigError("csp-lda needs the centred scatter of every trial")
                model = csp_fit(train.covs, labels, csp_pairs)
                clf = classifiers.lda_fit(csp_features(model, train.scatter), labels)
                test_csp = csp_features(model, test.scatter)
                preds[pipeline] = classifiers.lda_predict_many(clf, test_csp)
            elif pipeline == "mdm":
                model = classifiers.mdm_fit(train.logs, labels)
                preds[pipeline] = classifiers.mdm_predict(model, test.covs)
            elif pipeline == "ts-lda":
                clf = classifiers.lda_fit(feats, labels)
                preds[pipeline] = classifiers.lda_predict_many(clf, test_feats)
            elif pipeline == "ts-svm":
                clf = classifiers.svm_fit(feats, labels)
                preds[pipeline] = classifiers.svm_predict_many(clf, test_feats)
            else:
                raise ConfigError(f"unknown pipeline {pipeline!r}")
    return preds


def fit_predict(pipeline: str, train: CovStack, test: CovStack, *, csp_pairs: int) -> list:
    """Train one pipeline on a labeled stack and predict ``test`` (a one-pipeline cell)."""
    return fit_predict_cell((pipeline,), train, test, csp_pairs=csp_pairs)[pipeline]


def _load_subjects(spec: ScenarioSpec) -> tuple[list[str], Iterator[tuple]]:
    """The subject names, and an iterator that reads (or generates) each
    subject's ``(data, labels)`` when it is asked for the next."""
    if spec.synth is not None:
        names = [f"s{i}" for i in range(spec.synth.subjects)]
        return names, synthetic_subjects(spec.synth, *synthetic_parameters(spec.synth))
    manifest = load_manifest(spec.manifest)
    return [e.name for e in manifest.subjects], manifest.iter_subjects()


def subject_stack(name: str, subject, shrinkage: float = 0.0, scatter: bool = False) -> CovStack:
    """:func:`covariance_stack` of one subject's ``(data, labels)``, in file
    order; a degenerate trial's error names the subject and the trial."""
    try:
        return covariance_stack(*subject, shrinkage, scatter)
    except (DimMismatchError, EmptyInputError, NonFiniteError, NotPositiveDefiniteError) as exc:
        raise reworded(exc, f"subject {name}, {exc}") from exc


def iter_subject_stacks(
    names: Sequence[str], subjects, shrinkage: float = 0.0, scatter: bool = False
) -> Iterator[CovStack]:
    """:func:`subject_stack` of each subject in turn, taken from ``subjects``
    (which may be an iterator) only when the next stack is asked for; each
    must have as many channels as the first (else :class:`DimMismatchError`
    names the subject)."""
    subjects, channels = iter(subjects), None
    for name in names:
        stack = subject_stack(name, next(subjects), shrinkage, scatter)
        channels = channels or stack.covs.shape[-1]
        if stack.covs.shape[-1] != channels:
            raise DimMismatchError(f"subject {name} has trials without {channels} channels")
        yield stack


def label_view(name: str, stack: CovStack, role: str, labels: Sequence[int]) -> CovStack:
    """The trials of one subject's stack whose label is in its ``role``'s
    ``labels``; a label without trials raises :class:`DataError`."""
    missing = sorted(set(labels) - set(stack.labels.tolist()))
    if missing:
        raise DataError(f"{role} subject {name} has no trials for {role} labels {missing}")
    return stack.take(np.isin(stack.labels, labels))


def source_view(name: str, stack: CovStack, mapping: LabelMapping) -> CovStack:
    """The trials of one subject's stack whose label is a source label of
    ``mapping``, relabeled to their matched target labels."""
    view = label_view(name, stack, "source", mapping.source_labels)
    return replace(view, labels=relabel(view.labels, mapping))


def _scenario_domains(spec, mapping, names, subjects) -> list[tuple[Domain, Domain]]:
    """Each subject's source view (in target labels) and target pool as
    domains. When a pipeline needs logs, a source view's raw stack carries
    them if ``raw`` runs and its whitened stack if ``ea`` or ``la`` runs;
    the target pools never do. CSP's filter count is checked against the
    first subject's channels, before the second subject is read."""
    csp = "csp-lda" in spec.pipelines
    logs = bool(LOG_PIPELINES.intersection(spec.pipelines))
    raw_logs = logs and "raw" in spec.strategies
    ea_logs = logs and not {"ea", "la"}.isdisjoint(spec.strategies)
    stacks = []
    for stack in iter_subject_stacks(names, subjects, spec.shrinkage, csp):
        channels = stack.covs.shape[-1]
        if csp and 2 * spec.csp_pairs > channels:
            raise ConfigError(
                f"csp_pairs {spec.csp_pairs} needs at least {2 * spec.csp_pairs} channels, "
                f"the trials have {channels}"
            )
        stacks.append(stack)
    domains = []
    for name, stack in zip(names, stacks):
        target = label_view(name, stack, "target", spec.target_labels)
        if len(target.covs) <= max(spec.k_grid):
            raise ConfigError(
                f"target subject {name} has {len(target.covs)} trials in the target "
                f"label set; the k grid needs more than {max(spec.k_grid)}"
            )
        source = domain(source_view(name, stack, mapping), source=True)
        source = replace(
            source,
            stack=source.stack.with_logs() if raw_logs else source.stack,
            ea_stack=source.ea_stack.with_logs() if ea_logs else source.ea_stack,
        )
        domains.append((source, domain(target)))
    return domains


# The (spec, names, domains) of the scenario in a pool worker; the parent
# process never sets it.
_WORKER_SCENARIO = None


def _start_worker(spec, names, domains) -> None:
    global _WORKER_SCENARIO
    _WORKER_SCENARIO = (spec, names, domains)


def _worker_unit(i: int) -> tuple[str, list, list]:
    return _subject_unit(*_WORKER_SCENARIO, i)


def _labeled(stack: CovStack, medoids, logs: bool) -> CovStack:
    part = stack.take(medoids)
    return part.with_logs() if logs else part


def _train_buffer(sources: Sequence[Domain], labeled: int, logs: bool) -> CovStack:
    """Room for the trials of ``sources`` and ``labeled`` more: their
    covariances and labels, the scatter when the sources carry it, and the
    logs when ``logs``."""
    first = sources[0].stack
    rows = sum(len(source.stack.covs) for source in sources) + labeled
    covs = np.empty((rows, *first.covs.shape[1:]))
    return CovStack(
        covs,
        np.empty(rows, first.labels.dtype),
        None if first.scatter is None else np.empty_like(covs),
        np.empty_like(covs) if logs else None,
    )


def _fill(buffer: CovStack, pieces: Sequence[CovStack]) -> CovStack:
    """``pieces`` written one after another into the first rows of ``buffer``,
    each piece logged first when the buffer holds logs (a piece that carries
    its logs is copied); returns views of the rows written."""
    start = 0
    for piece in pieces:
        if buffer.logs is not None:
            piece = piece.with_logs()
        stop = start + len(piece.covs)
        for out, values in zip(vars(buffer).values(), vars(piece).values()):
            if out is not None:
                out[start:stop] = values
        start = stop
    return buffer.take(slice(0, start))


def _subject_unit(spec, names, domains, i: int) -> tuple[str, list, list]:
    """Evaluate target subject ``names[i]`` over the whole k grid.

    Its target pool is ``domains[i]``'s and its sources are the source views
    of every other subject. A pure function of the scenario and ``i``, so
    results are identical no matter how the units are scheduled across
    processes. Returns (subject_name, accuracy rows, fallback events). A
    :class:`DataError` is re-raised as the same type, prefixed with where it
    arose: ``subject s1:`` for the pool's pairwise distances, ``subject s1,
    k 4:`` for the labeled medoids, and ``subject s1, k 4, la:`` for a cell
    (``la/ts-svm:`` when one pipeline's fit or predict raised it).
    """
    name, target = names[i], domains[i][1]
    sources = [source for j, (source, _) in enumerate(domains) if j != i]
    pool = target.stack
    logs = bool(LOG_PIPELINES.intersection(spec.pipelines))
    with located(f"subject {name}"):
        distances = pairwise_distances(pool.covs)
    buffer = _train_buffer(sources, max(spec.k_grid), logs)
    rows = []
    fallbacks = []
    for k in spec.k_grid:
        with located(f"subject {name}, k {k}"):
            medoids = k_medoids(distances, k)
            # The labeled trials of the raw and of the whitened pool, each taken
            # (and logged) at most once per k.
            labeled = {"raw": _labeled(pool, medoids, logs)}
            means = target_means(labeled["raw"], labeled["raw"].labels, len(spec.target_labels))
        test_idx = np.setdiff1d(np.arange(len(pool.covs)), medoids)
        truth = pool.labels[test_idx]
        for strategy in spec.strategies:
            effective = strategy
            if strategy == "la" and means is None:
                effective = "ea"
                fallbacks.append([name, k])
            cell = f"subject {name}, k {k}, {strategy}"
            with located(cell):
                aligned_sources, aligned_target = align(effective, sources, target, means)
                view = "ea" if effective == "ea" else "raw"
                if view not in labeled:
                    labeled[view] = _labeled(aligned_target, medoids, logs)
                train = _fill(buffer, [*aligned_sources, labeled[view]])
                del aligned_sources  # LA's aligned stacks are in the buffer: fit without them
                test = aligned_target.take(test_idx)
            preds = fit_predict_cell(
                spec.pipelines, train, test, csp_pairs=spec.csp_pairs, cell=cell
            )
            for pipeline in spec.pipelines:
                accuracy = float(np.mean(np.asarray(preds[pipeline]) == truth))
                rows.append((name, k, strategy, pipeline, accuracy))
    return name, rows, fallbacks


def run_scenario(spec: ScenarioSpec, jobs: int = 1) -> ExperimentReport:
    """Leave-one-subject-out evaluation of every (strategy, pipeline, k).

    ``jobs`` > 1 evaluates target subjects in up to ``jobs`` worker
    processes (at most one per subject); the report is identical regardless
    of the schedule.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    names, subjects = _load_subjects(spec)
    if len(names) < 2:
        raise ConfigError("need at least two subjects for leave-one-subject-out")
    mapping = match_labels(
        spec.source_labels, spec.target_labels, derive_key(spec.seed, "mapping")
    )
    scenario = (spec, names, _scenario_domains(spec, mapping, names, subjects))
    if jobs > 1:
        # Imported here, so that a jobs-1 run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, len(names))
        with ProcessPoolExecutor(workers, initializer=_start_worker, initargs=scenario) as pool:
            results = list(pool.map(_worker_unit, range(len(names))))
    else:
        results = [_subject_unit(*scenario, i) for i in range(len(names))]

    report = ExperimentReport()
    fallbacks = []
    for _, rows, unit_fallbacks in results:
        fallbacks.extend(unit_fallbacks)
        for name, k, strategy, pipeline, accuracy in rows:
            report.accuracies[(name, k, strategy, pipeline)] = accuracy

    if len(spec.k_grid) >= 2:
        for name in names:
            for strategy, pipeline in spec.algorithms:
                curve = [
                    (k, report.accuracies[(name, k, strategy, pipeline)])
                    for k in spec.k_grid
                ]
                report.aucs[(name, strategy, pipeline)] = auc_over_k(curve)
        for alg_a, alg_b in itertools.combinations(spec.algorithms, 2):
            a = [report.aucs[(n, *alg_a)] for n in names]
            b = [report.aucs[(n, *alg_b)] for n in names]
            try:
                t, p = paired_t_test(a, b)
            except (ZeroVarianceError, ConfigError):
                t, p = float("nan"), float("nan")
            report.ttests[(*alg_a, *alg_b)] = (t, p)

    report.metadata = {
        "seed": spec.seed,
        "config_hash": spec.config_hash(),
        "mapping": [list(p) for p in mapping.pairs],
        "ea_fallbacks": sorted(fallbacks),
        "data_source": "synth" if spec.synth is not None else "manifest",
    }
    return report
