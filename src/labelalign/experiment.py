"""Scenario runner: leave-one-subject-out transfer experiments with a label
budget, and the metrics of their report (accuracy, AUC over k, paired
t-tests); :mod:`labelalign.report` writes and reads the report.

The protocol is covariance first. Each subject is read or generated once and
turned into a covariance stack, split into a source view in the target labels
and a target pool (:func:`_scenario_domains`). One unit per target subject
(:func:`_subject_unit`) labels the k medoids of its pool, tests on the rest,
and trains every (k, strategy) cell on that split, so accuracy differences
isolate the alignment step
(``TestLosoLeakage.test_only_the_target_medoids_reach_training``). A source
matrix is logged once per scenario, a target trial only once it is labeled
(``TestSharedWork.test_source_views_once_and_target_trials_only_when_labeled``).

Memory follows the chunks of :mod:`labelalign.spd`. The domain pass holds one
subject's stack at a time, with a block of a manifest subject's trials or one
generated subject (``TestOneSubjectAtATime``, ``TestStreamedSubjects``), and a
unit its training buffer and a cell's test rows beside its scratch
(``TestTrainBuffer``). A configuration error is raised before any unit starts
(``TestConfigErrorsComeFirst``), and a unit's data error names its cell
(``TestUnitErrorsNameTheirCell``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import classifiers
from .alignment import Domain, align, domain, match_labels, relabel, target_roots
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
    require,
    require_fields,
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
from .spd import log_euclidean_mean, spd_inv_sqrt
from .stats import student_t_two_sided_p
from .synth import SynthConfig, synthetic_parameters, synthetic_subjects

STRATEGIES = ("raw", "ea", "la")
PIPELINES = ("csp-lda", "ts-svm", "ts-lda", "mdm")
LOG_PIPELINES = {"ts-svm", "ts-lda", "mdm"}  # they work on the logs of the training stack


@dataclass(frozen=True)
class ScenarioSpec:
    source_labels: tuple[int, ...]
    target_labels: tuple[int, ...]
    k_grid: tuple[int, ...]
    strategies: tuple[str, ...] = STRATEGIES
    pipelines: tuple[str, ...] = ("ts-lda",)
    seed: int = 0
    synth: SynthConfig | None = None
    manifest: str | None = None
    csp_pairs: int = DEFAULT_CSP_PAIRS
    shrinkage: float = 0.0

    def __post_init__(self):
        require_fields(self)
        object.__setattr__(self, "shrinkage", float(self.shrinkage))  # hashed as a float
        match_labels(self.source_labels, self.target_labels)  # rejects duplicates, unequal sizes
        if len(self.source_labels) < 2:
            raise ConfigError(
                f"every pipeline needs at least two classes, got source labels "
                f"{self.source_labels} and target labels {self.target_labels}"
            )
        for name, known in (("strategies", STRATEGIES), ("pipelines", PIPELINES)):
            listed = getattr(self, name)
            unknown = [value for value in listed if value not in known]
            if unknown:
                raise ConfigError(f"unknown {name} {unknown}, expected some of {known}")
            if len(set(listed)) < len(listed):
                raise ConfigError(f"{name} lists a value twice: {list(listed)}")
        if self.k_grid[0] < 1 or any(a >= b for a, b in zip(self.k_grid, self.k_grid[1:])):
            raise ConfigError(f"k_grid must be ascending and positive, got {list(self.k_grid)}")
        if (self.synth is None) == (self.manifest is None):
            raise ConfigError("exactly one of synth/manifest must be given")
        if self.csp_pairs < 1:
            raise ConfigError(f"csp_pairs must be at least 1, got {self.csp_pairs}")
        if not 0.0 <= self.shrinkage < 1.0:
            raise ConfigError(f"shrinkage must be in [0, 1), got {self.shrinkage}")
        if self.synth is not None:
            self._check_generator_sizes(self.synth)

    def _check_generator_sizes(self, cfg: SynthConfig) -> None:
        """The bounds that a manifest's data checks once it is read, taken from
        the generator's sizes before any subject is generated."""
        outside = sorted(set(self.source_labels + self.target_labels) - set(range(cfg.classes)))
        if outside:
            raise ConfigError(
                f"labels {outside} are not classes of the generator, whose "
                f"{cfg.classes} classes are 0 to {cfg.classes - 1}"
            )
        self.check_pool(cfg.trials_per_class * len(self.target_labels), (
            f"a generated subject (trials_per_class {cfg.trials_per_class} x "
            f"{len(self.target_labels)} target labels)"
        ))
        self.check_channels(cfg.channels)

    def check_pool(self, trials: int, subject: str) -> None:
        """The k grid against a target pool of ``trials`` trials, which ``subject`` names."""
        if max(self.k_grid) >= trials:
            raise ConfigError(
                f"k_grid {list(self.k_grid)} needs more than {max(self.k_grid)} trials in "
                f"each target pool, {subject} has {trials}"
            )

    def check_channels(self, channels: int) -> None:
        """CSP's filter count against the trials' channels, when csp-lda runs."""
        if "csp-lda" in self.pipelines and 2 * self.csp_pairs > channels:
            raise ConfigError(
                f"csp_pairs {self.csp_pairs} needs at least {2 * self.csp_pairs} channels, "
                f"the trials have {channels}"
            )

    @property
    def algorithms(self) -> list[tuple[str, str]]:
        return [(s, p) for s in self.strategies for p in self.pipelines]

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def scenario_from_dict(doc: dict, seed_override: int | None = None) -> ScenarioSpec:
    """The spec of a parsed JSON document (the CLI's --spec file), passed as it
    is but for its ``synth`` object, built into a :class:`SynthConfig`."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario spec must be a JSON object")
    seed = doc.get("seed", 0) if seed_override is None else seed_override
    synth = doc.get("synth")
    try:
        if isinstance(synth, dict):
            require("seed", seed, int)  # before it keys the generator
            # The generator seed flows from the experiment seed unless pinned.
            synth = SynthConfig(**{"seed": derive_key(seed, "synth"), **synth})
        return ScenarioSpec(**{**doc, "seed": seed, "synth": synth})
    except TypeError as exc:  # an unknown or missing field, which it names
        raise ConfigError(f"malformed scenario spec: {exc}") from exc


def load_scenario(path, seed_override: int | None = None) -> ScenarioSpec:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
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
    the training logs, the tangent reference's inverse root and the tangent
    vectors are computed once for all of them
    (``TestSharedWork.test_each_ts_cell_takes_one_inverse_root_of_its_reference``).
    With ``cell`` given, a :class:`DataError` is re-raised as the same type,
    prefixed ``cell:``, or ``cell/pipeline:`` from one pipeline's fit or predict."""
    labels = train.labels
    with located(cell):
        if LOG_PIPELINES.intersection(pipelines):
            train = train.with_logs()
        if "ts-svm" in pipelines or "ts-lda" in pipelines:
            isq = spd_inv_sqrt(log_euclidean_mean(train.logs))
            feats, test_feats = ts_features(isq, train.covs), ts_features(isq, test.covs)
    preds = {}
    for pipeline in pipelines:
        with located(cell and f"{cell}/{pipeline}"):
            if pipeline == "csp-lda":
                if train.scatter is None or test.scatter is None:
                    raise ConfigError("csp-lda needs the centred scatter of every trial")
                filters = csp_fit(train.covs, labels, csp_pairs)
                clf = classifiers.lda_fit(csp_features(filters, train.scatter), labels)
                test_csp = csp_features(filters, test.scatter)
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


def _open_subjects(spec: ScenarioSpec) -> tuple[list[str], Iterator[tuple]]:
    """The subject names, and an iterator that opens or generates each
    subject's ``(data, labels)`` as the next is asked for."""
    if spec.synth is not None:
        names = [f"s{i}" for i in range(spec.synth.subjects)]
        return names, synthetic_subjects(spec.synth, *synthetic_parameters(spec.synth))
    manifest = load_manifest(spec.manifest)
    return [e.name for e in manifest.subjects], manifest.iter_subject_blocks()


def subject_stack(name: str, subject, shrinkage: float = 0.0, scatter: bool = False) -> CovStack:
    """:func:`covariance_stack` of one subject's ``(data, labels)``; a
    degenerate trial's error names the subject and the trial's index in it."""
    try:
        return covariance_stack(*subject, shrinkage, scatter)
    except (DimMismatchError, EmptyInputError, NonFiniteError, NotPositiveDefiniteError) as exc:
        raise reworded(exc, f"subject {name}, {exc}") from exc


def iter_subject_stacks(
    names: Sequence[str], subjects, shrinkage: float = 0.0, scatter: bool = False
) -> Iterator[CovStack]:
    """:func:`subject_stack` of each subject of ``subjects`` (which may be an
    iterator) as the next stack is asked for; a subject with other channels
    than the first raises :class:`DimMismatchError`."""
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


def source_view(name: str, stack: CovStack, mapping: dict) -> CovStack:
    """The trials of one subject's stack whose label is a source label of
    ``mapping`` (:func:`match_labels`), relabeled to their matched target labels."""
    view = label_view(name, stack, "source", tuple(mapping))
    return replace(view, labels=relabel(view.labels, mapping))


def _scenario_domains(spec, mapping, names, subjects) -> list[tuple[Domain, Domain]]:
    """Each subject's source view (in target labels) and target pool as
    domains, checked as soon as its stack is built; a source view's raw and
    whitened stacks carry logs when some strategy trains on them."""
    csp = "csp-lda" in spec.pipelines
    logs = bool(LOG_PIPELINES.intersection(spec.pipelines))
    raw_logs = logs and "raw" in spec.strategies
    ea_logs = logs and not {"ea", "la"}.isdisjoint(spec.strategies)
    domains = []
    for name, stack in zip(names, iter_subject_stacks(names, subjects, spec.shrinkage, csp)):
        spec.check_channels(stack.covs.shape[-1])
        target = label_view(name, stack, "target", spec.target_labels)
        spec.check_pool(len(target.covs), f"target subject {name}")
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


def _worker_unit(i: int) -> tuple[dict, list]:
    return _subject_unit(*_WORKER_SCENARIO, i)


def _labeled(stack: CovStack, medoids, logs: bool) -> CovStack:
    part = stack.take(medoids)
    return part.with_logs() if logs else part


def _train_buffer(sources: Sequence[Domain], labeled: int, logs: bool) -> CovStack:
    """Room for the covariances and labels of the trials of ``sources`` and
    ``labeled`` more, their scatter when the sources carry it and logs if ``logs``."""
    first = sources[0].stack
    rows = sum(len(source.stack.covs) for source in sources) + labeled
    covs = np.empty((rows, *first.covs.shape[1:]))
    return CovStack(
        covs,
        np.empty(rows, first.labels.dtype),
        None if first.scatter is None else np.empty_like(covs),
        np.empty_like(covs) if logs else None,
    )


def _subject_unit(spec, names, domains, i: int) -> tuple[dict, list]:
    """(accuracies, fallback events) of target subject ``names[i]`` over the
    whole k grid, trained on the source views of every other subject; a pure
    function of the scenario and ``i``. Every (k, strategy) cell rewrites one
    training buffer, the aligned source rows then the k labeled target rows.
    A :class:`DataError` is prefixed ``subject s1:`` for the pool's distances,
    ``subject s1, k 4:`` for the medoids and their class roots and ``subject
    s1, k 4, la:`` for a cell, its labeled rows and :func:`fit_predict_cell`."""
    name, target = names[i], domains[i][1]
    sources = [source for j, (source, _) in enumerate(domains) if j != i]
    pool = target.stack
    logs = bool(LOG_PIPELINES.intersection(spec.pipelines))
    la = "la" in spec.strategies  # only LA reads the target's class roots
    with located(f"subject {name}"):
        distances = pairwise_distances(pool.covs)
    buffer = _train_buffer(sources, max(spec.k_grid), logs)
    n_source = len(buffer.covs) - max(spec.k_grid)
    accuracies = {}
    fallbacks = []
    for k in spec.k_grid:
        with located(f"subject {name}, k {k}"):
            medoids = k_medoids(distances, k)
            roots = target_roots(pool.take(medoids), len(spec.target_labels)) if la else None
        test_idx = np.setdiff1d(np.arange(len(pool.covs)), medoids)
        truth = pool.labels[test_idx]
        labeled = {}  # the k labeled rows of each aligned target stack, taken (and logged) once
        for strategy in spec.strategies:
            effective = strategy
            if strategy == "la" and roots is None:
                effective = "ea"
                fallbacks.append([name, k])
            cell = f"subject {name}, k {k}, {strategy}"
            with located(cell):
                aligned_target = align(effective, sources, target, roots, buffer)
                if aligned_target not in labeled:
                    labeled[aligned_target] = _labeled(aligned_target, medoids, logs)
                train = buffer.take(slice(0, buffer.write(n_source, [labeled[aligned_target]])))
                test = aligned_target.take(test_idx)
            preds = fit_predict_cell(
                spec.pipelines, train, test, csp_pairs=spec.csp_pairs, cell=cell
            )
            for pipeline in spec.pipelines:
                accuracy = float(np.mean(np.asarray(preds[pipeline]) == truth))
                accuracies[(name, k, strategy, pipeline)] = accuracy
    return accuracies, fallbacks


def run_scenario(spec: ScenarioSpec, jobs: int = 1) -> ExperimentReport:
    """Leave-one-subject-out evaluation of every (strategy, pipeline, k);
    ``jobs`` > 1 evaluates target subjects in up to ``jobs`` worker processes,
    at most one per subject (``TestPoolDispatch``), and the report is the same
    at any ``jobs`` (``TestGoldenReport.test_csv_byte_identical``)."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    names, subjects = _open_subjects(spec)
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
    for accuracies, unit_fallbacks in results:
        report.accuracies.update(accuracies)
        fallbacks.extend(unit_fallbacks)

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
            except ZeroVarianceError:  # every difference equal: t is undefined
                t, p = float("nan"), float("nan")
            report.ttests[(*alg_a, *alg_b)] = (t, p)

    report.metadata = {
        "seed": spec.seed,
        "config_hash": spec.config_hash(),
        "mapping": [list(p) for p in mapping.items()],
        "ea_fallbacks": sorted(fallbacks),
        "data_source": "synth" if spec.synth is not None else "manifest",
    }
    return report
