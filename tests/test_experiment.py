"""Harness tests: the golden report, LOSO leakage, report formats, pipeline
congruence properties, degenerate input and the CLI."""

import concurrent.futures
import functools
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import re
import struct
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import align_sources, first_subject, random_spd, read_subject
from labelalign import alignment, classifiers, cli, dataio, experiment, features, spd
from labelalign.alignment import (
    Domain,
    domain,
    ea_reference,
    match_labels,
    relabel,
    target_roots,
)
from labelalign.classifiers import mdm_fit
from labelalign.cli import main
from labelalign.dataio import (
    HEADER_SIZE,
    load_manifest,
    read_labels,
    read_trial_blocks,
    read_trials,
    write_labels,
    write_manifest,
    write_trials,
)
from labelalign.errors import (
    ConfigError,
    DataError,
    DimMismatchError,
    LabelAlignError,
    MissingClassError,
    NotPositiveDefiniteError,
    TruncatedPayloadError,
)
from labelalign.experiment import (
    PIPELINES,
    STRATEGIES,
    fit_predict,
    fit_predict_cell,
    load_scenario,
    run_scenario,
    subject_stack,
)
from labelalign.features import DEFAULT_CSP_PAIRS, CovStack, covariance_stack, ts_features
from labelalign.report import (
    ExperimentReport,
    emit_report,
    read_report,
    render_report_csv,
    render_report_json,
)
from labelalign.rng import derive_key
from labelalign.selection import k_medoids, pairwise_distances
from labelalign.spd import congruence, log_euclidean_mean, spd_exp, spd_log
from labelalign.synth import (
    SynthConfig,
    generate_synthetic,
    synthetic_parameters,
    synthetic_subjects,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_SPEC = FIXTURES / "golden_spec.json"


def scenario_domains(spec, names, subjects):
    """``_scenario_domains`` under the label mapping that ``run_scenario`` draws."""
    mapping = match_labels(spec.source_labels, spec.target_labels,
                           derive_key(spec.seed, "mapping"))
    return experiment._scenario_domains(spec, mapping, names, subjects)


@dataclass
class GoldenRun:
    """The golden spec run at jobs 1, with what its spies saw: the train and
    test stacks and the predictions of each cell (one ``fit_predict_cell``
    call per target, k and strategy), the covariance arrays that each cell
    was passed, the covariances of every ``ts_features`` call, every input
    of ``spd_log``, how many calls ``np.linalg.eigh`` and ``eigvalsh`` took
    and how many matrices they decomposed, the stack shape of each
    ``alignment.spd_sqrt`` call, and the SVM's Newton steps."""

    report: ExperimentReport
    cells: list = field(default_factory=list)  # (train, test, predictions)
    passed: list = field(default_factory=list)  # train.covs, test.covs of each cell
    tangent: list = field(default_factory=list)
    logged: list = field(default_factory=list)
    eig_calls: int = 0
    eig_matrices: int = 0
    roots: list = field(default_factory=list)  # shape of each alignment.spd_sqrt input
    newton_steps: int = 0


@pytest.fixture(scope="module")
def golden_run():
    run = GoldenRun(None)

    def cell_spy(pipelines, train, test, **kwargs):
        preds = fit_predict_cell(pipelines, train, test, **kwargs)
        run.passed.extend([train.covs, test.covs])
        # The unit's next cell rewrites the buffer that ``train`` views.
        kept = CovStack(*(None if a is None else a.copy() for a in vars(train).values()))
        run.cells.append((kept, test, preds))
        return preds

    def ts_spy(isq, covs):
        run.tangent.append(covs)
        return ts_features(isq, covs)

    def log_spy(p):
        run.logged.append(p)
        return spd_log(p)

    def eig_spy(solver):
        def spy(a, *args, **kwargs):
            run.eig_calls += 1
            run.eig_matrices += math.prod(np.shape(a)[:-2])
            return solver(a, *args, **kwargs)
        return spy

    def solve_spy(a, b):
        run.newton_steps += np.ndim(b) == 1  # LDA solves for a matrix, a Newton step for a vector
        return solve(a, b)

    def sqrt_spy(p):
        run.roots.append(np.shape(p))
        return spd.spd_sqrt(p)

    solve = np.linalg.solve
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", solve_spy)
        patch.setattr(alignment, "spd_sqrt", sqrt_spy)
        patch.setattr(experiment, "fit_predict_cell", cell_spy)
        patch.setattr(experiment, "ts_features", ts_spy)
        for module in (spd, features):
            patch.setattr(module, "spd_log", log_spy)
        for solver in ("eigh", "eigvalsh"):
            patch.setattr(np.linalg, solver, eig_spy(getattr(np.linalg, solver)))
        run.report = run_scenario(load_scenario(GOLDEN_SPEC))
    return run


class TestGoldenReport:
    """3 subjects, 6 channels, all 12 algorithms at k in {2, 6}.

    The fixtures were written by ``labelalign experiment --spec
    tests/fixtures/golden_spec.json --out tests/fixtures/golden_report.csv``
    (and ``.json``); CI reruns that command at ``--jobs 2`` through the
    installed console script and compares its CSV and JSON with ``cmp``. They
    include one EA fallback (s0 at k = 2). A change that
    moves any row regenerates them and lists the row and its cause in
    CHANGES.md.
    """

    @pytest.mark.parametrize("fmt, jobs", [
        pytest.param("csv", 1, id="1"),
        pytest.param("csv", 2, id="2"),
        pytest.param("json", 1, id="json-1"),
        pytest.param("json", 2, id="json-2"),
    ])
    def test_csv_byte_identical(self, fmt, jobs, golden_run):
        if jobs == 1:
            report = golden_run.report
        else:
            report = run_scenario(load_scenario(GOLDEN_SPEC), jobs=jobs)
        render = {"csv": render_report_csv, "json": render_report_json}[fmt]
        expected = (FIXTURES / f"golden_report.{fmt}").read_text()
        assert render(report) == expected

    def test_a_manifest_of_the_golden_data_gives_the_golden_rows(self, tmp_path):
        # The golden spec's synth block written by ``labelalign synth``, and the
        # same spec run on that manifest: only the metadata may differ.
        doc = json.loads(GOLDEN_SPEC.read_text())
        config, spec, report = (tmp_path / name for name in ("synth.json", "spec.json", "r.json"))
        config.write_text(json.dumps(doc.pop("synth")))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == 0
        spec.write_text(json.dumps({**doc, "manifest": str(tmp_path / "d" / "manifest.json")}))
        assert main(["experiment", "--spec", str(spec), "--out", str(report)]) == 0
        got = json.loads(report.read_text())
        golden = json.loads((FIXTURES / "golden_report.json").read_text())
        assert got["metadata"]["data_source"] == "manifest"
        for section in ("accuracy", "auc", "ttest"):
            assert got[section] == golden[section], section

    def test_the_harness_writes_nothing_to_stdout(self, capfd):
        # The benchmark reads its result from the last line of standard output.
        run_scenario(load_scenario(GOLDEN_SPEC))
        assert capfd.readouterr().out == ""


@pytest.fixture
def recording_pools(monkeypatch):
    """Replace the harness's process pool with one that records what it is
    handed and runs the initializer and the units in this process. Like a
    spawned pool, it pickles the initializer's arguments and every mapped
    item on the way in."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers=None, initializer=None, initargs=()):
            self.max_workers, self.initializer = max_workers, initializer
            self.initargs, self.starts, self.mapped = initargs, 0, []
            pools.append(self)

        def __enter__(self):
            self.starts += 1
            if self.initializer is not None:
                self.initializer(*pickle.loads(pickle.dumps(self.initargs)))
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            self.mapped = list(items)
            return [fn(pickle.loads(pickle.dumps(item))) for item in self.mapped]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # The fake starts its "worker" here; the global is restored after the test.
    monkeypatch.setattr(experiment, "_WORKER_SCENARIO", None, raising=False)
    return pools


def tiny_spec():
    return experiment.scenario_from_dict({
        "source_labels": [0, 1], "target_labels": [2, 3], "pipelines": ["mdm"],
        "k_grid": [4], "synth": {"channels": 3, "samples": 20, "classes": 4,
                                 "trials_per_class": 3, "subjects": 3,
                                 "class_separation": 1.0, "subject_shift": 0.5},
    })


class TestPoolDispatch:
    """Each worker receives the scenario's domains once, through the pool's
    initializer, and each unit is dispatched as a subject index."""

    def test_units_are_subject_indices(self, recording_pools):
        run_scenario(load_scenario(GOLDEN_SPEC), jobs=2)
        (pool,) = recording_pools
        assert pool.mapped == [0, 1, 2]
        assert all(type(i) is int and len(pickle.dumps(i)) < 64 for i in pool.mapped)

    def test_the_initializer_receives_the_domains_once(self, recording_pools, golden_run):
        spec = load_scenario(GOLDEN_SPEC)
        report = run_scenario(spec, jobs=2)
        (pool,) = recording_pools
        assert pool.starts == 1
        got_spec, names, domains = pool.initargs
        assert got_spec == spec and names == ["s0", "s1", "s2"]
        assert len(domains) == 3
        assert all(isinstance(d, Domain) for pair in domains for d in pair)
        # All four pipelines, csp-lda's scatter included, match the jobs-1 run.
        assert render_report_csv(report) == render_report_csv(golden_run.report)

    def test_no_more_workers_than_subjects(self, recording_pools):
        run_scenario(tiny_spec(), jobs=64)
        assert [pool.max_workers for pool in recording_pools] == [3]

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_cli_jobs_below_one_exits_2(self, recording_pools, tmp_path, capsys, jobs):
        out = tmp_path / "r.csv"
        code = main(["experiment", "--spec", str(GOLDEN_SPEC), "--out", str(out),
                     "--jobs", jobs])
        err = capsys.readouterr().err
        assert code == 2
        assert f"jobs must be at least 1, got {jobs}" in err and "Traceback" not in err
        assert not out.exists() and recording_pools == []

    def test_a_jobs_1_run_never_imports_the_process_pool(self):
        code = (
            "import sys\n"
            "from labelalign.experiment import load_scenario, run_scenario\n"
            f"run_scenario(load_scenario({str(GOLDEN_SPEC)!r}))\n"
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))\n"
        )
        src = str(Path(experiment.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_the_parent_never_holds_the_worker_scenario(self):
        for jobs in (1, 2):  # the second run starts two real worker processes
            run_scenario(tiny_spec(), jobs=jobs)
            assert experiment._WORKER_SCENARIO is None


def matches(a, b):
    """(len(a), len(b)) mask: matrix i of ``a`` equals matrix j of ``b`` up to rounding."""
    diff = np.abs(a[:, None] - b[None]).max(axis=(-2, -1))
    return diff <= 1e-9 * np.abs(b).max(axis=(-2, -1))


class TestLosoLeakage:
    def test_only_the_target_medoids_reach_training(self, golden_run):
        spec = load_scenario(GOLDEN_SPEC)
        calls = [(train.covs, test.covs) for train, test, _ in golden_run.cells]
        names, subjects = experiment._open_subjects(spec)
        subjects = list(subjects)  # walked twice below
        domains = scenario_domains(spec, names, subjects)
        # Each subject's whole stack (every label) under the two transforms a
        # target can receive: none (raw, la) and its pool's EA whitening (ea).
        views = {}
        for name, trials, (_, pool) in zip(names, subjects, domains):
            full = subject_stack(name, trials)
            in_pool = np.flatnonzero(np.isin(full.labels, spec.target_labels))
            views[name] = (in_pool, pairwise_distances(pool.stack.covs),
                           [full.covs, congruence(ea_reference(pool.stack.covs), full.covs)])
        assert len(calls) == len(names) * len(spec.k_grid) * len(spec.strategies)
        # The pipelines of one (target, k, strategy) share their stacks.
        for train, test in {id(train): (train, test) for train, test in calls}.values():
            assert not matches(test, train).any()
            found = [
                (name, view)
                for name, (_, _, candidates) in views.items()
                for view in candidates
                if matches(test[:1], view).any()
            ]
            assert len(found) == 1, "the test set is one transformed target pool"
            name, view = found[0]
            in_pool, distances, _ = views[name]
            in_train = np.flatnonzero(matches(view, train).any(axis=1))
            in_test = np.flatnonzero(matches(view, test).any(axis=1))
            assert len(in_test) == len(test)
            k = len(in_train)
            assert k in spec.k_grid
            assert in_train.tolist() == sorted(in_pool[k_medoids(distances, k)].tolist())
            assert sorted([*in_train, *in_test]) == in_pool.tolist()


class TestSharedWork:
    """Each cell computes what its pipelines share once, and the scenario
    logs each raw and whitened source matrix once and a target trial only
    once it is labeled; the results keep their bits."""

    def test_each_source_view_is_relabeled_once(self, monkeypatch):
        relabeled = []

        def spy(labels, mapping):
            relabeled.append(len(labels))
            return relabel(labels, mapping)

        for module in (alignment, experiment):
            monkeypatch.setattr(module, "relabel", spy, raising=False)
        report = run_scenario(load_scenario(GOLDEN_SPEC))
        assert relabeled == [24, 24, 24]  # one source view per subject
        assert render_report_csv(report) == (FIXTURES / "golden_report.csv").read_text()

    def test_one_tangent_mapping_of_train_and_of_test_per_cell(self, golden_run):
        spec = load_scenario(GOLDEN_SPEC)
        assert len(golden_run.cells) == 3 * len(spec.k_grid) * len(spec.strategies)
        expected = golden_run.passed
        assert len(golden_run.tangent) == len(expected)
        assert all(got is want for got, want in zip(golden_run.tangent, expected))

    def test_source_views_once_and_target_trials_only_when_labeled(self, golden_run):
        spec = load_scenario(GOLDEN_SPEC)
        logged = Counter(
            m.tobytes() for p in golden_run.logged for m in np.reshape(p, (-1, *p.shape[-2:]))
        )
        names, subjects = experiment._open_subjects(spec)
        domains = scenario_domains(spec, names, subjects)
        source_counts = [
            logged[m.tobytes()]
            for source, _ in domains for stack in (source.stack, source.ea_stack)
            for m in stack.covs
        ]
        assert len(source_counts) == 3 * 24 * 2 and set(source_counts) == {1}
        target_counts = 0
        for _, target in domains:
            distances = pairwise_distances(target.stack.covs)
            labeled = Counter(i for k in spec.k_grid for i in k_medoids(distances, k))
            for stack in (target.stack, target.ea_stack):
                assert stack.logs is None
                counts = [logged[m.tobytes()] for m in stack.covs]
                assert all(c <= labeled[i] for i, c in enumerate(counts))
                target_counts += sum(counts)
        # Logging every raw and whitened matrix of the views and pools would be 288.
        assert sum(source_counts) + target_counts == 144 + 3 * 2 * sum(spec.k_grid) < 288

    def test_eigensolve_count_is_pinned(self, golden_run):
        # Validating the trial covariances by eigvalsh (144) and logging the
        # unlabeled target trials (96) would make it 3,937. LA's arithmetic
        # class means take no exp (Log-Euclidean ones took 16 here). Taking
        # the target roots again for each source, in la_fit, made it 3,697,
        # and the tangent reference's inverse root once for the training and
        # once for the test stack of each of the 18 ts cells made it 3,687.
        assert golden_run.eig_matrices == 3669
        # One eigvalsh per row of each pool's distances, a tangent root per
        # mapped stack and one exp per MDM class made it 335 calls.
        assert golden_run.eig_calls == 233

    def test_each_ts_cell_takes_one_inverse_root_of_its_reference(self, monkeypatch):
        roots, cells = [], []  # every single-matrix inverse root; per cell, its roots and ref

        def spectral_spy(p, fn, op=None):
            if fn is spd._inv_sqrt and np.ndim(p) == 2:
                roots.append(np.array(p))
            return spectral(p, fn, op)

        def cell_spy(pipelines, train, test, **kwargs):
            start = len(roots)
            preds = fit_predict_cell(pipelines, train, test, **kwargs)
            cells.append((roots[start:], log_euclidean_mean(train.logs)))
            return preds

        spectral = spd._spectral
        monkeypatch.setattr(spd, "_spectral", spectral_spy)
        monkeypatch.setattr(experiment, "fit_predict_cell", cell_spy)
        report = run_scenario(replace(load_scenario(GOLDEN_SPEC), pipelines=("ts-svm", "ts-lda")))
        assert len(cells) == 18 and len(report.accuracies) == 18 * 2
        for taken, ref in cells:  # one root maps both the training and the test stack
            assert len(taken) == 1 and taken[0].tobytes() == ref.tobytes()

    def test_target_roots_are_taken_once_per_target_and_k(self, golden_run):
        # 3 targets x 2 budgets, less s0's EA fallback at k = 2: five stacks
        # of two class roots. One per source in each LA cell made it 10 (20).
        assert len(golden_run.roots) == 5
        assert sum(math.prod(shape[:-2]) for shape in golden_run.roots) == 10

    def test_newton_step_count_is_pinned(self, golden_run):
        # The 18 ts-svm fits halve the full Newton step until it lowers the
        # objective enough. An exact line search at every step made 157, and
        # as the fallback of a full step that did not lower it, 173.
        assert golden_run.newton_steps == 174

    def test_a_csp_lda_run_takes_no_matrix_log(self, monkeypatch):
        # csp-lda reads no logs, and LA's arithmetic class means take none.
        logged = []

        def spy(p):
            logged.append(p)
            return spd_log(p)

        for module in (spd, features):
            monkeypatch.setattr(module, "spd_log", spy)
        run_scenario(replace(load_scenario(GOLDEN_SPEC), pipelines=("csp-lda",)))
        assert logged == []

    def test_a_run_without_la_takes_no_target_roots(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiment, "target_roots", lambda *args: calls.append(args))
        run_scenario(replace(load_scenario(GOLDEN_SPEC), strategies=("raw", "ea")))
        assert calls == []

    def test_every_cell_trains_on_carried_logs(self, golden_run):
        for train, _, _ in golden_run.cells:
            assert np.array_equal(train.logs, spd_log(train.covs))

    def test_tangent_reference_from_shared_logs_is_bitwise(self, golden_run):
        for train, _, _ in golden_run.cells:
            ref = spd_exp(np.mean(train.logs, axis=0))
            assert np.array_equal(ref, log_euclidean_mean(spd_log(train.covs)))

    def test_mdm_means_from_shared_logs_are_bitwise(self, golden_run):
        for train, _, _ in golden_run.cells:
            model = mdm_fit(train.logs, train.labels)
            for mean, c in zip(model.means, model.classes):
                assert np.array_equal(
                    mean, log_euclidean_mean(spd_log(train.covs[train.labels == c]))
                )

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_classify_predicts_what_the_harness_cell_does(self, manifest, capsys, pipeline):
        d = manifest.parent
        data = np.concatenate([read_trials(d / f"s{i}.trials") for i in (0, 1)])
        labels = [l for i in (0, 1) for l in read_labels(d / f"s{i}.labels")]
        # As in a harness cell, the training stack carries its logs.
        train = covariance_stack(data, labels, scatter=True).with_logs()
        test = covariance_stack(read_trials(d / "s2.trials"), None, scatter=True)
        expected = fit_predict_cell(PIPELINES, train, test, csp_pairs=1)[pipeline]
        write_trials(d / "train.trials", data)
        write_labels(d / "train.labels", labels)
        capsys.readouterr()
        assert main(["classify", "--pipeline", pipeline, "--csp-pairs", "1",
                     "--train-trials", str(d / "train.trials"),
                     "--train-labels", str(d / "train.labels"),
                     "--test-trials", str(d / "s2.trials")]) == 0
        assert [int(line) for line in capsys.readouterr().out.split()] == expected


@functools.cache
def manifest_subjects():
    cfg = SynthConfig(channels=4, samples=40, classes=4, trials_per_class=6, subjects=3,
                      class_separation=1.0, subject_shift=0.5, seed=11, noise_df=8)
    return tuple(synthetic_subjects(cfg, *synthetic_parameters(cfg)))


@pytest.fixture
def manifest(tmp_path):
    """Three 4-class subjects of 24 trials each, written through dataio."""
    entries = []
    for i, (data, labels) in enumerate(manifest_subjects()):
        write_trials(tmp_path / f"s{i}.trials", data)
        write_labels(tmp_path / f"s{i}.labels", labels)
        entries.append((f"s{i}", f"s{i}.trials", f"s{i}.labels"))
    write_manifest(tmp_path / "manifest.json", 100.0, range(4), entries)
    return tmp_path / "manifest.json"


def read_subjects(manifest_path):
    """Each subject of the manifest at ``manifest_path`` as ``(data, labels)``, read whole."""
    manifest = load_manifest(manifest_path)
    return [read_subject(manifest, e) for e in manifest.subjects]


def write_spec(path, manifest_path):
    doc = {
        "source_labels": [0, 1], "target_labels": [2, 3], "strategies": ["raw", "la"],
        "pipelines": ["csp-lda", "mdm"], "k_grid": [2, 4], "manifest": str(manifest_path),
        "csp_pairs": 1,  # at most channels / 2
    }
    path.write_text(json.dumps(doc))
    return path


def rename_subject(manifest_path, subject, name):
    doc = json.loads(manifest_path.read_text())
    for entry in doc["subjects"]:
        if entry["name"] == subject:
            entry["name"] = name
    manifest_path.write_text(json.dumps(doc))


def relabel_subject(manifest_path, subject, mapping):
    labels_path = manifest_path.parent / f"{subject}.labels"
    write_labels(labels_path, [mapping.get(l, l) for l in read_labels(labels_path)])


def zero_channel(manifest_path, subject, trial, channel):
    """Rewrite one trial of a subject with an all-zero channel."""
    trials_path = manifest_path.parent / f"{subject}.trials"
    trials = read_trials(trials_path)
    trials[trial, channel] = 0.0
    write_trials(trials_path, trials)


class TestDegenerateTrials:
    def test_run_scenario_names_subject_and_trial(self, manifest, tmp_path):
        zero_channel(manifest, "s1", 17, 2)
        spec = load_scenario(write_spec(tmp_path / "spec.json", manifest))
        with pytest.raises(DataError, match="subject s1, trial 17: smallest eigenvalue"):
            run_scenario(spec)

    def test_subjects_with_different_channel_counts_are_rejected(
        self, manifest, tmp_path, capsys
    ):
        trials_path = manifest.parent / "s2.trials"
        write_trials(trials_path, read_trials(trials_path)[:, :3])
        spec = load_scenario(write_spec(tmp_path / "spec.json", manifest))
        with pytest.raises(DimMismatchError, match="subject s2"):
            run_scenario(spec)
        # labelalign align runs the same subject checks.
        for args in (TestCli.la_args(manifest, tmp_path / "la"),
                     ["align", "--strategy", "ea", "--manifest", str(manifest),
                      "--out", str(tmp_path / "ea")]):
            assert main(args) == 3
            assert "subject s2 has trials without 4 channels" in capsys.readouterr().err

    def test_cli_experiment_with_zero_channel_trials_exits_3(self, manifest, tmp_path, capsys):
        for i in range(3):  # write_trials refuses such data, so the files are written by hand
            (manifest.parent / f"s{i}.trials").write_bytes(
                b"EEGT\x01" + struct.pack("<III", 0, 10, 24))
        spec = write_spec(tmp_path / "spec.json", manifest)
        code = main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert "s0.trials: 24 trials of 0 channels x 10 samples" in err
        assert "Traceback" not in err

    def test_cli_experiment_exits_3_with_the_location(self, manifest, tmp_path, capsys):
        zero_channel(manifest, "s1", 17, 2)
        spec = write_spec(tmp_path / "spec.json", manifest)
        code = main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "r.csv")])
        assert code == 3
        assert "subject s1, trial 17" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_a_truncated_subject_file_names_its_subject(self, manifest, tmp_path, capsys):
        path = manifest.parent / "s1.trials"
        path.write_bytes(path.read_bytes()[:-8])
        end = path.stat().st_size
        spec = write_spec(tmp_path / "spec.json", manifest)
        message = f"subject s1: payload ends at byte {end}, expected {end + 8}"
        for args in (["experiment", "--spec", str(spec), "--out", str(tmp_path / "r.csv")],
                     ["align", "--strategy", "ea", "--manifest", str(manifest),
                      "--out", str(tmp_path / "ea")]):
            assert main(args) == 3
            assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(TruncatedPayloadError, match=f"^{message}$") as err:
            run_scenario(load_scenario(spec))
        assert (err.value.offset, err.value.expected_size) == (end, end + 8)


class TestConfigErrorsComeFirst:
    """A configuration error is raised before any trial is read, or, for the
    CSP filter count against the channels, once the first subject is read."""

    @staticmethod
    def run_cli(spec, out):
        return main(["experiment", "--spec", str(spec), "--out", str(out)])

    @pytest.mark.parametrize("change, message", [
        ({"source_labels": [0], "target_labels": [2]}, "at least two classes"),
        ({"shrinkage": 1.5}, r"shrinkage must be in \[0, 1\), got 1.5"),
        ({"csp_pairs": 0}, "csp_pairs must be at least 1, got 0"),
    ])
    def test_a_bad_spec_fails_before_any_trial_is_read(
        self, manifest, tmp_path, monkeypatch, capsys, change, message
    ):
        spec = write_spec(tmp_path / "spec.json", manifest)
        spec.write_text(json.dumps({**json.loads(spec.read_text()), **change}))
        reads = []
        for reader in ("read_trials", "read_trial_blocks"):
            monkeypatch.setattr(dataio, reader, reads.append)
        with pytest.raises(ConfigError, match=message):
            load_scenario(spec)
        assert self.run_cli(spec, tmp_path / "r.csv") == 2
        assert re.search(message, capsys.readouterr().err)
        assert reads == [] and not (tmp_path / "r.csv").exists()

    def test_too_many_csp_pairs_fail_before_any_unit(
        self, manifest, tmp_path, monkeypatch, capsys
    ):
        spec = write_spec(tmp_path / "spec.json", manifest)
        spec.write_text(json.dumps({**json.loads(spec.read_text()), "csp_pairs": 3}))
        units = []
        monkeypatch.setattr(experiment, "_subject_unit", lambda *args: units.append(args))
        assert self.run_cli(spec, tmp_path / "r.csv") == 2
        # The manifest's trials have 4 channels: at most 2 pairs of filters.
        assert "csp_pairs 3 needs at least 6 channels, the trials have 4" in (
            capsys.readouterr().err
        )
        assert units == [] and not (tmp_path / "r.csv").exists()

    def test_too_many_csp_pairs_fail_after_the_first_subject_is_read(
        self, tmp_path, monkeypatch, capsys
    ):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({
            "channels": 6, "samples": 30, "classes": 4, "trials_per_class": 6,
            "subjects": 3, "class_separation": 1.0, "subject_shift": 0.5, "seed": 2,
        }))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == 0
        truncated = tmp_path / "d" / "s1.trials"
        truncated.write_bytes(truncated.read_bytes()[:100])
        spec = write_spec(tmp_path / "spec.json", tmp_path / "d" / "manifest.json")
        spec.write_text(json.dumps({**json.loads(spec.read_text()), "csp_pairs": 4}))
        reads = []

        def spy(path):
            reads.append(Path(path).name)
            return read_trial_blocks(path)

        monkeypatch.setattr(dataio, "read_trial_blocks", spy)
        capsys.readouterr()
        assert self.run_cli(spec, tmp_path / "r.csv") == 2
        assert "csp_pairs 4 needs at least 8 channels, the trials have 6" in (
            capsys.readouterr().err
        )
        assert reads == ["s0.trials"] and not (tmp_path / "r.csv").exists()

    def test_a_short_pool_fails_before_a_later_subject_is_read(
        self, manifest, tmp_path, monkeypatch, capsys
    ):
        path = manifest.parent / "s0.labels"
        write_labels(path, [*read_labels(path)[:-1], 0])  # s0 keeps 11 target trials
        truncated = manifest.parent / "s2.trials"
        truncated.write_bytes(truncated.read_bytes()[:100])
        spec = write_spec(tmp_path / "spec.json", manifest)
        spec.write_text(json.dumps({**json.loads(spec.read_text()), "k_grid": [2, 11]}))
        reads = []

        def spy(path):
            reads.append(Path(path).name)
            return read_trial_blocks(path)

        monkeypatch.setattr(dataio, "read_trial_blocks", spy)
        assert self.run_cli(spec, tmp_path / "r.csv") == 2
        assert "target subject s0 has 11" in capsys.readouterr().err
        assert reads == ["s0.trials"] and not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("relabel, k_max, code, message", [
        pytest.param(lambda labels: [*labels[:-1], 0], 11, 2,  # s1 keeps 11 target trials
                     "k_grid [2, 11] needs more than 11 trials in each target pool, "
                     "target subject s1 has 11", id="small-pool"),
        pytest.param(lambda labels: [1 if l == 3 else l for l in labels], 6, 3,
                     "target subject s1 has no trials for target labels [3]",
                     id="missing-label-before-its-6-trial-pool"),
    ])
    def test_a_target_pool_is_checked_after_its_labels_and_before_any_unit(
        self, manifest, tmp_path, monkeypatch, capsys, relabel, k_max, code, message
    ):
        path = manifest.parent / "s1.labels"
        write_labels(path, relabel(read_labels(path)))
        spec = write_spec(tmp_path / "spec.json", manifest)
        spec.write_text(json.dumps({**json.loads(spec.read_text()), "k_grid": [2, k_max]}))
        units = []
        monkeypatch.setattr(experiment, "_subject_unit", lambda *args: units.append(args))
        assert self.run_cli(spec, tmp_path / "r.csv") == code
        assert message in capsys.readouterr().err
        assert units == [] and not (tmp_path / "r.csv").exists()


@st.composite
def small_specs(draw):
    """A small synthetic scenario document, now and then an invalid one (one
    label, no CSP pair, full shrinkage, more CSP pairs than channels allow)."""
    classes = draw(st.integers(2, 4))
    channels = draw(st.integers(2, 5))
    rarely = st.integers(0, 9).map(lambda i: i == 5)
    n_labels = 1 if draw(rarely) else draw(st.integers(2, classes))
    return {
        "source_labels": draw(st.permutations(range(classes)))[:n_labels],
        "target_labels": draw(st.permutations(range(classes)))[:n_labels],
        "strategies": draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, unique=True)),
        "pipelines": draw(st.lists(st.sampled_from(PIPELINES), min_size=1, unique=True)),
        "k_grid": sorted(draw(st.sets(st.integers(1, 4), min_size=1, max_size=3))),
        "seed": draw(st.integers(0, 1000)),
        "csp_pairs": 0 if draw(rarely) else draw(st.integers(1, 3)),
        "shrinkage": 1.0 if draw(rarely) else draw(st.sampled_from([0.0, 0.1])),
        "synth": {
            "channels": channels, "samples": draw(st.integers(channels + 1, 24)),
            "classes": classes, "trials_per_class": draw(st.integers(2, 5)),
            "subjects": draw(st.integers(2, 3)), "class_separation": 1.0,
            "subject_shift": 0.5,
            "noise_df": draw(st.sampled_from([None, channels + 1, 2 * channels])),
        },
    }


class TestRandomSpecs:
    """Every small synthetic spec ends in a report without a NaN accuracy or
    AUC, or in a :class:`LabelAlignError`; a configuration error never
    surfaces once a unit has started, and no run prints anything."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=small_specs())
    def test_every_run_reports_or_raises_a_label_align_error(self, doc, capfd):
        started = []
        unit = experiment._subject_unit

        def spy(*args):
            started.append(args[-1])
            return unit(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiment, "_subject_unit", spy)
            try:
                report = run_scenario(experiment.scenario_from_dict(doc))
            except ConfigError as exc:
                assert not started, f"configuration error in a unit: {exc}"
            except LabelAlignError:
                pass
            else:
                values = [*report.accuracies.values(), *report.aucs.values()]
                assert values and not any(math.isnan(v) for v in values)
        assert capfd.readouterr().out == ""


# The patched fits reach the pool's workers only when they are forked.
needs_fork = pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork",
                                reason="the default start method is not fork")


class TestUnitErrorsNameTheirCell:
    """A data error raised in a unit is re-raised as the same type, with its
    attributes, prefixed with the subject, k and strategy of its cell, and
    with the pipeline when one pipeline's fit or predict raised it."""

    @staticmethod
    def la_spec(manifest, tmp_path):
        spec = write_spec(tmp_path / "spec.json", manifest)
        spec.write_text(json.dumps({**json.loads(spec.read_text()), "strategies": ["la"]}))
        return spec

    @staticmethod
    def failing_mdm_fit(*args):
        raise MissingClassError("injected", 7)

    @needs_fork
    def test_the_cli_message_is_the_same_under_a_pool(self, manifest, tmp_path, monkeypatch,
                                                      capsys):
        monkeypatch.setattr(classifiers, "mdm_fit", self.failing_mdm_fit)
        spec = self.la_spec(manifest, tmp_path)
        errs = []
        for jobs in ("1", "2"):  # the second run starts two real worker processes
            out = tmp_path / f"r{jobs}.csv"
            assert main(["experiment", "--spec", str(spec), "--out", str(out),
                         "--jobs", jobs]) == 3
            errs.append(capsys.readouterr().err)
            assert not out.exists()
        assert errs == ["error: subject s0, k 2, la/mdm: injected\n"] * 2

    @needs_fork
    def test_the_error_keeps_its_type_and_attributes_through_the_pool(
        self, manifest, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(classifiers, "mdm_fit", self.failing_mdm_fit)
        with pytest.raises(MissingClassError) as info:
            run_scenario(load_scenario(self.la_spec(manifest, tmp_path)), jobs=2)
        assert str(info.value) == "subject s0, k 2, la/mdm: injected"
        assert info.value.label == 7

    @needs_fork
    @pytest.mark.parametrize("name, where", [
        ("pairwise_distances", "subject s0"),
        ("target_roots", "subject s0, k 2"),
    ])
    def test_an_error_before_any_cell_names_its_subject_and_k(
        self, manifest, tmp_path, monkeypatch, capsys, name, where
    ):
        def failing(*args):
            raise NotPositiveDefiniteError("injected")

        monkeypatch.setattr(experiment, name, failing)
        spec = self.la_spec(manifest, tmp_path)
        with pytest.raises(NotPositiveDefiniteError, match=f"^{where}: injected$"):
            run_scenario(load_scenario(spec))
        errs = []
        for jobs in ("1", "2"):  # the second run starts two real worker processes
            out = tmp_path / f"r{jobs}.csv"
            assert main(["experiment", "--spec", str(spec), "--out", str(out),
                         "--jobs", jobs]) == 3
            errs.append(capsys.readouterr().err)
            assert not out.exists()
        assert errs == [f"error: {where}: injected\n"] * 2

    def test_an_alignment_error_names_the_cell_without_a_pipeline(
        self, manifest, tmp_path, monkeypatch
    ):
        def failing_align(*args):
            raise NotPositiveDefiniteError("injected")

        monkeypatch.setattr(experiment, "align", failing_align)
        with pytest.raises(NotPositiveDefiniteError, match=r"^subject s0, k 2, la: injected$"):
            run_scenario(load_scenario(self.la_spec(manifest, tmp_path)))


def owner(data):
    """A weak reference to the array that owns a subject's trial data."""
    return weakref.ref(data if data.base is None else data.base)


STREAMED_PAYLOAD = 64 * 8 * 2000 * 8  # a streamed_dataset subject's trials: 8 MiB


@pytest.fixture(scope="module")
def streamed_dataset(tmp_path_factory):
    """A synth config of three subjects, each a payload far above one block,
    and the manifest of the dataset that ``labelalign synth`` writes from it."""
    d = tmp_path_factory.mktemp("streamed")
    config = d / "synth.json"
    config.write_text(json.dumps({
        "channels": 8, "samples": 2000, "classes": 4, "trials_per_class": 16,
        "subjects": 3, "class_separation": 1.0, "subject_shift": 0.5, "seed": 5,
    }))
    assert main(["synth", "--config", str(config), "--out", str(d / "data")]) == 0
    return config, d / "data" / "manifest.json"


class TestOneSubjectAtATime:
    """The harness holds at most one subject's raw trials: a manifest
    subject's trial file is read in blocks into one buffer, which is dead
    before the next subject's file is opened, and a generated subject's
    trials are dead before the next subject's are generated."""

    def test_manifest_run(self, manifest, tmp_path, monkeypatch):
        buffers = []  # a weak reference to the buffer of each block read

        def watched(blocks):
            for rows, block in blocks:
                buffers.append(owner(block))
                yield rows, block

        def spy(path):
            assert all(ref() is None for ref in buffers), "an earlier subject is still held"
            trials = read_trial_blocks(path)
            return replace(trials, blocks=watched(trials.blocks))

        monkeypatch.setattr(dataio, "read_trial_blocks", spy)
        run_scenario(load_scenario(write_spec(tmp_path / "spec.json", manifest)))
        assert len(buffers) == 3  # a subject of 24 trials of 4 x 40 fits one block

    def test_a_single_subject_fails_before_any_trial_is_read(
        self, manifest, tmp_path, monkeypatch
    ):
        write_manifest(manifest, 100.0, range(4), [("s0", "s0.trials", "s0.labels")])
        reads = []
        for reader in ("read_trials", "read_trial_blocks"):
            monkeypatch.setattr(dataio, reader, reads.append)
        spec = load_scenario(write_spec(tmp_path / "spec.json", manifest))
        with pytest.raises(ConfigError, match="at least two subjects"):
            run_scenario(spec)
        assert reads == []

    def test_synth_peaks_within_one_generated_subject(self, streamed_dataset, tmp_path):
        # The subject being written and the generator's scratch for one batch:
        # 1.08 payloads measured with numpy 2.4. A generator that keeps the
        # previous subject's array until the next one is allocated peaks at 2.04.
        config, _ = streamed_dataset
        out = tmp_path / "d"
        assert traced_peak(lambda: main(["synth", "--config", str(config),
                                         "--out", str(out)])) < 1.2 * STREAMED_PAYLOAD

    def test_a_subject_stack_is_dead_once_its_domains_are_built(
        self, manifest, tmp_path, monkeypatch
    ):
        stacks = []

        def spy(name, *args):
            if name == "s2":
                assert stacks[0]() is None, "the first subject's stack is still held"
            stack = subject_stack(name, *args)
            stacks.append(weakref.ref(stack.covs))
            return stack

        monkeypatch.setattr(experiment, "subject_stack", spy)
        run_scenario(load_scenario(write_spec(tmp_path / "spec.json", manifest)))
        assert len(stacks) == 3


def traced_peak(fn) -> int:
    """The tracemalloc peak of ``fn()``, run once untraced first so that the
    modules it imports lazily are not counted."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedSubjects:
    """The harness reads a manifest subject's trial file one block at a time,
    so estimating the subjects' stacks never holds a subject's trials."""

    def test_the_domain_pass_peaks_below_one_subject_payload(self, tmp_path):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({
            "channels": 4, "samples": 2000, "classes": 4, "trials_per_class": 6,
            "subjects": 3, "class_separation": 1.0, "subject_shift": 0.5, "seed": 5,
        }))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == 0
        # csp-lda, so that the scatter is estimated from the same blocks.
        spec = load_scenario(write_spec(tmp_path / "spec.json", tmp_path / "d" / "manifest.json"))
        payload = 24 * 4 * 2000 * 8  # 1.5 MB, 12 blocks of 2 trials each

        def domain_pass():
            names, subjects = experiment._open_subjects(spec)
            return scenario_domains(spec, names, subjects)

        # Read whole, one subject's trials alone would take the whole payload.
        # Read in blocks, the peak is one block's buffer (128 KiB), its centred
        # copy and the estimate's scratch: 0.39 MB measured with numpy 2.4.
        assert traced_peak(domain_pass) < payload / 3


class TestAlignMemory:
    """``labelalign align`` holds a block of one subject's trials, not the
    subject: it reads, aligns and writes each subject a block at a time."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_align_peaks_below_a_quarter_of_a_subject_payload(
        self, streamed_dataset, tmp_path, strategy
    ):
        # Measured with numpy 2.4: 0.02 / 0.05 / 0.07 payloads under raw / ea /
        # la, a block's buffer and its aligned copy beside the first pass's
        # stacks. A subject read whole takes 1 payload, and a copy of an LA
        # source's kept rows 0.5.
        _, manifest = streamed_dataset
        args = ["align", "--strategy", strategy, "--manifest", str(manifest),
                "--out", str(tmp_path / "aligned")]
        if strategy == "la":
            args += ["--target-subject", "s0", "--source-labels", "0,1",
                     "--target-labels", "2,3", "-k", "4"]
        assert traced_peak(lambda: main(args)) < STREAMED_PAYLOAD / 4


class TestTrainBuffer:
    """A unit trains every (k, strategy) cell from one buffer: the aligned
    source rows, then the labeled target rows, with the logs of every row."""

    @staticmethod
    def stack(rng, n, label):
        covs = np.stack([random_spd(rng, 4) for _ in range(n)])
        return CovStack(covs, np.full(n, label), covs + np.eye(4))

    def test_rows_are_sources_then_labeled_with_their_logs(self):
        rng = np.random.default_rng(61)
        sources = [domain(self.stack(rng, n, label), source=True)
                   for n, label in ((7, 0), (5, 1))]
        labeled = self.stack(rng, 3, 2)
        buffer = experiment._train_buffer(sources, 3, logs=True)
        for k in (3, 1):  # a later cell rewrites the rows that it uses
            # A raw source carries its logs; an LA-aligned one does not.
            pieces = [sources[0].stack.with_logs(), sources[1].stack,
                      labeled.take(np.arange(k)).with_logs()]
            train = buffer.take(slice(0, buffer.write(0, pieces)))
            assert all(np.shares_memory(got, rows)
                       for got, rows in zip(vars(train).values(), vars(buffer).values()))
            assert train.labels.tolist() == [0] * 7 + [1] * 5 + [2] * k
            for field_name in ("covs", "scatter"):
                assert np.array_equal(getattr(train, field_name), np.concatenate(
                    [getattr(piece, field_name) for piece in pieces]))
            assert np.array_equal(train.logs, spd_log(train.covs))

    def test_a_buffer_holds_only_the_fields_that_a_cell_reads(self):
        rng = np.random.default_rng(62)
        stack = self.stack(rng, 6, 0)
        for scatter in (stack.scatter, None):
            sources = [domain(replace(stack, scatter=scatter), source=True)]
            buffer = experiment._train_buffer(sources, 2, logs=False)
            train = buffer.take(slice(0, buffer.write(0, [sources[0].stack])))
            assert train.logs is None and (train.scatter is None) == (scatter is None)
            assert np.array_equal(train.covs, stack.covs)

    def test_a_unit_holds_one_training_stack(self):
        # Nine sources, so that one source's temporaries are small beside the
        # training stack. Beside the buffer, the unit holds its scratch: LA
        # aligns and logs one chunk of source rows at a time into the buffer,
        # and MDM copies one class's logs at a time. The peak measured with
        # numpy 2.4 is 1.43 training stacks, so the bound leaves a margin of
        # 0.07. LA's aligned source stacks, all held until they were in the
        # buffer, took it to 1.85.
        spec = experiment.scenario_from_dict({
            "source_labels": [0, 1], "target_labels": [2, 3], "strategies": ["la"],
            "pipelines": ["mdm"], "k_grid": [4],
            "synth": {"channels": 8, "samples": 24, "classes": 4, "trials_per_class": 20,
                      "subjects": 10, "class_separation": 1.0, "subject_shift": 0.5,
                      "seed": 3},
        })
        names, subjects = experiment._open_subjects(spec)
        domains = scenario_domains(spec, names, subjects)
        peak = traced_peak(lambda: experiment._subject_unit(spec, names, domains, 0))
        rows = sum(len(source.stack.covs) for source, _ in domains[1:]) + 4
        training_stack = rows * (2 * 8 * 8 * 8 + 8)  # covariances, logs and a label
        assert peak < 1.5 * training_stack


class TestJsonReport:
    def test_undefined_t_test_round_trips_as_null(self, tmp_path):
        report = ExperimentReport(
            accuracies={("s0", 2, "raw", "mdm"): 0.5, ("s1", 2, "raw", "mdm"): 0.75},
            aucs={("s0", "raw", "mdm"): 1.0},
            ttests={
                ("ea", "mdm", "raw", "mdm"): (float("nan"), float("nan")),
                ("la", "mdm", "raw", "mdm"): (2.5, 0.125),
            },
            metadata={"seed": 3, "ea_fallbacks": [["s0", 2]]},
        )
        path = tmp_path / "report.json"
        emit_report(report, path)

        def reject(constant):
            raise ValueError(f"invalid JSON constant {constant}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        assert doc["ttest"][0][4:] == [None, None]
        back = read_report(path)
        assert back.accuracies == report.accuracies
        assert back.aucs == report.aucs
        assert back.metadata == report.metadata
        t, p = back.ttests[("ea", "mdm", "raw", "mdm")]
        assert math.isnan(t) and math.isnan(p)
        assert back.ttests[("la", "mdm", "raw", "mdm")] == (2.5, 0.125)

    def test_golden_report_round_trips_through_json(self, tmp_path):
        report = read_report(FIXTURES / "golden_report.csv")
        emit_report(report, tmp_path / "golden.json")
        assert read_report(tmp_path / "golden.json") == report

    @pytest.mark.parametrize("suffix, fmt", [(".json", "json"), (".csv", "csv"), (".txt", "csv")])
    def test_the_path_chooses_the_format(self, tmp_path, suffix, fmt):
        # read_report sniffs the content, so the written bytes are checked here.
        path = tmp_path / f"report{suffix}"
        emit_report(read_report(FIXTURES / "golden_report.csv"), path)
        text = path.read_text()
        if fmt == "json":
            json.loads(text, parse_constant=lambda c: pytest.fail(f"invalid JSON constant {c}"))
        else:
            assert text.splitlines()[0] == "subject,k,strategy,pipeline,accuracy"
        assert text == (FIXTURES / f"golden_report.{fmt}").read_text()


# Subject names and metadata keys may hold anything but the CSV separators.
names = st.text(
    st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters=","), max_size=8
)
strategy = st.sampled_from(STRATEGIES)
pipeline = st.sampled_from(PIPELINES)
finite = st.floats(allow_nan=False, allow_infinity=False)
reports = st.builds(
    ExperimentReport,
    accuracies=st.dictionaries(
        st.tuples(names, st.integers(1, 1000), strategy, pipeline), st.floats(0.0, 1.0),
        max_size=4,
    ),
    aucs=st.dictionaries(st.tuples(names, strategy, pipeline), finite, max_size=4),
    ttests=st.dictionaries(
        st.tuples(strategy, pipeline, strategy, pipeline),
        st.one_of(st.tuples(finite, st.floats(0.0, 1.0)), st.just((math.nan, math.nan))),
        max_size=4,
    ),
    metadata=st.dictionaries(
        names, st.one_of(st.integers(), names, st.lists(st.one_of(names, st.integers()))),
        max_size=3,
    ),
)


def canonical(report):
    """The report with every float as its repr, so that nan equals nan."""
    return (
        {k: repr(v) for k, v in report.accuracies.items()},
        {k: repr(v) for k, v in report.aucs.items()},
        {k: tuple(map(repr, v)) for k, v in report.ttests.items()},
        report.metadata,
    )


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reports")


class TestReportRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @settings(max_examples=10, deadline=None)
    @given(report=reports)
    def test_emit_then_read_is_identity(self, report_dir, fmt, report):
        path = report_dir / f"report.{fmt}"
        emit_report(report, path)
        assert canonical(read_report(path)) == canonical(report)

    def test_a_subject_name_with_a_comma_round_trips_through_csv(self, manifest, tmp_path):
        rename_subject(manifest, "s1", "a,b")
        out = tmp_path / "r.csv"
        spec = write_spec(tmp_path / "spec.json", manifest)
        assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
        report = read_report(out)
        assert {key[0] for key in report.accuracies} == {"s0", "a,b", "s2"}
        assert canonical(report) == canonical(run_scenario(load_scenario(spec)))

    def test_a_subject_name_with_a_carriage_return_exits_3(self, manifest, tmp_path, capsys):
        rename_subject(manifest, "s1", "a\rb")
        out = tmp_path / "r.csv"
        spec = write_spec(tmp_path / "spec.json", manifest)
        assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 3
        assert "subject name 'a\\rb' may not contain line breaks" in capsys.readouterr().err
        assert not out.exists()


class TestSubjectNames:
    """A manifest's subject names are distinct plain file names: ``align``
    writes ``<out>/<name>.trials`` and a report keys its rows by name."""

    def test_a_name_listed_twice_exits_3(self, manifest, tmp_path, capsys):
        rename_subject(manifest, "s1", "s0")
        spec = write_spec(tmp_path / "spec.json", manifest)
        out = tmp_path / "out"
        assert main(["experiment", "--spec", str(spec), "--out", str(out / "r.csv")]) == 3
        assert main(["align", "--strategy", "raw", "--manifest", str(manifest),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count(f"{manifest}: subject name 's0' is listed twice") == 2
        assert not out.exists()

    @pytest.mark.parametrize("name", [5, None, ["s1"]], ids=["int", "null", "list"])
    def test_align_rejects_a_name_that_is_not_a_string(self, manifest, tmp_path, capsys, name):
        rename_subject(manifest, "s1", name)
        out = tmp_path / "out"
        assert main(["align", "--strategy", "raw", "--manifest", str(manifest),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{manifest}: subjects[1].name must be a non-empty string, got {name!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "s\u0000x", ""],
                             ids=["parent", "slash", "backslash", "nul", "empty"])
    def test_align_rejects_a_name_that_is_not_a_plain_file_name(
        self, manifest, tmp_path, capsys, name
    ):
        rename_subject(manifest, "s1", name)
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "out" / "aligned"
        assert main(["align", "--strategy", "raw", "--manifest", str(manifest),
                     "--out", str(out)]) == 3
        assert f"subject name {name!r} is not a plain file name" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before  # nothing written, inside or outside out


def short_accuracy_row(text):
    lines = text.split("\n")
    lines[1] = lines[1].rsplit(",", 1)[0]
    return "\n".join(lines)


def k_as_a_word(text):
    lines = text.split("\n")
    lines[1] = lines[1].replace(",2,", ",two,", 1)
    return "\n".join(lines)


def without_auc(text):
    doc = json.loads(text)
    del doc["auc"]
    return json.dumps(doc)


@pytest.mark.parametrize("fmt, corrupt, message", [
    ("csv", short_accuracy_row, r"accuracy row 1 .*expected the 5 columns"),
    ("csv", k_as_a_word, r"accuracy row 1 .*'two'"),
    ("json", without_auc, r"no 'auc' section"),
], ids=["short-accuracy-row", "k-as-a-word", "json-without-auc"])
def test_malformed_report_raises_config_error(tmp_path, fmt, corrupt, message):
    path = tmp_path / f"report.{fmt}"
    path.write_text(corrupt((FIXTURES / f"golden_report.{fmt}").read_text()))
    with pytest.raises(ConfigError, match=message):
        read_report(path)


def congruence_problem(seed):
    """Train and test covariance stacks of a 3-class synthetic subject."""
    cfg = SynthConfig(channels=4, samples=60, classes=3, trials_per_class=8, subjects=1,
                      class_separation=1.0, subject_shift=0.0, seed=seed, noise_df=8)
    stack = covariance_stack(*first_subject(cfg))
    train = np.arange(len(stack.covs)) % 2 == 0
    return stack.take(train), stack.take(~train)


class TestPipelineCongruence:
    """Geometry-aware pipelines predict the same under a common change of basis.

    The Log-Euclidean mean is equivariant under orthogonal congruences and
    positive scalings, but not under a general invertible one, so neither
    are the pipelines built on it.
    """

    @pytest.mark.parametrize("pipe", ["mdm", "ts-lda", "ts-svm"])
    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_common_rotation(self, pipe, seed):
        train, test = congruence_problem(seed)
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
        expected = fit_predict(pipe, train, test, csp_pairs=DEFAULT_CSP_PAIRS)
        rotated = fit_predict(pipe, train.transformed(q), test.transformed(q),
                              csp_pairs=DEFAULT_CSP_PAIRS)
        assert rotated == expected

    @pytest.mark.parametrize("pipe", ["mdm", "ts-lda"])
    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
    def test_common_positive_scaling(self, pipe, seed, scale):
        train, test = congruence_problem(seed)
        a = np.sqrt(scale) * np.eye(4)
        expected = fit_predict(pipe, train, test, csp_pairs=DEFAULT_CSP_PAIRS)
        scaled = fit_predict(pipe, train.transformed(a), test.transformed(a),
                             csp_pairs=DEFAULT_CSP_PAIRS)
        assert scaled == expected


class TestCli:
    @staticmethod
    def la_args(manifest, out):
        return ["align", "--strategy", "la", "--manifest", str(manifest), "--out", str(out),
                "--target-subject", "s0", "--source-labels", "0,1",
                "--target-labels", "2,3", "-k", "6"]

    def test_align_la_writes_relabeled_sources(self, manifest, tmp_path):
        out = tmp_path / "aligned"
        assert main(self.la_args(manifest, out)) == 0
        aligned = read_subjects(out / "manifest.json")
        assert sorted(set(aligned[0][1].tolist())) == [0, 1, 2, 3]  # target untouched
        for data, labels in aligned[1:]:
            assert len(data) == 12
            assert sorted(set(labels.tolist())) == [2, 3]

    def test_align_la_bad_config_exits_2(self, manifest, tmp_path, capsys):
        for flag in ("--source-labels", "--target-labels"):
            args = self.la_args(manifest, tmp_path / "aligned")
            args[args.index(flag) + 1] = "2,x"
            with pytest.raises(SystemExit) as exited:  # argparse rejects the value
                main(args)
            assert exited.value.code == 2
            assert "Traceback" not in capsys.readouterr().err
        args = self.la_args(manifest, tmp_path / "aligned")
        i = args.index("--target-subject")
        assert main(args[:i] + args[i + 2:]) == 2
        args[i + 1] = "nobody"
        assert main(args) == 2

    def test_align_la_k_below_one_exits_2_before_any_file_is_read(
            self, manifest, tmp_path, capsys):
        (manifest.parent / "s1.trials").unlink()
        args = self.la_args(manifest, tmp_path / "aligned")
        assert main(args) == 3  # a valid -k meets the missing file
        args[args.index("-k") + 1] = "0"
        assert main(args) == 2
        assert "-k must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "aligned").exists()

    def test_align_la_writes_the_harness_la_stacks(self, manifest, tmp_path):
        spec = load_scenario(write_spec(tmp_path / "spec.json", manifest))
        out = tmp_path / "aligned"
        assert main(self.la_args(manifest, out)) == 0  # target s0, k = 6
        written = [covariance_stack(*subject)
                   for subject in read_subjects(out / "manifest.json")[1:]]

        names, subjects = experiment._open_subjects(spec)
        domains = scenario_domains(spec, names, subjects)
        pool = domains[0][1].stack
        medoids = k_medoids(pairwise_distances(pool.covs), 6)
        roots = target_roots(pool.take(medoids), 2)
        expected, _ = align_sources("la", [d for d, _ in domains[1:]], domains[0][1], roots)
        assert len(written) == len(expected) == 2
        for got, want in zip(written, expected):
            assert np.array_equal(got.labels, want.labels)
            assert np.max(np.abs(got.covs - want.covs)) <= 1e-10 * np.max(np.abs(want.covs))

    def test_align_la_duplicate_labels_exit_2(self, manifest, tmp_path, capsys):
        args = self.la_args(manifest, tmp_path / "aligned")
        args[args.index("--source-labels") + 1] = "0,0,1"
        args[args.index("--target-labels") + 1] = "2,3,3"
        assert main(args) == 2
        assert "duplicate source labels: (0, 0, 1)" in capsys.readouterr().err
        args[args.index("--source-labels") + 1] = "0,1,2"
        assert main(args) == 2
        assert "duplicate target labels: (2, 3, 3)" in capsys.readouterr().err
        assert not (tmp_path / "aligned").exists()

    def test_align_la_whitens_nothing(self, manifest, tmp_path, monkeypatch):
        calls = []

        def spy(covs):
            calls.append(covs)
            return ea_reference(covs)

        for module in (alignment, cli):
            monkeypatch.setattr(module, "ea_reference", spy)
        assert main(self.la_args(manifest, tmp_path / "aligned")) == 0
        assert calls == []

    def test_kmedoids(self, manifest, capsys):
        trials = str(manifest.parent / "s0.trials")
        assert main(["kmedoids", "--trials", trials, "-k", "3"]) == 0
        medoids = [int(line) for line in capsys.readouterr().out.split()]
        assert len(medoids) == 3 and medoids == sorted(medoids)
        assert main(["kmedoids", "--trials", trials, "-k", "100"]) == 2

    def test_align_la_names_the_degenerate_subject_and_trial(self, manifest, tmp_path, capsys):
        zero_channel(manifest, "s1", 5, 2)
        assert main(self.la_args(manifest, tmp_path / "aligned")) == 3
        assert "subject s1, trial 5: smallest eigenvalue" in capsys.readouterr().err

    def test_align_ea_names_the_degenerate_subject(self, manifest, tmp_path, capsys):
        zero_channel(manifest, "s2", 0, 1)
        args = ["align", "--strategy", "ea", "--manifest", str(manifest),
                "--out", str(tmp_path / "aligned")]
        assert main(args) == 3
        assert "subject s2, trial 0" in capsys.readouterr().err

    def test_align_ea_names_an_empty_subject(self, manifest, tmp_path, capsys):
        # A trial file may hold zero trials; write_trials refuses to make one.
        (manifest.parent / "s1.trials").write_bytes(b"EEGT\x01" + struct.pack("<III", 4, 40, 0))
        write_labels(manifest.parent / "s1.labels", [])
        args = ["align", "--strategy", "ea", "--manifest", str(manifest),
                "--out", str(tmp_path / "aligned")]
        assert main(args) == 3
        assert "subject s1, no trials" in capsys.readouterr().err

    def test_align_la_source_without_source_labels_exits_3(self, manifest, tmp_path, capsys):
        relabel_subject(manifest, "s1", {0: 2, 1: 3})
        assert main(self.la_args(manifest, tmp_path / "aligned")) == 3
        assert "source subject s1 has no trials for source labels [0, 1]" in (
            capsys.readouterr().err
        )

    def test_failed_align_leaves_no_output_directory(self, manifest, tmp_path):
        relabel_subject(manifest, "s1", {0: 2, 1: 3})
        out = tmp_path / "aligned"
        assert main(self.la_args(manifest, out)) == 3
        assert not out.exists()

    @pytest.mark.parametrize("fault, message", [
        ("bad magic", "bad magic b'EEGX'"),
        ("no trials", "subject s2, no trials"),
    ])
    def test_failed_raw_align_leaves_no_output_directory(self, manifest, tmp_path, capsys,
                                                         fault, message):
        # The last subject fails its check after the others passed theirs.
        path = manifest.parent / "s2.trials"
        if fault == "bad magic":
            path.write_bytes(b"EEGX" + path.read_bytes()[4:])
        else:
            path.write_bytes(b"EEGT\x01" + struct.pack("<III", 4, 40, 0))
            write_labels(manifest.parent / "s2.labels", [])
        args = ["align", "--strategy", "raw", "--manifest", str(manifest),
                "--out", str(tmp_path / "aligned")]
        assert main(args) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "aligned").exists()

    @staticmethod
    def align_args(strategy, manifest, out):
        if strategy == "la":
            return TestCli.la_args(manifest, out)
        return ["align", "--strategy", strategy, "--manifest", str(manifest), "--out", str(out)]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("fault", ["truncated", "nan"])
    def test_a_file_changed_after_the_first_pass_fails_its_write(
        self, manifest, tmp_path, monkeypatch, capsys, strategy, fault
    ):
        # The first pass checked s2's file; it changes before the second pass
        # reads it. A truncation is found when the file is opened, a NaN while
        # its blocks are written.
        path = manifest.parent / "s2.trials"
        fit_subjects = cli._fit_subjects

        def spy(*args):
            fits = fit_subjects(*args)
            if fault == "truncated":
                path.write_bytes(path.read_bytes()[:-8])
            else:
                with path.open("r+b") as f:
                    f.seek(HEADER_SIZE + 8 * 50)
                    f.write(struct.pack("<d", np.nan))
            return fits

        monkeypatch.setattr(cli, "_fit_subjects", spy)
        out = tmp_path / "aligned"
        assert main(self.align_args(strategy, manifest, out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: subject s2: ") and err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == [
            "s0.labels", "s0.trials", "s1.labels", "s1.trials"]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_align_refuses_an_out_that_holds_its_input(self, manifest, tmp_path, capsys, strategy):
        # The trial and label files in one directory, the manifest in another.
        doc = json.loads(manifest.read_text())
        for entry in doc["subjects"]:
            entry["trials"], entry["labels"] = (f"../{entry[f]}" for f in ("trials", "labels"))
        (tmp_path / "meta").mkdir()
        moved = tmp_path / "meta" / "manifest.json"
        moved.write_text(json.dumps(doc))
        (tmp_path / "link").symlink_to(tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        for meta, out in ((manifest, tmp_path / "link"), (moved, tmp_path / "meta" / ".."),
                          (moved, tmp_path / "meta")):
            assert main(self.align_args(strategy, meta, out)) == 2
            err = capsys.readouterr().err
            assert err == f"error: --out {out} holds files of the dataset that it would align\n"
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    # The sha256 of every file align writes on the ``manifest`` fixture; the
    # label files of s0 (and of every subject under raw and ea) are 4 x 6 labels.
    ALIGN_DIGESTS = {
        "raw": {
            "s0.trials": "f00458043b5fa98509bc757eaba50fde143617ead95b2cd76adf7efe4a8e740c",
            "s1.trials": "529457b0a3a7c21ec216388c5600f3941ca5c01c5479ba336159937d25e88fc2",
            "s2.trials": "592a3fa45457cab7d99f130055a67d7324c282f958a1aaed2aa34bda477f9eae",
        },
        "ea": {
            "s0.trials": "8718ed610880daf20f25127689ddac48ec1a5fa77f5f2a37fe3ac33cedc38f97",
            "s1.trials": "d8fd0a479385af3564b65ca8c40804891b599c50b6816440b88d2c49b0da13ba",
            "s2.trials": "9a44d4f24b6fb7c806f5ef0015b630be19676cbdc91ca246067d3eee61e7398e",
        },
        "la": {
            "s0.trials": "f00458043b5fa98509bc757eaba50fde143617ead95b2cd76adf7efe4a8e740c",
            "s1.labels": "9a73b812bea52fb83b94a6b1cc40ca3592eb71ee057a0d05de2bfce9f718d140",
            "s1.trials": "522f4ece30e0a2da86f09e53b817e69038d4a91f60362a3d59071d6574a50d92",
            "s2.labels": "9a73b812bea52fb83b94a6b1cc40ca3592eb71ee057a0d05de2bfce9f718d140",
            "s2.trials": "9451704438cb7de50296e0ca7a8edab9a7ebbccf47bf439ecf9626d0fdc77ba4",
        },
    }
    UNCHANGED_DIGESTS = {
        "manifest.json": "4f5eb52e767c7986256ccfd02b92a9817ea8363ee7c346f3eebe95f826beb5df",
        **{f"s{i}.labels": "48fbbc0e8a3e3f569732e14d508eb8c0d424a6d323a1a033ed0a7f7071cdce1b"
           for i in range(3)},
    }

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_align_writes_the_pinned_files(self, manifest, tmp_path, strategy):
        out = tmp_path / "aligned"
        assert main(self.align_args(strategy, manifest, out)) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert written == {**self.UNCHANGED_DIGESTS, **self.ALIGN_DIGESTS[strategy]}

    def test_experiment_subject_without_source_labels_exits_3(self, manifest, tmp_path, capsys):
        # The same data condition as in align, with the same exit code.
        relabel_subject(manifest, "s1", {0: 2, 1: 3})
        spec = write_spec(tmp_path / "spec.json", manifest)
        assert main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == 3
        assert "subject s1 has no trials for source labels [0, 1]" in capsys.readouterr().err

    def test_experiment_target_without_a_target_label_exits_3(self, manifest, tmp_path, capsys):
        # Run anyway, LA would fall back to EA in every cell of s1 and its
        # test sets would hold one class.
        relabel_subject(manifest, "s1", {3: 2})
        spec = write_spec(tmp_path / "spec.json", manifest)
        assert main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == 3
        assert "target subject s1 has no trials for target labels [3]" in (
            capsys.readouterr().err
        )

    def test_align_la_target_without_target_labels_exits_3(self, manifest, tmp_path, capsys):
        relabel_subject(manifest, "s0", {2: 0, 3: 1})
        assert main(self.la_args(manifest, tmp_path / "aligned")) == 3
        assert "target subject s0 has no trials for target labels [2, 3]" in (
            capsys.readouterr().err
        )

    def test_missing_input_files(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        nope = str(tmp_path / "nope")
        assert main(["experiment", "--spec", nope, "--out", out]) == 2
        assert main(["synth", "--config", nope, "--out", out]) == 2
        assert main(["kmedoids", "--trials", nope, "-k", "2"]) == 3
        assert main(["align", "--strategy", "raw", "--manifest", nope, "--out", out]) == 3
        assert main(["classify", "--pipeline", "mdm", "--train-trials", nope,
                     "--train-labels", nope, "--test-trials", nope]) == 3
        err = capsys.readouterr().err
        assert err.count("No such file or directory") == 5
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,value", [
        ("k_grid", 4),
        ("source_labels", 0),
        ("csp_pairs", "three"),
        ("synth", [1, 2]),
        ("svm_lambda", 1e-3),
        ("svm_epochs", 40),
        ("source_labels", [0, 0]),
        ("target_labels", [2, 3, 1]),
        ("k_grid", [2.9, 4]),
        ("k_grid", [True, 4]),
        ("source_labels", [0.9, 1]),
        ("target_labels", [2, 3.0]),
        ("seed", 1.5),
        ("seed", "1"),
        ("csp_pairs", True),
        ("csp_pairs", 1.0),
        ("strategies", ["raw", "raw"]),
        ("pipelines", ["mdm", "csp-lda", "mdm"]),
    ])
    def test_malformed_spec_exits_2(self, manifest, tmp_path, field, value):
        spec = write_spec(tmp_path / "spec.json", manifest)
        assert main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == 0
        doc = json.loads(spec.read_text())
        doc[field] = value
        spec.write_text(json.dumps(doc))
        assert main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == 2

    def test_synth(self, tmp_path):
        cfg = {"channels": 3, "samples": 20, "classes": 2, "trials_per_class": 3,
               "subjects": 2, "class_separation": 1.0, "subject_shift": 0.5, "seed": 4}
        config = tmp_path / "synth.json"
        config.write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == 0
        subjects = read_subjects(tmp_path / "d" / "manifest.json")
        assert [len(data) for data, _ in subjects] == [6, 6]
        config.write_text(json.dumps({**cfg, "channels": 0}))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "e")]) == 2
        config.write_text(json.dumps({**cfg, "bands": 2}))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "e")]) == 2

    def test_a_synth_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte order mark
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load synth config {config}: ")
        assert "Traceback" not in err and not (tmp_path / "d").exists()

    def test_synth_to_an_unwritable_out_exits_2(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({
            "channels": 3, "samples": 20, "classes": 2, "trials_per_class": 3,
            "subjects": 2, "class_separation": 1.0, "subject_shift": 0.5, "seed": 4}))
        out = tmp_path / "taken"
        out.write_text("")  # a file where the directory would go
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: [Errno")

    def test_align_to_an_unwritable_out_exits_2(self, manifest, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")  # a file where the directory would go
        args = ["align", "--strategy", "ea", "--manifest", str(manifest), "--out", str(out)]
        assert main(args) == 2
        out.unlink()
        (out / "s1.trials").mkdir(parents=True)  # a directory where a subject's file would go
        assert main(args) == 2
        for err in capsys.readouterr().err.splitlines():
            assert err.startswith(f"error: cannot write {out}: [Errno")

    @pytest.mark.parametrize("field,value", [
        ("samples", 20.0), ("channels", True), ("seed", "4"), ("noise_df", 9.5),
    ])
    def test_synth_values_of_the_wrong_type_exit_2(self, tmp_path, capsys, field, value):
        cfg = {"channels": 3, "samples": 20, "classes": 4, "trials_per_class": 3,
               "subjects": 3, "class_separation": 1.0, "subject_shift": 0.5, "seed": 4,
               "noise_df": 5, field: value}
        config = tmp_path / "synth.json"
        config.write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == 2
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"source_labels": [0, 1], "target_labels": [2, 3],
                                    "pipelines": ["mdm"], "k_grid": [4], "synth": cfg}))
        report = tmp_path / "r.csv"
        assert main(["experiment", "--spec", str(spec), "--out", str(report)]) == 2
        assert not (tmp_path / "d").exists() and not report.exists()
        err = capsys.readouterr().err
        assert err.count(f"{field} must be an integer") == 2
        assert "Traceback" not in err

    def test_synth_writes_the_files_of_the_whole_dataset(self, tmp_path):
        cfg = {"channels": 3, "samples": 20, "classes": 2, "trials_per_class": 3,
               "subjects": 3, "class_separation": 1.0, "subject_shift": 0.5, "seed": 4,
               "noise_df": 5}
        config = tmp_path / "synth.json"
        config.write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == 0
        data = generate_synthetic(SynthConfig(**cfg))
        for i, trials in enumerate(data.subjects):
            write_trials(tmp_path / f"s{i}.trials", trials)
            write_labels(tmp_path / f"s{i}.labels", [t.label for t in trials])
            for ext in ("trials", "labels"):
                name = f"s{i}.{ext}"
                assert (tmp_path / "d" / name).read_bytes() == (tmp_path / name).read_bytes()
        parameters = {"prototypes": [p.tolist() for p in data.prototypes],
                      "shifts": [w.tolist() for w in data.shifts]}
        assert (tmp_path / "d" / "generator.json").read_text() == (
            json.dumps(parameters, sort_keys=True) + "\n"
        )

    def test_classify(self, manifest, capsys):
        d = manifest.parent
        args = ["classify", "--pipeline", "ts-lda",
                "--train-trials", str(d / "s1.trials"), "--train-labels", str(d / "s1.labels"),
                "--test-trials", str(d / "s2.trials"), "--test-labels", str(d / "s2.labels")]
        assert main(args) == 0
        assert capsys.readouterr().out.startswith("accuracy ")
        assert main(args + ["--shrinkage", "1.0"]) == 2

    @pytest.mark.parametrize("command", ["classify", "kmedoids"])
    def test_a_truncated_trial_file_is_named(self, manifest, capsys, command):
        d = manifest.parent
        path = d / "s2.trials"
        path.write_bytes(path.read_bytes()[:-8])
        end = path.stat().st_size
        if command == "classify":  # the fault is in the test file, not the training file
            args = ["classify", "--pipeline", "mdm", "--train-trials", str(d / "s1.trials"),
                    "--train-labels", str(d / "s1.labels"), "--test-trials", str(path)]
        else:
            args = ["kmedoids", "--trials", str(path), "-k", "3"]
        message = f"{path}: payload ends at byte {end}, expected {end + 8}"
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(TruncatedPayloadError, match=f"^{re.escape(message)}$") as err:
            cli._file_stack(str(path), None, 0.0)
        assert (err.value.offset, err.value.expected_size) == (end, end + 8)

    def test_the_read_path_builds_no_trial(self, manifest, tmp_path, monkeypatch):
        """A subject read from a manifest stays one array: neither the harness
        nor ``labelalign align`` wraps its trials in a ``Trial``."""
        built = []
        post_init = dataio.Trial.__post_init__
        monkeypatch.setattr(dataio.Trial, "__post_init__", lambda t: built.append(post_init(t)))
        run_scenario(load_scenario(write_spec(tmp_path / "spec.json", manifest)))
        counts = [len(built)]
        for args in (["align", "--strategy", "ea", "--manifest", str(manifest),
                      "--out", str(tmp_path / "ea")],
                     self.la_args(manifest, tmp_path / "la")):
            assert main(args) == 0
            counts.append(len(built) - sum(counts))
        assert counts == [0, 0, 0]
