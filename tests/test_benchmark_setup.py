"""The benchmark's set-up (``perfbench/run.py:build_dataset``) against ``src/``:
it writes the generator's subjects through ``labelalign.dataio``, and reading
the manifest back gives them bit for bit. The generated data of every
workload is pinned, so that the benchmark's timings compare identical data
across changes to the generator."""

import hashlib
import importlib
import importlib.util
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from labelalign import synth
from labelalign.dataio import load_manifest
from labelalign.experiment import load_scenario, run_scenario
from labelalign.report import render_report_csv
from labelalign.synth import SynthConfig, generate_synthetic

PERFBENCH = Path(__file__).parents[1] / "perfbench"
FIXTURES = Path(__file__).parent / "fixtures"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_run(monkeypatch):
    """``perfbench/run.py`` as a module; the BLAS variables it pins on import
    are put back after the test."""
    for var in BLAS_THREADS:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_build_dataset_round_trips_the_generated_subjects(monkeypatch, tmp_path):
    run = load_run(monkeypatch)
    workload = run.WORKLOADS["loso-c8-full"]
    run.build_dataset(workload, 1, tmp_path / "d")
    generated = generate_synthetic(SynthConfig(**workload.synth_fields(1))).subjects
    loaded = load_manifest(tmp_path / "d" / "manifest.json").iter_subjects()
    for want, (data, labels) in zip(generated, loaded, strict=True):
        assert [(l, x.tobytes()) for x, l in zip(data, labels.tolist(), strict=True)] == [
            (t.label, t.data.tobytes()) for t in want
        ]


# sha256 over every trial's data bytes and label byte, subject by subject, at
# each workload's default seed.
WORKLOAD_DIGESTS = {
    "loso-c8-full": "78d3df317ae948b631ea997d18befc77eceec82239af10795709f4f527a5d05e",
    "loso-c22-geom": "c4586de6eee12afc45c629e4ac3e1a1d50dd8a9ea59b329714d701652206a565",
    "loso-disk-jobs2": "2a335456c2d6a318c67b4a8f03201f59f832e53e191dc7e575c1f0cb6e40e92d",
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_workload_data_is_pinned(monkeypatch, name):
    workload = load_run(monkeypatch).WORKLOADS[name]
    cfg = SynthConfig(**workload.synth_fields(workload.seed))
    digest = hashlib.sha256()
    for trials in generate_synthetic(cfg).subjects:
        for t in trials:
            digest.update(t.data.tobytes() + bytes([t.label]))
    assert digest.hexdigest() == WORKLOAD_DIGESTS[name]


def test_the_generator_draws_its_parameters_once(monkeypatch):
    """On loso-c8-full (4 classes, 3 subjects) the prototypes and shifts take
    one key and one ``spd_exp`` each, and the trials reuse them: 7 keys, and
    35 eigensolves with the 4 prototype roots and 24 batched noise roots."""
    workload = load_run(monkeypatch).WORKLOADS["loso-c8-full"]
    calls = Counter()

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(synth, "derive_key", counted("derive_key", synth.derive_key))
    data = generate_synthetic(SynthConfig(**workload.synth_fields(workload.seed)))
    assert calls == {"eigh": 35, "derive_key": 7}
    assert len(data.prototypes) == 4 and len(data.shifts) == 3


def test_every_benchmark_metric_keeps_a_hook(monkeypatch):
    """``perfbench/spans.py`` wraps functions of ``src/`` by name and reports
    a per-layer metric as absent when every hook that feeds it has lost its
    target; the traced benchmark result then lacks that metric."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("spans").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent() == set()
    # The targets already gone, whose metrics other hooks still feed (the
    # ``*_predict_many`` functions and ``load_manifest``): no other may go.
    assert tracer.missing == [
        "labelalign.classifiers:svm_predict",
        "labelalign.classifiers:lda_predict",
        "labelalign.dataio:DatasetManifest.load_all",
    ]


def test_a_traced_golden_run_counts_in_every_hook_it_reaches(monkeypatch):
    """The hooks of ``perfbench/spans.py`` read their counts from the
    arguments of the functions they wrap, so a changed signature of a hooked
    function raises in its hook or counts nothing. The golden spec (all 12
    algorithms) reaches every counter below, and tracing changes no result."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("spans").Tracer()
    tracer.install()
    try:
        report = run_scenario(load_scenario(FIXTURES / "golden_spec.json"))
    finally:
        tracer.uninstall()
    assert render_report_csv(report) == (FIXTURES / "golden_report.csv").read_text()
    counts = {name: tracer.counts[name] for name in (
        "features.ts_features.vectors",
        "spd.eig.matrices",
        "spd.log_euclidean_mean.calls",
        "selection.pairwise_distances.pairs",
        "alignment.la_fit.calls",
        "spd.riemannian_distance.calls",
    )}
    assert all(count > 0 for count in counts.values()), counts
