"""The benchmark's set-up (``perfbench/run.py:build_dataset``) against ``src/``:
it writes the generator's subjects through ``labelalign.dataio``, and reading
the manifest back gives them bit for bit."""

import importlib.util
import os
from pathlib import Path

from labelalign.dataio import load_manifest
from labelalign.synth import SynthConfig, generate_synthetic

PERFBENCH = Path(__file__).parents[1] / "perfbench"
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
    for want, got in zip(generated, loaded, strict=True):
        assert [(t.label, t.data.tobytes()) for t in got] == [
            (t.label, t.data.tobytes()) for t in want
        ]
