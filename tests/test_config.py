"""A config is checked where it is built: every field of ``ScenarioSpec`` and
``SynthConfig`` by its JSON kind (``errors.require``), before any trial is
read or generated, and a generator config too large to run is refused."""

import json
import os
import re
import resource
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import pytest

from labelalign import cli, dataio, experiment, synth
from labelalign.cli import main
from labelalign.errors import ConfigError, require
from labelalign.experiment import STRATEGIES, ScenarioSpec, run_scenario, scenario_from_dict
from labelalign.synth import SynthConfig

NAN, INF = float("nan"), float("inf")
SYNTH = {"channels": 3, "samples": 20, "classes": 4, "trials_per_class": 3, "subjects": 3,
         "class_separation": 1.0, "subject_shift": 0.5, "seed": 4, "noise_df": 5}
SPEC = {"source_labels": [0, 1], "target_labels": [2, 3], "k_grid": [2],
        "strategies": ["raw", "la"], "pipelines": ["mdm"], "seed": 3, "synth": SYNTH,
        "csp_pairs": 1, "shrinkage": 0.0}

COUNT = ["3", 2.5, True, [3], None, NAN, INF, -INF, 10**30]
INT = ["3", 2.5, True, [3], None, NAN, INF, -INF]
FLOAT = ["0.1", True, [0.1], None, NAN, INF, -INF]
INTS = ["01", 5, None, NAN, [], [0, 1.5], [0, "1"], [True, 1]]
STRS = ["raw", 5, None, NAN, [], ["raw", 1], [""]]
# The wrong values of every field; None where the field's default is not None.
BAD = {
    "spec": {
        "source_labels": INTS, "target_labels": INTS, "k_grid": INTS,
        "strategies": STRS, "pipelines": STRS, "seed": INT, "csp_pairs": INT,
        "shrinkage": FLOAT, "synth": [5, "x", [1], [], NAN],
        "manifest": [5, [], "", NAN, True],
    },
    "synth": {
        "channels": COUNT, "samples": COUNT, "classes": COUNT, "trials_per_class": COUNT,
        "subjects": COUNT, "noise_df": ["5", 9.5, True, [9], NAN, INF, 10**30],
        "class_separation": FLOAT, "subject_shift": FLOAT, "seed": INT,
    },
}
CASES = [(block, name, value) for block, table in BAD.items()
         for name, values in table.items() for value in values]


def spec_with(block, name, value):
    doc = {**SPEC, "synth": dict(SYNTH)}
    if block == "synth":
        doc["synth"][name] = value
    elif name == "manifest":
        del doc["synth"]
        doc["manifest"] = value
    else:
        doc[name] = value
    return doc


@contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the block once ``seconds`` have passed."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def wrong_kind_problem(tmp_path, capsys, block, name, value):
    """Why one wrong value does not exit 2 with a named error before any trial
    is read or generated, or None."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_with(block, name, value)))
    commands = [["experiment", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]]
    if block == "synth":
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({**SYNTH, name: value}))
        commands.append(["synth", "--config", str(config), "--out", str(tmp_path / "d")])
    for command in commands:
        try:
            with deadline(5):
                code = main(command)
        except Exception as exc:  # noqa: BLE001 - the case is reported, not raised
            return f"{command[0]} raised {exc!r}"
        err = capsys.readouterr().err
        if code != 2 or not err.startswith("error: ") or name not in err or "Traceback" in err:
            return f"{command[0]} exited {code}: {err.strip()[:120]!r}"
    if (tmp_path / "r.csv").exists() or (tmp_path / "d").exists():
        return "wrote its output"
    return None


def test_a_value_of_the_wrong_kind_exits_2_before_any_trial(tmp_path, monkeypatch, capsys):
    assert set(BAD["spec"]) == {f.name for f in fields(ScenarioSpec)}
    assert set(BAD["synth"]) == {f.name for f in fields(SynthConfig)}
    touched = []
    for reader in ("read_trials", "read_trial_blocks"):
        monkeypatch.setattr(dataio, reader, lambda *a: touched.append("read"))
    for module in (synth, experiment, cli):
        monkeypatch.setattr(module, "synthetic_subjects", lambda *a: touched.append("generated"))
    problems = []
    for i, (block, name, value) in enumerate(CASES):
        (tmp_path / str(i)).mkdir()
        problem = wrong_kind_problem(tmp_path / str(i), capsys, block, name, value)
        if problem or touched:
            problems.append(f"{block}.{name} = {value!r}: {problem or touched}")
            touched.clear()
    assert problems == []


def test_python_callers_get_the_same_checks():
    for change, message in [
        ({"shrinkage": "0.1"}, "shrinkage must be a finite number, got '0.1'"),
        ({"strategies": "raw"}, "strategies must be a non-empty list, got 'raw'"),
        ({"k_grid": []}, r"k_grid must be a non-empty list, got \[\]"),
        ({"manifest": "", "synth": None}, "manifest must be a non-empty string, got ''"),
        ({"synth": dict(SYNTH)}, r"synth must be a SynthConfig \(a JSON object\)"),
    ]:
        args = {**SPEC, "synth": SynthConfig(**SYNTH), **change}
        with pytest.raises(ConfigError, match=message):
            ScenarioSpec(**args)
    with pytest.raises(ConfigError, match="class_separation must be a finite number, got nan"):
        SynthConfig(**{**SYNTH, "class_separation": NAN})


def test_the_spec_holds_the_document_as_given():
    spec = scenario_from_dict({**SPEC, "shrinkage": 0})
    assert spec.k_grid == (2,) and spec.strategies == ("raw", "la")
    assert spec.shrinkage == 0.0 and type(spec.shrinkage) is float
    assert spec.synth == SynthConfig(**SYNTH)  # a pinned synth seed wins
    plain = {k: v for k, v in SPEC.items() if k not in ("strategies", "pipelines")}
    spec = ScenarioSpec(**{**plain, "synth": SynthConfig(**SYNTH)})
    assert spec.strategies == STRATEGIES and spec.pipelines == ("ts-lda",)
    assert spec == scenario_from_dict(plain)
    for doc, message in [
        ({**SPEC, "bands": 2}, "unexpected keyword argument 'bands'"),
        ({k: v for k, v in SPEC.items() if k != "k_grid"}, "missing 1 required .*'k_grid'"),
        ({**SPEC, "synth": {**SYNTH, "bands": 2}}, "unexpected keyword argument 'bands'"),
        ({**SPEC, "synth": {"channels": 3}}, "SynthConfig.* missing 6 required .*'samples'"),
        ([SPEC], "scenario spec must be a JSON object"),
    ]:
        with pytest.raises(ConfigError, match=message):
            scenario_from_dict(doc)


class TestRequire:
    @pytest.mark.parametrize("value, kind", [
        (3, int), (-3, int), (0.5, float), (2, float), (10**30, float), ("x", str),
        ([1, 2], tuple[int, ...]), ((1,), tuple[int, ...]), (["a"], tuple[str, ...]),
    ])
    def test_a_value_of_its_kind_passes(self, value, kind):
        require("f", value, kind)

    @pytest.mark.parametrize("value, kind, words", [
        (True, int, "an integer"), (3.0, int, "an integer"), ("3", int, "an integer"),
        (False, float, "a finite number"), (NAN, float, "a finite number"),
        (-INF, float, "a finite number"), (10**400, float, "a finite number"),
        ("", str, "a non-empty string"), (b"x", str, "a non-empty string"),
        ([], tuple[int, ...], "a non-empty list"), ("ab", tuple[str, ...], "a non-empty list"),
        ({1: 2}, tuple[int, ...], "a non-empty list"),
    ])
    def test_a_value_of_another_kind_is_named(self, value, kind, words):
        with pytest.raises(ConfigError, match=rf"^f must be {words}, got "):
            require("f", value, kind)

    def test_a_list_item_is_named_by_its_index(self):
        with pytest.raises(ConfigError, match=r"^f\[1\] must be an integer, got 1.5$"):
            require("f", [0, 1.5], tuple[int, ...])


class TestSizeBound:
    """``SynthConfig`` refuses a dataset too large to generate, before any draw."""

    PAPER = {"channels": 22, "samples": 750, "classes": 4, "trials_per_class": 72,
             "subjects": 9, "class_separation": 1.0, "subject_shift": 0.5, "seed": 1,
             "noise_df": 44}

    def test_the_paper_scale_config_passes_with_a_wide_margin(self):
        SynthConfig(**{**self.PAPER, "subjects": 900})  # 100 times the paper's subjects
        with pytest.raises(ConfigError, match="must be at most 4294967296 words"):
            SynthConfig(**{**self.PAPER, "subjects": 1000})
        with pytest.raises(ConfigError, match="must be at most 4294967296 words"):
            SynthConfig(**{**self.PAPER, "noise_df": 10**5})  # drawn like samples

    @staticmethod
    def cap_memory():
        # A generator that does not check its size builds every subject name:
        # let it fail in this child, not fill the machine.
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    @pytest.mark.parametrize("huge", [
        pytest.param({"subjects": 10**30}, id="drawn"),
        # Each draws at most MAX_WORDS words, but a run would hold more.
        pytest.param({"channels": 1, "samples": 1, "noise_df": None, "classes": 2,
                      "trials_per_class": 2, "subjects": 2**30}, id="subject-names"),
        pytest.param({"channels": 4096, "samples": 1, "noise_df": None, "classes": 2,
                      "trials_per_class": 2, "subjects": 2**18}, id="covariances"),
    ])
    def test_a_huge_dataset_exits_2_at_once(self, tmp_path, huge):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({**SYNTH, **huge}))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, "synth": {**SYNTH, **huge}}))
        src = str(Path(experiment.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for command in (["synth", "--config", str(config), "--out", str(tmp_path / "d")],
                        ["experiment", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]):
            done = subprocess.run(
                [sys.executable, "-m", "labelalign.cli", *command], env=env,
                capture_output=True, text=True, timeout=10, preexec_fn=self.cap_memory,
            )
            assert done.returncode == 2, done.stderr
            assert done.stderr.startswith("error: subjects x classes") and "Traceback" not in (
                done.stderr)
        assert not (tmp_path / "d").exists() and not (tmp_path / "r.csv").exists()


class TestGeneratorBounds:
    """With a ``synth`` block the spec knows each target pool's size, the
    channels and the classes, so a k grid, a CSP filter count or a label
    beyond them exits 2 before any subject is generated."""

    @pytest.mark.parametrize("change, message", [
        pytest.param({"k_grid": [2, 6]}, r"k_grid \[2, 6\] needs more than 6 trials in each "
                     r"target pool, a generated subject \(trials_per_class 3 x 2 target "
                     r"labels\) has 6", id="k-beyond-the-pool"),
        pytest.param({"k_grid": [2, 10**30]},
                     "needs more than 1000000000000000000000000000000 trials", id="huge-k"),
        pytest.param({"pipelines": ["csp-lda"], "csp_pairs": 2},
                     "csp_pairs 2 needs at least 4 channels, the trials have 3",
                     id="csp-pairs-beyond-the-channels"),
        pytest.param({"target_labels": [2, 4]}, r"labels \[4\] are not classes of the "
                     r"generator, whose 4 classes are 0 to 3", id="target-label-beyond"),
        pytest.param({"source_labels": [-1, 1]}, r"labels \[-1\] are not classes",
                     id="negative-source-label"),
    ])
    def test_a_bound_beyond_the_generator_exits_2_before_any_subject(
        self, tmp_path, monkeypatch, capsys, change, message
    ):
        generated = []
        subjects = experiment.synthetic_subjects

        def spy(*args):
            for subject in subjects(*args):
                generated.append(subject)
                yield subject

        monkeypatch.setattr(experiment, "synthetic_subjects", spy)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, **change}))
        assert main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert re.search(message, err), err
        assert generated == [] and not (tmp_path / "r.csv").exists()

    def test_the_largest_bounds_within_the_generator_run(self):
        doc = {**SPEC, "k_grid": [5], "pipelines": ["csp-lda"], "csp_pairs": 1,
               "source_labels": [0, 3], "target_labels": [1, 2]}
        assert len(run_scenario(scenario_from_dict(doc)).accuracies) == 3 * 2
