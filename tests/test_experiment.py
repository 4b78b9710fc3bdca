"""Harness tests: the golden report, report formats, degenerate input and the CLI."""

import json
import math
from pathlib import Path

import pytest

from labelalign.cli import main
from labelalign.dataio import (
    load_manifest,
    read_trials,
    write_labels,
    write_manifest,
    write_trials,
)
from labelalign.errors import DataError, DimMismatchError
from labelalign.experiment import (
    ExperimentReport,
    emit_report,
    load_scenario,
    read_report,
    render_report_csv,
    run_scenario,
)
from labelalign.signal import Trial
from labelalign.synth import SynthConfig, generate_synthetic

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_SPEC = FIXTURES / "golden_spec.json"


class TestGoldenReport:
    """3 subjects, 6 channels, all 12 algorithms at k in {2, 6}.

    The fixture was written by ``labelalign experiment --spec
    tests/fixtures/golden_spec.json --out tests/fixtures/golden_report.csv``.
    It includes one EA fallback (s0 at k = 2). A change that moves any row
    regenerates it and lists the row and its cause in CHANGES.md.
    """

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_csv_byte_identical(self, jobs):
        report = run_scenario(load_scenario(GOLDEN_SPEC), jobs=jobs)
        expected = (FIXTURES / "golden_report.csv").read_text()
        assert render_report_csv(report) == expected


@pytest.fixture
def manifest(tmp_path):
    """Three 4-class subjects of 24 trials each, written through dataio."""
    cfg = SynthConfig(channels=4, samples=40, classes=4, trials_per_class=6, subjects=3,
                      class_separation=1.0, subject_shift=0.5, seed=11, noise_df=8)
    data = generate_synthetic(cfg)
    entries = []
    for i, trials in enumerate(data.subjects):
        write_trials(tmp_path / f"s{i}.trials", trials)
        write_labels(tmp_path / f"s{i}.labels", [t.label for t in trials])
        entries.append((f"s{i}", f"s{i}.trials", f"s{i}.labels"))
    write_manifest(tmp_path / "manifest.json", 100.0, range(4), entries)
    return tmp_path / "manifest.json"


def write_spec(path, manifest_path):
    doc = {
        "source_labels": [0, 1], "target_labels": [2, 3], "strategies": ["raw", "la"],
        "pipelines": ["csp-lda", "mdm"], "k_grid": [2, 4], "manifest": str(manifest_path),
    }
    path.write_text(json.dumps(doc))
    return path


def zero_channel(manifest_path, subject, trial, channel):
    """Rewrite one trial of a subject with an all-zero channel."""
    trials_path = manifest_path.parent / f"{subject}.trials"
    trials = read_trials(trials_path)
    trials[trial].data[channel] = 0.0
    write_trials(trials_path, trials)


class TestDegenerateTrials:
    def test_run_scenario_names_subject_and_trial(self, manifest, tmp_path):
        zero_channel(manifest, "s1", 17, 2)
        spec = load_scenario(write_spec(tmp_path / "spec.json", manifest))
        with pytest.raises(DataError, match="subject s1, trial 17: smallest eigenvalue"):
            run_scenario(spec)

    def test_subjects_with_different_channel_counts_are_rejected(self, manifest, tmp_path):
        trials_path = manifest.parent / "s2.trials"
        write_trials(trials_path, [Trial(t.data[:3]) for t in read_trials(trials_path)])
        spec = load_scenario(write_spec(tmp_path / "spec.json", manifest))
        with pytest.raises(DimMismatchError, match="subject s2"):
            run_scenario(spec)

    def test_cli_experiment_exits_3_with_the_location(self, manifest, tmp_path, capsys):
        zero_channel(manifest, "s1", 17, 2)
        spec = write_spec(tmp_path / "spec.json", manifest)
        code = main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "r.csv")])
        assert code == 3
        assert "subject s1, trial 17" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


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
        emit_report(report, path, format="json")

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
        emit_report(report, tmp_path / "golden.json", format="json")
        assert read_report(tmp_path / "golden.json") == report


class TestCli:
    def la_args(self, manifest, out):
        return ["align", "--strategy", "la", "--manifest", str(manifest), "--out", str(out),
                "--target-subject", "s0", "--source-labels", "0,1",
                "--target-labels", "2,3", "-k", "6"]

    def test_align_la_writes_relabeled_sources(self, manifest, tmp_path):
        out = tmp_path / "aligned"
        assert main(self.la_args(manifest, out)) == 0
        aligned = load_manifest(out / "manifest.json").load_all()
        assert sorted({t.label for t in aligned[0]}) == [0, 1, 2, 3]  # target untouched
        for trials in aligned[1:]:
            assert len(trials) == 12
            assert sorted({t.label for t in trials}) == [2, 3]

    def test_align_la_bad_config_exits_2(self, manifest, tmp_path):
        args = self.la_args(manifest, tmp_path / "aligned")
        i = args.index("--target-subject")
        assert main(args[:i] + args[i + 2:]) == 2
        args[i + 1] = "nobody"
        assert main(args) == 2

    def test_kmedoids(self, manifest, capsys):
        trials = str(manifest.parent / "s0.trials")
        assert main(["kmedoids", "--trials", trials, "-k", "3"]) == 0
        medoids = [int(line) for line in capsys.readouterr().out.split()]
        assert len(medoids) == 3 and medoids == sorted(medoids)
        assert main(["kmedoids", "--trials", trials, "-k", "100"]) == 2
