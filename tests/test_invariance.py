"""Invariants of the whole protocol, run from manifests of the golden spec's
data. LA and EA are congruences and the medoids come from the affine-invariant
geodesic distance, so a change of channel basis common to every subject, a
common scale, the manifest's subject order and an order-preserving renaming of
the labels must leave every accuracy row as it is, bit for bit; a congruence
of one subject alone must leave its medoids, and so the EA fallbacks, as they
are. Data faults in one subject give a report without a NaN, or an error
that names the subject: the tangent vectors are normalised, so one subject's
units move no EA or LA row."""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_invertible
from labelalign.dataio import write_labels, write_manifest, write_trials
from labelalign.errors import LabelAlignError
from labelalign.experiment import run_scenario, scenario_from_dict
from labelalign.report import render_report_csv
from labelalign.synth import synthetic_parameters, synthetic_subjects

GOLDEN_SPEC = json.loads((Path(__file__).parent / "fixtures" / "golden_spec.json").read_text())
GOLDEN_CSV = (Path(__file__).parent / "fixtures" / "golden_report.csv").read_text()


@functools.cache
def golden_subjects():
    cfg = scenario_from_dict(GOLDEN_SPEC).synth
    return tuple(synthetic_subjects(cfg, *synthetic_parameters(cfg)))


def run_from_manifest(directory, change=lambda name, data, labels: (data, labels),
                      order=None, rename=None, **fields):
    """The golden scenario's report from a manifest of its subjects, each
    written as ``change(name, data, labels)`` and listed in ``order``; the
    spec's labels are renamed by ``rename``, and ``fields`` replace the
    spec's."""
    names = [f"s{i}" for i in range(len(golden_subjects()))]
    entries = []
    for name, (data, labels) in zip(names, golden_subjects()):
        data, labels = change(name, data, labels)
        write_trials(directory / f"{name}.trials", data)
        write_labels(directory / f"{name}.labels", labels)
        entries.append((name, f"{name}.trials", f"{name}.labels"))
    entries = [entries[names.index(name)] for name in order or names]
    label_set = sorted({int(l) for _, labels in golden_subjects() for l in labels})
    rename = rename or {}
    write_manifest(directory / "manifest.json", 100.0,
                   [rename.get(l, l) for l in label_set], entries)
    doc = {k: v for k, v in GOLDEN_SPEC.items() if k != "synth"}
    for field in ("source_labels", "target_labels"):
        doc[field] = [rename.get(l, l) for l in doc[field]]
    doc.update(fields, manifest=str(directory / "manifest.json"))
    return run_scenario(scenario_from_dict(doc))


def accuracy_section(report) -> str:
    return render_report_csv(report).split("\n\n")[0]


def orthogonal(seed, dim):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return q


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return run_from_manifest(tmp_path_factory.mktemp("plain"))


def test_the_plain_manifest_gives_the_golden_accuracy_rows(plain):
    assert accuracy_section(plain) == GOLDEN_CSV.split("\n\n")[0]


CHANNELS = GOLDEN_SPEC["synth"]["channels"]


@pytest.mark.parametrize("change", [
    pytest.param(lambda name, data, labels: (orthogonal(7, CHANNELS) @ data, labels),
                 id="one-rotation-for-every-subject"),
    pytest.param(lambda name, data, labels: (data[:, [3, 0, 5, 1, 4, 2]], labels),
                 id="one-channel-permutation"),
    pytest.param(lambda name, data, labels: (2.0 * data, labels), id="every-trial-scaled-by-2"),
])
def test_a_change_common_to_every_subject_moves_no_row(tmp_path, plain, change):
    assert accuracy_section(run_from_manifest(tmp_path, change)) == accuracy_section(plain)


def test_the_subject_order_moves_no_row(tmp_path, plain):
    report = run_from_manifest(tmp_path, order=["s2", "s1", "s0"])
    assert accuracy_section(report) == accuracy_section(plain)


def test_labels_renamed_in_order_move_no_row(tmp_path, plain):
    rename = {label: label + 10 for label in range(4)}
    report = run_from_manifest(
        tmp_path, lambda name, data, labels: (data, labels + 10), rename=rename)
    assert accuracy_section(report) == accuracy_section(plain)
    assert report.metadata["mapping"] == [[s + 10, t + 10] for s, t in plain.metadata["mapping"]]


def test_a_congruence_of_one_subject_keeps_the_ea_fallbacks(tmp_path, plain):
    a = random_invertible(np.random.default_rng(12), CHANNELS)

    def change(name, data, labels):
        return (a @ data if name == "s0" else data), labels

    report = run_from_manifest(tmp_path, change)
    assert report.metadata["ea_fallbacks"] == plain.metadata["ea_fallbacks"]
    assert plain.metadata["ea_fallbacks"] == [["s0", 2]]  # the golden report's one fallback
    assert accuracy_section(report) != accuracy_section(plain)  # the congruence did act


def in_subject(subject, fault):
    """A ``change`` that applies ``fault(data, labels)`` to ``subject`` alone."""
    def change(name, data, labels):
        return fault(data, labels) if name == subject else (data, labels)
    return change


def scaled(factor):
    return lambda data, labels: (factor * data, labels)


def offset(level):
    return lambda data, labels: (data + level, labels)


def duplicated(data, labels):
    return np.concatenate([data, data]), np.concatenate([labels, labels])


def one_trial_of(label):
    def fault(data, labels):
        keep = (labels != label) | (np.arange(len(labels)) == np.argmax(labels == label))
        return data[keep], labels[keep]
    return fault


def shorter_than_channels(data, labels):
    return data[..., :CHANNELS - 2], labels  # T < C: rank deficient, shrinkage keeps it SPD


def assert_no_nan(report):
    values = [*report.accuracies.values(), *report.aucs.values()]
    assert values and not any(math.isnan(v) for v in values)


@pytest.mark.parametrize("fault", [
    pytest.param(scaled(1e3), id="amplitude-1e3"),
    pytest.param(scaled(1e-6), id="amplitude-1e-6"),
    pytest.param(offset(1e3), id="dc-offset-1e3"),
])
def test_the_units_of_one_subject_give_a_report(tmp_path, fault):
    assert_no_nan(run_from_manifest(tmp_path, in_subject("s1", fault)))


@pytest.mark.parametrize("factor", [10.0, 1e-3])
@pytest.mark.parametrize("subject", ["s0", "s1", "s2"])
def test_the_scale_of_one_subject_moves_no_ea_or_la_row(tmp_path, plain, subject, factor):
    report = run_from_manifest(tmp_path, in_subject(subject, scaled(factor)))
    moved = [key for key, accuracy in plain.accuracies.items()
             if key[2] != "raw" and report.accuracies[key] != accuracy]
    assert moved == []


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(subject=st.sampled_from(["s0", "s1", "s2"]), exponent=st.integers(-12, 12))
def test_any_amplitude_of_one_subject_gives_a_report(tmp_path_factory, subject, exponent):
    change = in_subject(subject, scaled(10 ** (exponent / 2)))
    assert_no_nan(run_from_manifest(tmp_path_factory.mktemp("amplitude"), change))


@pytest.mark.parametrize("fault, fields", [
    pytest.param(duplicated, {}, id="duplicated-trials"),
    *[pytest.param(one_trial_of(label), {}, id=f"one-trial-of-class-{label}")
      for label in range(4)],
    pytest.param(shorter_than_channels, {"shrinkage": 0.1}, id="fewer-samples-than-channels"),
])
def test_a_fault_in_one_subject_gives_a_report_or_names_the_subject(tmp_path, fault, fields):
    try:
        report = run_from_manifest(tmp_path, in_subject("s1", fault), **fields)
    except LabelAlignError as exc:
        assert "subject s1" in str(exc)
    else:
        assert_no_nan(report)
