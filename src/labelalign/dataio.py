"""Epoched trials and their on-disk formats: trial files, label files, manifests.

A subject is a pair ``(data, labels)``: its trials as one float64 ``(n, C,
T)`` array, channels x samples each, and their int labels ``(n,)``. That is
what a trial file and its label file hold, what the synthetic generator
yields, and what :func:`labelalign.features.covariance_stack` takes.

The trial file layout (all integers little-endian):

======  ====  =======================================================
offset  size  contents
======  ====  =======================================================
0       4     magic ``b"EEGT"``
4       1     format version, currently 1
5       4     u32 channel count
9       4     u32 samples per trial
13      4     u32 trial count
17      ...   float64 payload, trial-major then channel then sample
======  ====  =======================================================

A trial file is read straight into one ``(count, C, T)`` array and written
one trial at a time, so neither direction makes a second copy of the
payload. The harness and ``labelalign align`` read a manifest one subject at
a time; ``align`` reads each subject twice, to fit its alignment, then to
align and write it.

:class:`Trial`, one labeled epoch, is kept only because the benchmark's
set-up writes :func:`labelalign.synth.generate_synthetic`'s subjects, lists
of them, with :func:`write_trials` and reads their labels.

Label files are newline-separated integers, one per trial. A manifest is
a JSON document (``{"version": 1, "sample_rate": ..., "label_set": [...],
"subjects": [{"name": ..., "trials": ..., "labels": ...}, ...]}``) whose
paths are resolved relative to the manifest file.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BadMagicError,
    DataError,
    DimMismatchError,
    NonFiniteError,
    NonFinitePayloadError,
    TruncatedPayloadError,
    located,
)

MAGIC = b"EEGT"
VERSION = 1
HEADER_SIZE = 17
MANIFEST_VERSION = 1


@dataclass
class Trial:
    """One multichannel epoch: data is channels x samples, label optional."""

    data: np.ndarray
    label: int | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or 0 in self.data.shape:
            raise DimMismatchError(
                f"trial data must be 2-D with C > 0 and T > 0, got {self.data.shape}"
            )
        if not np.isfinite(self.data).all():
            raise NonFiniteError("trial data contains NaN or Inf")


def write_trials(path, trials) -> None:
    """Write ``trials``, an ``(n, C, T)`` array, one trial at a time; the file
    round-trips bit-exactly. Shapes and values are checked before the file is
    opened. A list of :class:`Trial` is taken too, only because the
    benchmark's set-up passes one."""
    rows = trials if isinstance(trials, np.ndarray) else [t.data for t in trials]
    if len(rows) == 0:
        raise DataError("cannot write an empty trial list")
    shape = rows[0].shape
    if len(shape) != 2 or 0 in shape:
        raise DimMismatchError(f"trials must be (n, C, T) with C, T > 0, got rows of {shape}")
    for i, row in enumerate(rows):
        if row.shape != shape:
            raise DimMismatchError(f"trial {i} has shape {row.shape}, expected {shape}")
        _check_finite(row, HEADER_SIZE + 8 * i * row.size)
    header = MAGIC + bytes([VERSION]) + struct.pack("<III", *shape, len(rows))
    with open(path, "wb") as f:
        f.write(header)
        for row in rows:
            f.write(np.ascontiguousarray(row, dtype="<f8"))


def _check_finite(payload: np.ndarray, start: int = HEADER_SIZE) -> None:
    """Name the byte offset of the first NaN or Inf of a float64 payload that
    starts at byte ``start``."""
    if not np.isfinite(payload).all():
        offset = start + 8 * int(np.flatnonzero(~np.isfinite(payload))[0])
        raise NonFinitePayloadError(f"non-finite value at byte offset {offset}", offset)


def _read(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_trials(path) -> np.ndarray:
    """Read a trial file into one writable ``(n, C, T)`` float64 array; the
    labels are in a separate label file."""
    try:
        with open(path, "rb") as f:
            header = f.read(HEADER_SIZE)
            if len(header) < HEADER_SIZE:
                raise TruncatedPayloadError(f"file ends at byte {len(header)}, header needs "
                                            f"{HEADER_SIZE}", len(header), HEADER_SIZE)
            if header[:4] != MAGIC:
                raise BadMagicError(f"bad magic {header[:4]!r} at byte offset 0", 0)
            if header[4] != VERSION:
                raise BadMagicError(f"unsupported version {header[4]} at byte offset 4", 4)
            channels, samples, count = struct.unpack("<III", header[5:])
            if count and not channels * samples:
                raise DimMismatchError(
                    f"{path}: {count} trials of {channels} channels x {samples} samples"
                )
            expected = HEADER_SIZE + 8 * count * channels * samples
            end = os.fstat(f.fileno()).st_size  # nothing is allocated for a short file
            if end >= expected:
                data = np.empty((count, channels, samples), dtype="<f8")
                end = HEADER_SIZE + f.readinto(data)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if end < expected:
        raise TruncatedPayloadError(
            f"payload ends at byte {end}, expected {expected}", end, expected
        )
    _check_finite(data)
    return data


def write_labels(path, labels: Sequence[int]) -> None:
    Path(path).write_text("".join(f"{int(l)}\n" for l in labels))


def read_labels(path) -> list[int]:
    out = []
    # Undecodable bytes fail below as a line that is not an integer.
    for lineno, line in enumerate(_read(path).decode(errors="replace").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(int(line))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: not an integer label: {line!r}") from exc
    return out


@dataclass(frozen=True)
class SubjectEntry:
    name: str
    trials_path: Path
    labels_path: Path


@dataclass(frozen=True)
class DatasetManifest:
    sample_rate: float
    label_set: tuple[int, ...]
    subjects: tuple[SubjectEntry, ...]

    def load_subject(self, entry: SubjectEntry) -> tuple[np.ndarray, np.ndarray]:
        """The trials ``(n, C, T)`` and labels ``(n,)`` of ``entry``; a
        :class:`DataError` of its files is prefixed ``subject {name}:``."""
        with located(f"subject {entry.name}"):
            data = read_trials(entry.trials_path)
            labels = read_labels(entry.labels_path)
            if len(labels) != len(data):
                raise DataError(f"{len(data)} trials but {len(labels)} labels")
            bad = sorted(set(labels) - set(self.label_set))
            if bad:
                raise DataError(f"labels {bad} not in declared set")
            return data, np.array(labels, dtype=np.int64)

    def iter_subjects(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Each subject's ``(data, labels)`` in turn, read as the next is asked for."""
        return (self.load_subject(e) for e in self.subjects)


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    try:
        doc = json.loads(_read(path))
    except ValueError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != MANIFEST_VERSION:
        raise DataError(f"{path}: expected a manifest with version {MANIFEST_VERSION}")
    try:
        sample_rate = float(doc["sample_rate"])
        label_set = tuple(int(l) for l in doc["label_set"])
        subjects = tuple(
            SubjectEntry(
                name=str(s["name"]),
                trials_path=path.parent / s["trials"],
                labels_path=path.parent / s["labels"],
            )
            for s in doc["subjects"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc
    for entry in subjects:
        if "\n" in entry.name or "\r" in entry.name:  # a CSV report cannot carry them back
            raise DataError(
                f"{path}: subject name {entry.name!r} may not contain line breaks"
            )
        for p in (entry.trials_path, entry.labels_path):
            if not p.exists():
                raise DataError(f"{path}: referenced file does not exist: {p}")
    return DatasetManifest(sample_rate, label_set, subjects)


def write_manifest(path, sample_rate: float, label_set: Sequence[int],
                   subjects: Sequence[tuple[str, str, str]]) -> None:
    """Write a manifest; ``subjects`` holds (name, trials_relpath, labels_relpath)."""
    doc = {
        "version": MANIFEST_VERSION,
        "sample_rate": sample_rate,
        "label_set": [int(l) for l in label_set],
        "subjects": [
            {"name": name, "trials": trials, "labels": labels}
            for name, trials, labels in subjects
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
