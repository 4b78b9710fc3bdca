"""Epoched trials and their on-disk formats: trial files, label files, manifests.

A subject's trials move as :class:`TrialBlocks`, a shape ``(n, C, T)`` and
its float64 blocks, and its labels as an int array ``(n,)``: a trial file is
read as such blocks, and :func:`write_trials` and
:func:`labelalign.features.covariance_stack` take them (:func:`as_blocks`).

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

Every command reads trial files in blocks, one manifest subject at a time
(:meth:`DatasetManifest.iter_subject_blocks`): :func:`read_trial_blocks`
reads one :func:`labelalign.spd.chunks` block of trials (``CHUNK_WORDS``
words, one trial at least) at a time into one reused buffer. :func:`read_trials`
reads a file into one ``(count, C, T)`` array. Both check the header and the
file's size before any payload is read, and each value as it is read.

:class:`Trial`, one labeled epoch, is kept only because the benchmark's
set-up writes :func:`labelalign.synth.generate_synthetic`'s subjects, lists
of them, with :func:`write_trials` and reads their labels.

Label files are newline-separated integers, one per trial. A manifest is
a JSON document (``{"version": 1, "sample_rate": ..., "label_set": [...],
"subjects": [{"name": ..., "trials": ..., "labels": ...}, ...]}``) whose
paths are resolved relative to the manifest file. Its ``sample_rate`` must
be a finite number > 0, its ``label_set`` a list of ints and each subject's
``name`` a string, checked by :func:`labelalign.errors.require` and never
converted; a manifest is data, so a bad one raises :class:`DataError`
naming its path and the field.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BadMagicError,
    ConfigError,
    DataError,
    DimMismatchError,
    EmptyInputError,
    NonFiniteError,
    NonFinitePayloadError,
    TruncatedPayloadError,
    located,
    require,
)
from .spd import chunks

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
    """Write ``trials`` (a form of :func:`as_blocks`) block by block, each
    block's shape and values checked just before it is written (a NaN or Inf
    named by its file offset); the file round-trips bit-exactly. The blocks go
    to ``<path>.tmp``, which replaces ``path`` once they are all written, so a
    failed write leaves ``path`` as it was (absent, or its previous bytes)."""
    trials = as_blocks(trials)
    n, c, t = trials.shape
    part = Path(f"{path}.tmp")
    try:
        with open(part, "wb") as f:
            f.write(MAGIC + bytes([VERSION]) + struct.pack("<III", c, t, n))
            for rows, block in trials.blocks:
                if block.shape[1:] != (c, t):
                    raise DimMismatchError(f"trial {rows.start} has shape {block.shape[1:]}, "
                                           f"expected {(c, t)}")
                _check_finite(block, _payload_end(rows.start, c, t))
                f.write(np.ascontiguousarray(block, dtype="<f8"))
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _check_finite(payload: np.ndarray, start: int = HEADER_SIZE) -> None:
    """Name the byte offset of the first NaN or Inf of a float64 payload that
    starts at byte ``start``."""
    if not np.isfinite(payload).all():
        offset = start + 8 * int(np.flatnonzero(~np.isfinite(payload))[0])
        raise NonFinitePayloadError(f"non-finite value at byte offset {offset}", offset)


@contextmanager
def _opened(path):
    """``path`` open for binary reading; an :class:`OSError` is a :class:`DataError`."""
    try:
        with open(path, "rb") as f:
            yield f
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _read(path) -> bytes:
    with _opened(path) as f:
        return f.read()


def _checked_shape(f, path) -> tuple[int, int, int]:
    """The ``(count, C, T)`` of the trial file open as ``f``, from its header,
    once the file's size shows that it holds the payload the header declares;
    ``f`` is left at the payload's first byte."""
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
    expected = _payload_end(count, channels, samples)
    end = os.fstat(f.fileno()).st_size  # nothing is allocated for a short file
    if end < expected:
        raise TruncatedPayloadError(
            f"payload ends at byte {end}, expected {expected}", end, expected
        )
    return count, channels, samples


def _payload_end(count: int, channels: int, samples: int) -> int:
    return HEADER_SIZE + 8 * count * channels * samples


def _read_checked(f, out: np.ndarray, start: int, expected: int) -> None:
    """Fill ``out`` with the payload from byte ``start``, where ``f`` stands, and
    check its values; a file that ends early (it shrank since its size was
    checked) is truncated."""
    end = start + f.readinto(out)
    if end < start + out.nbytes:
        raise TruncatedPayloadError(
            f"payload ends at byte {end}, expected {expected}", end, expected
        )
    _check_finite(out, start)


def read_trials(path) -> np.ndarray:
    """Read a trial file into one writable ``(n, C, T)`` float64 array; the
    labels are in a separate label file."""
    with _opened(path) as f:
        shape = _checked_shape(f, path)
        data = np.empty(shape, dtype="<f8")
        _read_checked(f, data, HEADER_SIZE, _payload_end(*shape))
    return data


@dataclass(frozen=True, eq=False)
class TrialBlocks:
    """Trials of ``shape`` ``(n, C, T)``, met one block at a time.

    ``blocks`` yields each ``(rows, block)`` once, in order: ``block`` is
    the ``(m, C, T)`` array of the trials ``rows``, consecutive
    :func:`labelalign.spd.chunks` of ``CHUNK_WORDS`` words (one trial at
    least). The blocks of a trial file (:func:`read_trial_blocks`) share
    one buffer, which the next block overwrites, so a consumer takes what
    it needs from a block before it asks for the next.
    """

    shape: tuple[int, int, int]
    blocks: Iterator[tuple[slice, np.ndarray]]

    def __len__(self) -> int:
        return self.shape[0]


def as_blocks(x) -> TrialBlocks:
    """``x`` as :class:`TrialBlocks`: as it is, an ``(n, C, T)`` array in views of
    its :func:`labelalign.spd.chunks`, or a list of :class:`Trial` a trial per
    block. Another shape, or ragged trials, is a :class:`DimMismatchError`; no
    trials, an :class:`EmptyInputError`."""
    if isinstance(x, list) and x and isinstance(x[0], Trial):
        x = TrialBlocks((len(x), *x[0].data.shape),
                        ((slice(i, i + 1), t.data[None]) for i, t in enumerate(x)))
    elif not isinstance(x, TrialBlocks):
        try:
            stack = np.asarray(x, dtype=np.float64)
        except ValueError as exc:
            raise DimMismatchError(f"trials must be one (n, C, T) array: {exc}") from exc
        if stack.ndim != 3:
            raise DimMismatchError(f"trials must be (n, C, T), got {stack.shape}")
        x = TrialBlocks(stack.shape, _views(stack))
    if x.shape[0] == 0:
        raise EmptyInputError("no trials")
    if 0 in x.shape[1:]:
        raise DimMismatchError(f"trials must have C, T > 0, got {tuple(x.shape[1:])}")
    return x


def _views(stack: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    n, c, t = stack.shape
    for rows in chunks(n, c * t):
        yield rows, stack[rows]


def read_trial_blocks(path) -> TrialBlocks:
    """The trials of the trial file ``path`` as :class:`TrialBlocks`. The
    header and the file's size are checked now, with the errors of
    :func:`read_trials`; each block is read and checked as it is taken, and a
    NaN or Inf is named by its byte offset in the file, as there."""
    with _opened(path) as f:
        shape = _checked_shape(f, path)
    return TrialBlocks(shape, _payload_blocks(path, shape))


def _payload_blocks(path, shape: tuple[int, int, int]) -> Iterator[tuple[slice, np.ndarray]]:
    count, channels, samples = shape
    if not count:  # an empty file may declare C x T = 0, which chunks cannot divide by
        return
    start, expected, buffer = HEADER_SIZE, _payload_end(*shape), None
    with _opened(path) as f:
        f.seek(HEADER_SIZE)
        for rows in chunks(count, channels * samples):
            stop = min(rows.stop, count)
            if buffer is None:  # the first block is the largest
                buffer = np.empty((stop, channels, samples), dtype="<f8")
            block = buffer[: stop - rows.start]
            _read_checked(f, block, start, expected)
            start += block.nbytes
            yield rows, block


def _located_blocks(blocks, where: str):
    """``blocks``, a :class:`DataError` raised while they are read prefixed by ``where``."""
    with located(where):
        yield from blocks


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

    def iter_subject_blocks(self) -> Iterator[tuple[TrialBlocks, np.ndarray]]:
        """Each subject's trials as :class:`TrialBlocks` (:func:`read_trial_blocks`)
        and its labels ``(n,)``, in turn, opened as the next is asked for: the
        header, the file's size and the labels (their count and the declared set)
        are checked then, and the payload's blocks as they are read. A
        :class:`DataError` of a subject's files, while its blocks are read too,
        is prefixed ``subject {name}:``."""
        for entry in self.subjects:
            where = f"subject {entry.name}"
            with located(where):
                trials = read_trial_blocks(entry.trials_path)
                labels = self._labels(entry, len(trials))
            yield replace(trials, blocks=_located_blocks(trials.blocks, where)), labels

    def _labels(self, entry: SubjectEntry, count: int) -> np.ndarray:
        """The labels of ``entry``, checked against its ``count`` trials and the label set."""
        labels = read_labels(entry.labels_path)
        if len(labels) != count:
            raise DataError(f"{count} trials but {len(labels)} labels")
        bad = sorted(set(labels) - set(self.label_set))
        if bad:
            raise DataError(f"labels {bad} not in declared set")
        return np.array(labels, dtype=np.int64)


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    try:
        doc = json.loads(_read(path))
    except ValueError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != MANIFEST_VERSION:
        raise DataError(f"{path}: expected a manifest with version {MANIFEST_VERSION}")
    try:
        sample_rate, label_set = doc["sample_rate"], doc["label_set"]
        require("sample_rate", sample_rate, float)
        require("label_set", label_set, tuple[int, ...])
        if sample_rate <= 0:
            raise ConfigError(f"sample_rate must be > 0, got {sample_rate!r}")
        for i, s in enumerate(doc["subjects"]):
            if s["name"] != "":  # refused below, with the other names that are no file name
                require(f"subjects[{i}].name", s["name"], str)
        subjects = tuple(
            SubjectEntry(
                name=s["name"],
                trials_path=path.parent / s["trials"],
                labels_path=path.parent / s["labels"],
            )
            for s in doc["subjects"]
        )
    except ConfigError as exc:  # from require: a bad manifest is bad data
        raise DataError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc
    seen = set()
    for entry in subjects:
        if "\n" in entry.name or "\r" in entry.name:  # a CSV report cannot carry them back
            raise DataError(
                f"{path}: subject name {entry.name!r} may not contain line breaks"
            )
        if not entry.name or any(c in entry.name for c in "/\\\0"):  # align writes <name>.trials
            raise DataError(f"{path}: subject name {entry.name!r} is not a plain file name")
        if entry.name in seen:
            raise DataError(f"{path}: subject name {entry.name!r} is listed twice")
        seen.add(entry.name)
        for p in (entry.trials_path, entry.labels_path):
            if not p.exists():
                raise DataError(f"{path}: referenced file does not exist: {p}")
    return DatasetManifest(sample_rate, tuple(label_set), subjects)


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
